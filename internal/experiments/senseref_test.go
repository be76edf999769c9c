package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/hbm"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/utrr"
)

// senseHarness powers up a device of cfg on the fast or the reference
// sense path and wraps it in a harness.
func senseHarness(t *testing.T, cfg *config.Config, ref bool) *core.Harness {
	t.Helper()
	d, err := hbm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetSenseReference(ref)
	h, err := core.NewHarness(d)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMultiChipFastVsReferenceSenseByteIdentical is the end-to-end golden
// test of the sense fast path: a full fleet study — sweeps, WCDP, HCfirst
// searches, the TRR discovery, streaming aggregation, and the rendered
// CSV/JSON artifacts — must be byte-identical whether devices sense via
// the fast path or the straightforward reference implementation.
//
// The reference run measures every chip's row scan on reference devices:
// at one job worker per chip it leases one harness per seed, which the
// test seeds the engine pool with, and it fails if the run built a
// device of its own. The Section 5 discovery each chip runs on a fresh
// device is compared on fast and reference devices directly.
func TestMultiChipFastVsReferenceSenseByteIdentical(t *testing.T) {
	cfg := *config.SmallChip()
	cfg.Seed = 41
	opts := Options{Cfg: &cfg, Seeds: 2, Rows: 1, Parallel: 2, Workers: 1}
	seedCfg := func(i int) config.Config {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		return c
	}
	run := func(ref bool) (render, csv string, jsonOut []byte) {
		t.Helper()
		// Start from an empty pool on both sides, so the fast run leases
		// no reference device and vice versa.
		engine.SharedPool.Drain()
		defer engine.SharedPool.Drain()
		if ref {
			for i := 0; i < opts.Seeds; i++ {
				c := seedCfg(i)
				engine.SharedPool.Put(&c, senseHarness(t, &c, true))
			}
		}
		created := engine.SharedPool.Stats().Created
		a, err := Run("multichip", opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := engine.SharedPool.Stats().Created - created; ref && n != 0 {
			t.Fatalf("the reference run built %d fast-path device(s) of its own", n)
		}
		headers, rows, err := a.SummaryCSV(results.ByRegion)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString(strings.Join(headers, ","))
		for _, r := range rows {
			sb.WriteString("\n" + strings.Join(r, ","))
		}
		j, err := a.SummaryJSON(results.ByRegion)
		if err != nil {
			t.Fatal(err)
		}
		return Render(a), sb.String(), j
	}
	fastRender, fastCSV, fastJSON := run(false)
	refRender, refCSV, refJSON := run(true)
	if fastRender != refRender {
		t.Error("rendered study diverges between fast and reference sense paths")
	}
	if fastCSV != refCSV {
		t.Errorf("aggregate CSV diverges:\nfast:\n%s\nref:\n%s", fastCSV, refCSV)
	}
	if !bytes.Equal(fastJSON, refJSON) {
		t.Error("aggregate JSON diverges between fast and reference sense paths")
	}

	for i := 0; i < opts.Seeds; i++ {
		c := seedCfg(i)
		var got [2]*utrr.Result
		for k, ref := range []bool{false, true} {
			e := utrr.New(senseHarness(t, &c, ref))
			e.Iterations = defaultIterations
			res, err := e.Run(addr.BankAddr{}, section5StartRow(&c))
			if err != nil {
				t.Fatal(err)
			}
			got[k] = res
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("chip %#x: Section 5 discovery diverges:\nfast: %+v\nref:  %+v", c.Seed, got[0], got[1])
		}
	}
}
