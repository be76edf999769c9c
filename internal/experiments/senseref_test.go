package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/hbm"
	"github.com/safari-repro/hbmrh/internal/results"
)

// TestMultiChipFastVsReferenceSenseByteIdentical is the end-to-end golden
// test of the sense fast path: a full fleet study — sweeps, WCDP, HCfirst
// searches, the TRR discovery, streaming aggregation, and the rendered
// CSV/JSON artifacts — must be byte-identical whether devices sense via
// the fast path or the straightforward reference implementation.
func TestMultiChipFastVsReferenceSenseByteIdentical(t *testing.T) {
	cfg := *config.SmallChip()
	cfg.Seed = 41
	opts := Options{Cfg: &cfg, Seeds: 2, Rows: 1, Parallel: 2}
	run := func(ref bool) (render, csv string, jsonOut []byte) {
		t.Helper()
		hbm.ForceReferenceSense(ref)
		defer hbm.ForceReferenceSense(false)
		// Pooled devices keep the sense path they were built with; start
		// from an empty pool on both sides.
		engine.SharedPool.Drain()
		defer engine.SharedPool.Drain()
		a, err := Run("multichip", opts)
		if err != nil {
			t.Fatal(err)
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
}
