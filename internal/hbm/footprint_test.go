package hbm_test

import (
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
)

// TestSweepDeviceRowFootprint holds a sweep's device row state to the
// rows that flipped: a paper-chip harness runs HCFirstBatch on one
// channel's victims, sampled as the sweep samples them at 8 rows per
// region, under each Table 1 pattern. Every probe writes the 17 rows
// around its victim with one repeated byte each, so only rows whose
// flips were committed may hold a row-sized buffer: at most one per
// victim.
func TestSweepDeviceRowFootprint(t *testing.T) {
	cfg := config.PaperChip()
	h, err := core.NewHarnessFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Geometry
	var victims []int
	for _, region := range core.Regions(g.Rows) {
		for _, phys := range region.SampleRows(8) {
			if phys > 0 && phys < g.Rows-1 {
				victims = append(victims, phys)
			}
		}
	}
	ba := addr.BankAddr{Channel: 7}
	flipped := 0
	for _, p := range core.Table1() {
		_, found, _, err := h.HCFirstBatch(ba, victims, p, core.DefaultHammers)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range found {
			if f {
				flipped++
			}
		}
	}
	if flipped == 0 {
		t.Fatal("no victim flipped: the footprint bound shows nothing")
	}
	if n := h.Device().ImageRows(); n > len(victims) {
		t.Errorf("%d rows hold an image after %d victims' probes, want at most %d", n, len(victims), len(victims))
	}
}
