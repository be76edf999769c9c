package experiments

import (
	"reflect"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/faultmodel"
	"github.com/safari-repro/hbmrh/internal/results"
)

// TestSweepChannelComputesEachProfileOnce pins the sweep's chunk-major
// loop: with the profile cache capped below the channel's victim count
// (but above one chunk's), sweepChannel computes exactly the profiles
// and ladders it computes with the default cache, and measures the same
// rows. A pattern-major loop would evict every victim's profile before
// the next pattern reached it and compute each one four times.
func TestSweepChannelComputesEachProfileOnce(t *testing.T) {
	cfg := config.SmallChip()
	layout := cfg.Layout()
	const rows, ch = 64, 7
	sweep := func(cacheCap int) ([]results.RowRecord, faultmodel.Counters) {
		h, err := core.NewHarnessFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cacheCap > 0 {
			h.Device().SetProfileCacheCap(cacheCap)
		}
		out, err := sweepChannel(h, cfg.Geometry, layout, rows, core.DefaultHammers, ch)
		if err != nil {
			t.Fatal(err)
		}
		return out, h.Device().ModelCounters()
	}
	want, uncapped := sweep(0)
	const cacheCap = 2 * core.MaxProbeBatch
	if len(want) <= cacheCap {
		t.Fatalf("%d victims fit the %d-entry cache; the cap tests nothing", len(want), cacheCap)
	}
	got, capped := sweep(cacheCap)
	if capped != uncapped {
		t.Fatalf("%d victims: capped cache %+v, uncapped %+v", len(want), capped, uncapped)
	}
	if uncapped.ProfileComputes > int64(len(want)) || uncapped.LadderRebuilds != 0 {
		t.Fatalf("%d victims: %+v, want at most one profile per victim and no rebuild", len(want), uncapped)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("capping the profile cache changed the measured rows")
	}
}
