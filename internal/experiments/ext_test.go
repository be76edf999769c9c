package experiments

import (
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// ch7 is where the extension tests measure: the paper's weakest channel.
var ch7 = addr.BankAddr{Channel: 7, PseudoChannel: 0, Bank: 0}

// smallVictims places n victim rows on the small chip as the extension
// plans do.
func smallVictims(t *testing.T, n, stride, reach int) []int {
	t.Helper()
	rows, err := midSubarrayRows(config.SmallChip(), n, stride, reach)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestRowPressLowersHCFirst(t *testing.T) {
	cfg := config.SmallChip()
	victims := smallVictims(t, 4, 3, 1)
	mults := []int{1, 4, 16}
	h, err := core.NewHarnessFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	means := make([]float64, len(mults))
	for i, mult := range mults {
		hcs, foundAll, err := rowPressPoint(h, cfg, ch7, victims, core.DefaultHammers, mult)
		if err != nil {
			t.Fatal(err)
		}
		if !foundAll {
			t.Fatalf("x%d: rows did not flip within the budget", mult)
		}
		means[i] = stats.Mean(hcs)
	}
	for i := 1; i < len(means); i++ {
		if means[i] >= means[i-1] {
			t.Fatalf("HCfirst did not fall with hold time: %v -> %v (x%d -> x%d)",
				means[i-1], means[i], mults[i-1], mults[i])
		}
	}
	// At 16x tRAS the amplification is ~13x: the first flip needs far
	// fewer hammers than at minimum timing.
	if ratio := means[0] / means[2]; ratio < 4 {
		t.Errorf("16x hold only improved HCfirst by %.1fx, want > 4x", ratio)
	}
}

func TestTempSweepMonotone(t *testing.T) {
	cfg := config.SmallChip()
	victims := smallVictims(t, 4, 3, 1)
	temps := []float64{55, 85, 95}
	means := make([]float64, len(temps))
	for i, temp := range temps {
		bers, err := tempSweepPoint(cfg, ch7, victims, core.DefaultHammers, temp)
		if err != nil {
			t.Fatal(err)
		}
		means[i] = stats.Mean(bers)
	}
	for i := 1; i < len(means); i++ {
		if means[i] < means[i-1] {
			t.Fatalf("BER fell from %.3f%% at %.0fC to %.3f%% at %.0fC; hotter must be worse",
				means[i-1], temps[i-1], means[i], temps[i])
		}
	}
	if means[0] >= means[2] {
		t.Fatal("no temperature sensitivity at all")
	}
}

func TestCrossChannelProbe(t *testing.T) {
	cfg := config.SmallChip()
	rows := smallVictims(t, 3, 5, 0)
	// The paper-default chip shows no cross-channel interference.
	baseline, err := crossChannelArm(cfg, 4, rows, cfg.Fault.VerticalCoupling)
	if err != nil {
		t.Fatal(err)
	}
	if baseline != 0 {
		t.Fatalf("default chip leaked %d flips across channels", baseline)
	}
	// The synthetic arm demonstrates the methodology would detect it.
	coupled, err := crossChannelArm(cfg, 4, rows, syntheticCoupling)
	if err != nil {
		t.Fatal(err)
	}
	if coupled == 0 {
		t.Fatal("synthetic coupling produced no cross-channel flips")
	}
}

// TestMultiChipStability runs the multichip plan over a non-contiguous
// seed list, which only the in-package plan (not the registry's seed
// range) can express.
func TestMultiChipStability(t *testing.T) {
	p := multiChipPlan(config.SmallChip(), []uint64{11, 22, 33}, Options{Rows: 6})
	a, err := executePlan(p, Options{}, 0, len(p.Jobs))
	if err != nil {
		t.Fatal(err)
	}
	chips := a.Chips
	if len(chips) != 3 {
		t.Fatalf("%d chips, want 3", len(chips))
	}
	// Design-level observations are stable across chips.
	worstStable, trrStable := stableObservations(chips)
	if !trrStable || chips[0].TRRPeriod != 17 {
		t.Fatalf("TRR period not stable at 17 across chips: %+v", chips)
	}
	if !worstStable || chips[0].WorstChannel != 7 {
		t.Fatalf("worst channel not stable at 7 across chips: %+v", chips)
	}
	// Cell-level numbers vary chip to chip.
	varies := false
	for _, c := range chips[1:] {
		if c.MinHCFirst != chips[0].MinHCFirst {
			varies = true
		}
		if c.MinHCFirst < int(config.SmallChip().Fault.HCFloor) {
			t.Fatalf("chip %#x min HCfirst %d below the floor", c.Seed, c.MinHCFirst)
		}
	}
	if !varies {
		t.Fatal("min HCfirst identical on all chips; seeds are not differentiating instances")
	}
	if !strings.Contains(renderMultichip(a), "chip-to-chip") {
		t.Error("render missing title")
	}
}

func TestTRRBypassWithDecoy(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-geometry nominal-refresh run")
	}
	cfg := config.PaperChip()
	protected, refs, err := runBypassArm(cfg, ch7, core.DefaultHammers, false)
	if err != nil {
		t.Fatal(err)
	}
	if protected != 0 {
		t.Fatalf("TRR failed to protect a naive single-pair attack: %d flips", protected)
	}
	if refs == 0 {
		t.Fatal("no refreshes issued; the study must run under nominal refresh")
	}
	bypassed, _, err := runBypassArm(cfg, ch7, core.DefaultHammers, true)
	if err != nil {
		t.Fatal(err)
	}
	if bypassed == 0 {
		t.Fatal("decoy bypass induced no flips; the uncovered mechanism should be defeatable")
	}
}
