package experiments

import (
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

func TestRowPressLowersHCFirst(t *testing.T) {
	o := RowPressOptions{
		Cfg:             config.SmallChip(),
		Bank:            addr.BankAddr{Channel: 7, PseudoChannel: 0, Bank: 0},
		Rows:            4,
		HoldMultipliers: []int{1, 4, 16},
	}
	o.setDefaults()
	h, err := core.NewHarnessFromConfig(o.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	means := make([]float64, len(o.HoldMultipliers))
	for i, mult := range o.HoldMultipliers {
		hcs, foundAll, err := rowPressPoint(h, o, mult)
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
				means[i-1], means[i], o.HoldMultipliers[i-1], o.HoldMultipliers[i])
		}
	}
	// At 16x tRAS the amplification is ~13x: the first flip needs far
	// fewer hammers than at minimum timing.
	if ratio := means[0] / means[2]; ratio < 4 {
		t.Errorf("16x hold only improved HCfirst by %.1fx, want > 4x", ratio)
	}
}

func TestTempSweepMonotone(t *testing.T) {
	o := TempSweepOptions{
		Cfg:           config.SmallChip(),
		Bank:          addr.BankAddr{Channel: 7, PseudoChannel: 0, Bank: 0},
		Rows:          4,
		TemperaturesC: []float64{55, 85, 95},
	}
	o.setDefaults()
	means := make([]float64, len(o.TemperaturesC))
	for i, temp := range o.TemperaturesC {
		bers, err := tempSweepPoint(o, temp)
		if err != nil {
			t.Fatal(err)
		}
		means[i] = stats.Mean(bers)
	}
	for i := 1; i < len(means); i++ {
		if means[i] < means[i-1] {
			t.Fatalf("BER fell from %.3f%% at %.0fC to %.3f%% at %.0fC; hotter must be worse",
				means[i-1], o.TemperaturesC[i-1], means[i], o.TemperaturesC[i])
		}
	}
	if means[0] >= means[2] {
		t.Fatal("no temperature sensitivity at all")
	}
}

func TestCrossChannelProbe(t *testing.T) {
	o := CrossChannelOptions{
		Cfg:              config.SmallChip(),
		AggressorChannel: 4,
		Rows:             3,
	}
	o.setDefaults()
	// The paper-default chip shows no cross-channel interference.
	baseline, err := crossChannelArm(o, o.Cfg.Fault.VerticalCoupling)
	if err != nil {
		t.Fatal(err)
	}
	if baseline != 0 {
		t.Fatalf("default chip leaked %d flips across channels", baseline)
	}
	// The synthetic arm demonstrates the methodology would detect it.
	coupled, err := crossChannelArm(o, o.SyntheticCoupling)
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
	o := MultiChipOptions{
		Base:          config.SmallChip(),
		Seeds:         []uint64{11, 22, 33},
		RowsPerRegion: 6,
	}
	o.setDefaults()
	p := multiChipPlan(o)
	a, err := executePlan(p, Options{}, 0, len(p.Jobs))
	if err != nil {
		t.Fatal(err)
	}
	s := StudyFromArtifact(a, results.ByRegion)
	if len(s.Chips) != 3 {
		t.Fatalf("%d chips, want 3", len(s.Chips))
	}
	// Design-level observations are stable across chips.
	worstStable, trrStable := s.StableObservations()
	if !trrStable || s.Chips[0].TRRPeriod != 17 {
		t.Fatalf("TRR period not stable at 17 across chips: %+v", s.Chips)
	}
	if !worstStable || s.Chips[0].WorstChannel != 7 {
		t.Fatalf("worst channel not stable at 7 across chips: %+v", s.Chips)
	}
	// Cell-level numbers vary chip to chip.
	varies := false
	for _, c := range s.Chips[1:] {
		if c.MinHCFirst != s.Chips[0].MinHCFirst {
			varies = true
		}
		if c.MinHCFirst < int(config.SmallChip().Fault.HCFloor) {
			t.Fatalf("chip %#x min HCfirst %d below the floor", c.Seed, c.MinHCFirst)
		}
	}
	if !varies {
		t.Fatal("min HCfirst identical on all chips; seeds are not differentiating instances")
	}
	if !strings.Contains(s.Render(), "chip-to-chip") {
		t.Error("render missing title")
	}
}

func TestTRRBypassWithDecoy(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-geometry nominal-refresh run")
	}
	o := TRRBypassOptions{Bank: addr.BankAddr{Channel: 7, PseudoChannel: 0, Bank: 0}}
	o.setDefaults()
	protected, refs, err := runBypassArm(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if protected != 0 {
		t.Fatalf("TRR failed to protect a naive single-pair attack: %d flips", protected)
	}
	if refs == 0 {
		t.Fatal("no refreshes issued; the study must run under nominal refresh")
	}
	bypassed, _, err := runBypassArm(o, true)
	if err != nil {
		t.Fatal(err)
	}
	if bypassed == 0 {
		t.Fatal("decoy bypass induced no flips; the uncovered mechanism should be defeatable")
	}
}

// TestRunUTRRProbeMatchesArtifact pins the typed driver to the registry:
// RunUTRRProbe's radius and slots equal the utrrprobe artifact's
// per-point values on the same chip.
func TestRunUTRRProbeMatchesArtifact(t *testing.T) {
	cfg := config.SmallChip()
	s, err := RunUTRRProbe(UTRRProbeOptions{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run("utrrprobe", Options{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"radius": s.NeighborRadius, "slots": s.SamplerSlots}
	if len(a.Groups) != len(want) {
		t.Fatalf("artifact has %d groups, want %d", len(a.Groups), len(want))
	}
	for _, g := range a.Groups {
		st := g.Metrics[0].Stream
		v, ok := want[g.Key.Point]
		if !ok || st.N() != 1 || st.Min() != float64(v) {
			t.Errorf("point %q: artifact n=%d value %v, RunUTRRProbe %d",
				g.Key.Point, st.N(), st.Min(), v)
		}
	}
}
