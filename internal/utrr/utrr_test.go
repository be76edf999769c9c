package utrr

import (
	"context"
	"errors"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
)

// newExperiment runs on a fresh harness, which turns ECC off: the
// methodology needs raw retention errors, as in §3.1.
func newExperiment(t testing.TB, cfg *config.Config) *Experiment {
	t.Helper()
	h, err := core.NewHarnessFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(h)
}

func bankAddr() addr.BankAddr {
	return addr.BankAddr{Channel: 1, PseudoChannel: 0, Bank: 0}
}

// startRow keeps the profiled row clear of the region the periodic
// refresh pointer sweeps during the experiment's REF commands.
const startRow = 300

func TestUncoverProprietaryTRRPeriod17(t *testing.T) {
	e := newExperiment(t, config.SmallChip())
	res, err := e.Run(bankAddr(), startRow)
	if err != nil {
		t.Fatal(err)
	}
	period, ok := res.InferPeriod()
	if !ok {
		t.Fatalf("no periodic TRR inferred; fires at %v", res.Fires())
	}
	if period != 17 {
		t.Fatalf("inferred period %d, paper uncovers 17", period)
	}
	// 100 iterations -> fires at 17, 34, 51, 68, 85.
	want := []int{17, 34, 51, 68, 85}
	fires := res.Fires()
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestNoTRRMeansNoRefreshes(t *testing.T) {
	cfg := config.SmallChip()
	cfg.TRR.Enabled = false
	e := newExperiment(t, cfg)
	res, err := e.Run(bankAddr(), startRow)
	if err != nil {
		t.Fatal(err)
	}
	if fires := res.Fires(); len(fires) != 0 {
		t.Fatalf("TRR disabled but refreshes observed at %v", fires)
	}
	if _, ok := res.InferPeriod(); ok {
		t.Fatal("period inferred without any fires")
	}
}

func TestUncoversNonDefaultPeriod(t *testing.T) {
	cfg := config.SmallChip()
	cfg.TRR.RefPeriod = 9
	e := newExperiment(t, cfg)
	e.Iterations = 40
	res, err := e.Run(bankAddr(), startRow)
	if err != nil {
		t.Fatal(err)
	}
	period, ok := res.InferPeriod()
	if !ok || period != 9 {
		t.Fatalf("inferred (%d, %v), want (9, true); fires %v", period, ok, res.Fires())
	}
}

func TestResultProfiledRetentionIsPlausible(t *testing.T) {
	e := newExperiment(t, config.SmallChip())
	res, err := e.Run(bankAddr(), startRow)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetentionSec < e.BandLo || res.RetentionSec > e.BandHi {
		t.Fatalf("profiled retention %v outside requested band [%v, %v]",
			res.RetentionSec, e.BandLo, e.BandHi)
	}
	if res.Row == res.Aggressor {
		t.Fatal("aggressor must differ from the profiled row")
	}
}

func TestInferPeriodSynthetic(t *testing.T) {
	mk := func(fires ...int) *Result {
		r := &Result{Refreshed: make([]bool, 100)}
		for _, f := range fires {
			r.Refreshed[f-1] = true
		}
		return r
	}
	if p, ok := mk(17, 34, 51).InferPeriod(); !ok || p != 17 {
		t.Fatalf("periodic case: (%d, %v)", p, ok)
	}
	if _, ok := mk(17).InferPeriod(); ok {
		t.Fatal("single fire must not infer a period")
	}
	if _, ok := mk(10, 20, 35).InferPeriod(); ok {
		t.Fatal("aperiodic fires must not infer a period")
	}
	if _, ok := mk(5, 22, 39).InferPeriod(); ok {
		t.Fatal("offset disagreeing with gap must not infer a period")
	}
	if got := mk(3, 6).Fires(); len(got) != 2 || got[0] != 3 || got[1] != 6 {
		t.Fatalf("Fires() = %v", got)
	}
}

func TestInferNeighborRadiusDefault(t *testing.T) {
	e := newExperiment(t, config.SmallChip())
	radius, err := e.InferNeighborRadius(bankAddr(), startRow, 3)
	if err != nil {
		t.Fatal(err)
	}
	if radius != 1 {
		t.Fatalf("inferred radius %d, the mechanism refreshes +/-1", radius)
	}
}

func TestInferNeighborRadiusWide(t *testing.T) {
	cfg := config.SmallChip()
	cfg.TRR.NeighborRadius = 2
	e := newExperiment(t, cfg)
	radius, err := e.InferNeighborRadius(bankAddr(), startRow, 3)
	if err != nil {
		t.Fatal(err)
	}
	if radius != 2 {
		t.Fatalf("inferred radius %d, configured 2", radius)
	}
}

func TestInferSamplerSlotsSingle(t *testing.T) {
	e := newExperiment(t, config.SmallChip())
	slots, err := e.InferSamplerSlots(bankAddr(), startRow, 3)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 1 {
		t.Fatalf("inferred %d sampler slots, the Vendor-C-style mechanism holds 1", slots)
	}
}

func TestInferSamplerSlotsDeep(t *testing.T) {
	cfg := config.SmallChip()
	cfg.TRR.SamplerSlots = 2
	e := newExperiment(t, cfg)
	slots, err := e.InferSamplerSlots(bankAddr(), startRow, 3)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 2 {
		t.Fatalf("inferred %d sampler slots, configured 2", slots)
	}
}

func TestInferNoTRRFindsNothing(t *testing.T) {
	cfg := config.SmallChip()
	cfg.TRR.Enabled = false
	e := newExperiment(t, cfg)
	radius, err := e.InferNeighborRadius(bankAddr(), startRow, 2)
	if err != nil {
		t.Fatal(err)
	}
	if radius != 0 {
		t.Fatalf("radius %d inferred on a chip without TRR", radius)
	}
}

func TestProbeArgumentValidation(t *testing.T) {
	e := newExperiment(t, config.SmallChip())
	if _, err := e.InferNeighborRadius(bankAddr(), startRow, 0); err == nil {
		t.Error("maxDistance 0 accepted")
	}
	if _, err := e.InferSamplerSlots(bankAddr(), startRow, 0); err == nil {
		t.Error("maxSlots 0 accepted")
	}
}

// The harness context cancels a run: with the context done, the run
// stops at its first program and reports the context's error.
func TestRunStopsOnHarnessContext(t *testing.T) {
	h, err := core.NewHarnessFromConfig(config.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	e := New(h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.SetContext(ctx)
	if _, err := e.Run(bankAddr(), startRow); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
}
