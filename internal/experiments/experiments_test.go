package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/engine"
)

func smallSweep(t testing.TB, rowsPerRegion int) *Sweep {
	t.Helper()
	s, err := RunSweep(Options{Cfg: config.SmallChip(), Rows: rowsPerRegion})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSweepStructure(t *testing.T) {
	s := smallSweep(t, 6)
	g := s.Cfg.Geometry
	// 8 channels x 3 regions x 6 rows, minus bank-edge skips.
	if len(s.Rows) < g.Channels*3*5 {
		t.Fatalf("sweep has %d rows, want at least %d", len(s.Rows), g.Channels*3*5)
	}
	regions := map[string]bool{}
	for _, r := range s.Rows {
		if len(r.BER) != 4 || len(r.HCFirst) != 4 || len(r.Found) != 4 {
			t.Fatalf("row %+v has wrong pattern arity", r)
		}
		if r.WCDP < 0 || r.WCDP >= 4 {
			t.Fatalf("WCDP index %d out of range", r.WCDP)
		}
		for _, b := range r.BER {
			if b < 0 || b > 1 {
				t.Fatalf("BER %v out of [0,1]", b)
			}
		}
		regions[r.Region] = true
	}
	for _, want := range []string{"first", "middle", "last"} {
		if !regions[want] {
			t.Errorf("region %q missing from sweep", want)
		}
	}
}

func TestSweepIndependentOfWorkerCount(t *testing.T) {
	opts := Options{Cfg: config.SmallChip(), Rows: 3}
	opts.Parallel = 1
	a, err := RunSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	b, err := RunSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The engine guarantees byte-identical datasets at any worker count.
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ across worker counts: %d vs %d", len(a.Rows), len(b.Rows))
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		for i := range a.Rows {
			if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
				t.Fatalf("row %d differs across worker counts: %+v vs %+v",
					i, a.Rows[i], b.Rows[i])
			}
		}
		t.Fatalf("sweep datasets differ across worker counts: %d vs %d rows",
			len(a.Rows), len(b.Rows))
	}
}

func TestFig6IndependentOfWorkerCount(t *testing.T) {
	opts := Options{Cfg: config.SmallChip(), Rows: 3}
	opts.Parallel = 1
	a, err := RunFig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	b, err := RunFig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ across worker counts: %d vs %d", len(a.Points), len(b.Points))
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		for i := range a.Points {
			if !reflect.DeepEqual(a.Points[i], b.Points[i]) {
				t.Fatalf("bank point %d differs across worker counts: %+v vs %+v",
					i, a.Points[i], b.Points[i])
			}
		}
		t.Fatalf("fig6 datasets differ across worker counts: %d vs %d points",
			len(a.Points), len(b.Points))
	}
}

func TestSweepCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSweep(Options{Cfg: config.SmallChip(), Rows: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var updates []int
	_, err := RunSweep(Options{
		Cfg:      config.SmallChip(),
		Rows:     2,
		Parallel: 2,
		Ctx:      ctx,
		Progress: func(p engine.Progress) {
			updates = append(updates, p.Done)
			if p.Done >= 1 {
				cancel() // abort at the first delivered progress update
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	g := config.SmallChip().Geometry
	if len(updates) == 0 || updates[len(updates)-1] >= g.Channels {
		t.Fatalf("sweep ran %v of %d channels despite prompt cancellation",
			updates, g.Channels)
	}
}

func TestSweepCancelMidMeasurementPaperGeometry(t *testing.T) {
	// A full-resolution paper-geometry channel job measures ~9K rows x 4
	// patterns x ~13 probes; before mid-measurement cancellation the
	// engine could only abort *between* channel jobs, so a cancel landing
	// mid-channel still paid the whole channel. The harness now checks
	// the run's context on every measurement: the job must abort within
	// one probe's worth of work.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(250 * time.Millisecond)
		cancel()
	}()
	var completed []int
	start := time.Now()
	_, err := RunSweep(Options{
		Cfg:      config.PaperChip(),
		Rows:     0, // every row: the paper's full resolution
		Parallel: 1,
		Ctx:      ctx,
		Progress: func(p engine.Progress) { completed = append(completed, p.Done) },
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Prompt return: far below one full channel's runtime. Generous bound
	// for race-instrumented CI.
	if elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v; mid-measurement abort is not working", elapsed)
	}
	// No channel job can have completed: the cancel fired mid-channel 0.
	if len(completed) != 0 {
		t.Fatalf("channel jobs completed despite mid-channel cancellation: %v", completed)
	}
}

func TestTRRStudyCancelMidIterations(t *testing.T) {
	// The fleet contract covers a chip job's TRR phase too: a cancel
	// landing inside the U-TRR loop must abort between iterations, not
	// wait out the remaining run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunTRRStudy(TRRStudyOptions{
		Cfg:        config.PaperChip(),
		Bank:       addr.BankAddr{Channel: 0, PseudoChannel: 0, Bank: 0},
		Iterations: 100000, // far more work than the cancel window allows
		Ctx:        ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("TRR study took %v to cancel; per-iteration abort is not working", elapsed)
	}
}

func TestFig3ChannelOrdering(t *testing.T) {
	s := smallSweep(t, 8)
	h := Fig3{s}.Headlines()
	if len(h.WCDPMeanBER) != 8 {
		t.Fatalf("%d channels in headlines, want 8", len(h.WCDPMeanBER))
	}
	// Channel 7 must be the most vulnerable, channel 0 among the least:
	// the paper's first key takeaway.
	for ch := 0; ch < 7; ch++ {
		if h.WCDPMeanBER[ch] > h.WCDPMeanBER[7] {
			t.Errorf("channel %d mean WCDP BER %.3f%% exceeds channel 7's %.3f%%",
				ch, h.WCDPMeanBER[ch], h.WCDPMeanBER[7])
		}
	}
	if h.MaxOverMinWCDP <= 1.3 {
		t.Errorf("max/min channel BER ratio = %.2f, want a clear spread (paper: 2.03)", h.MaxOverMinWCDP)
	}
	if h.MaxSpreadPct <= 30 {
		t.Errorf("max cross-channel spread = %.1f%%, want substantial (paper: 79%%)", h.MaxSpreadPct)
	}
	if h.MaxBER <= 0 {
		t.Error("no bitflips anywhere")
	}
}

func TestFig3RenderMentionsAllSeries(t *testing.T) {
	s := smallSweep(t, 4)
	out := Fig3{s}.Render()
	for _, want := range []string{"Rowstripe0", "Rowstripe1", "Checkered0", "Checkered1", "WCDP", "ch0", "ch7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 render missing %q", want)
		}
	}
}

func TestFig4Headlines(t *testing.T) {
	s := smallSweep(t, 8)
	h := Fig4{s}.Headlines()
	floor := int(s.Cfg.Fault.HCFloor)
	if h.MinHCFirst < floor {
		t.Errorf("min HCfirst %d below model floor %d", h.MinHCFirst, floor)
	}
	if h.MinHCFirst > core.DefaultHammers {
		t.Errorf("min HCfirst %d above the search ceiling", h.MinHCFirst)
	}
	// Channel 7 hammers more easily than channel 0.
	if h.WCDPMeanHC[7] >= h.WCDPMeanHC[0] {
		t.Errorf("ch7 mean WCDP HCfirst %.0f not below ch0's %.0f", h.WCDPMeanHC[7], h.WCDPMeanHC[0])
	}
	// Channel 0 is anti-cell rich: Rowstripe0 flips with fewer hammers.
	if h.Ch0Rowstripe0 >= h.Ch0Rowstripe1 {
		t.Errorf("ch0 Rowstripe0 mean HCfirst %.0f not below Rowstripe1's %.0f (paper: 57.9K vs 79.2K)",
			h.Ch0Rowstripe0, h.Ch0Rowstripe1)
	}
}

func TestFig5LastSubarrayIsWeak(t *testing.T) {
	s := smallSweep(t, 10)
	h := Fig5{s}.Headlines()
	if h.LastSubarrayRatio <= 0 || h.LastSubarrayRatio >= 0.8 {
		t.Errorf("last-subarray BER ratio = %.2f, want clearly below 0.8 (paper: far fewer flips)", h.LastSubarrayRatio)
	}
	if h.MidOverEdge <= 1 {
		t.Errorf("mid/edge BER ratio = %.2f, want > 1 (BER peaks mid-subarray)", h.MidOverEdge)
	}
}

func TestFig5ProfileShape(t *testing.T) {
	s := smallSweep(t, 5)
	xs, series := Fig5{s}.Profile("middle")
	if len(series) != 8 {
		t.Fatalf("%d channel series, want 8", len(series))
	}
	for _, sr := range series {
		if len(sr.Values) != len(xs) {
			t.Fatalf("series %s has %d values for %d rows", sr.Label, len(sr.Values), len(xs))
		}
	}
	out := Fig5{s}.Render()
	for _, want := range []string{"first", "middle", "last"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 render missing region %q", want)
		}
	}
}

func TestSweepCSVExport(t *testing.T) {
	s := smallSweep(t, 2)
	headers, rows := s.CSV()
	if len(headers) != 8 {
		t.Fatalf("%d headers", len(headers))
	}
	if len(rows) != len(s.Rows)*4 {
		t.Fatalf("%d CSV rows for %d sweep rows", len(rows), len(s.Rows))
	}
}

func TestFig6BankScatter(t *testing.T) {
	f, err := RunFig6(Options{Cfg: config.SmallChip(), Rows: 6})
	if err != nil {
		t.Fatal(err)
	}
	g := f.Cfg.Geometry
	if len(f.Points) != g.TotalBanks() {
		t.Fatalf("%d bank points, want %d", len(f.Points), g.TotalBanks())
	}
	h := f.Headlines()
	if h.MeanLo <= 0 || h.MeanHi <= h.MeanLo {
		t.Errorf("mean BER range [%v, %v] implausible", h.MeanLo, h.MeanHi)
	}
	if h.CVLo <= 0 || h.CVHi <= h.CVLo {
		t.Errorf("CV range [%v, %v] implausible", h.CVLo, h.CVHi)
	}
	// Paper observation 2: channel-to-channel variation dominates
	// bank-to-bank variation within a channel.
	if h.CrossOverIntra <= 1 {
		t.Errorf("cross/intra channel spread ratio %.2f, want > 1", h.CrossOverIntra)
	}
	out := f.Render()
	if !strings.Contains(out, "Fig. 6") {
		t.Error("render missing title")
	}
	hd, rows := f.CSV()
	if len(hd) != 5 || len(rows) != len(f.Points) {
		t.Error("CSV export malformed")
	}
}

// TestFig6ExcludesNaNCVBanks pins the small-budget Fig. 6 render: at a
// low hammer count some banks' sampled rows never flip, so their CV is
// NaN (zero mean). The scatter and the CV range leave such banks out, as
// the artifact's CV distribution does, instead of turning NaN into a
// grid index.
func TestFig6ExcludesNaNCVBanks(t *testing.T) {
	f, err := RunFig6(Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 30000})
	if err != nil {
		t.Fatal(err)
	}
	nan := 0
	for _, p := range f.Points {
		if math.IsNaN(p.CV) {
			nan++
		}
	}
	if nan == 0 || nan == len(f.Points) {
		t.Fatalf("%d of %d banks have a NaN CV; the budget no longer mixes flipping and silent banks", nan, len(f.Points))
	}
	if out := f.Render(); !strings.Contains(out, "Fig. 6") || strings.Contains(out, "NaN") {
		t.Errorf("render:\n%s", out)
	}
	h := f.Headlines()
	if math.IsNaN(h.CVLo) || math.IsNaN(h.CVHi) || h.CVLo <= 0 || h.CVHi < h.CVLo {
		t.Errorf("CV range [%v, %v] over the flipping banks", h.CVLo, h.CVHi)
	}
}

func TestTRRStudyReproducesSection5(t *testing.T) {
	s, err := RunTRRStudy(TRRStudyOptions{
		Cfg:  config.SmallChip(),
		Bank: addr.BankAddr{Channel: 2, PseudoChannel: 1, Bank: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Periodic || s.Period != 17 {
		t.Fatalf("inferred period (%d, periodic=%v), paper observes 17", s.Period, s.Periodic)
	}
	out := s.Render()
	for _, want := range []string{"every 17 REFs", "timeline", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	hd, rows := s.CSV()
	if len(hd) != 2 || len(rows) != len(s.Result.Refreshed) {
		t.Error("CSV export malformed")
	}
}
