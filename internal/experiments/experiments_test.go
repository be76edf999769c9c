package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/results"
)

// smallSweep runs the sweep experiment on the small chip.
func smallSweep(t testing.TB, rowsPerRegion int) *results.Artifact {
	t.Helper()
	a, err := Run("sweep", Options{Cfg: config.SmallChip(), Rows: rowsPerRegion})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSweepStructure(t *testing.T) {
	a := smallSweep(t, 6)
	cfg := config.SmallChip()
	g, layout := cfg.Geometry, cfg.Layout()
	// 8 channels x 3 regions x 6 rows, minus bank-edge skips.
	if len(a.Rows) < g.Channels*3*5 {
		t.Fatalf("sweep has %d rows, want at least %d", len(a.Rows), g.Channels*3*5)
	}
	regions := map[string]bool{}
	for _, r := range a.Rows {
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
		sa, off := layout.Locate(r.PhysRow)
		if r.Subarray != sa || r.SubarrayOffset != off || r.SubarraySize != layout.Size(sa) ||
			r.LastSubarray != (sa == layout.Count()-1) {
			t.Fatalf("row %d subarray record (%d, +%d of %d, last %v), layout says (%d, +%d of %d)",
				r.PhysRow, r.Subarray, r.SubarrayOffset, r.SubarraySize, r.LastSubarray, sa, off, layout.Size(sa))
		}
		regions[r.Region] = true
	}
	for _, want := range []string{"first", "middle", "last"} {
		if !regions[want] {
			t.Errorf("region %q missing from sweep", want)
		}
	}
}

// sameAcrossParallelism runs an experiment at 1 and 8 concurrent jobs
// and requires byte-identical artifacts, records included.
func sameAcrossParallelism(t *testing.T, name string, opts Options) {
	t.Helper()
	opts.Parallel = 1
	a, err := Run(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	b, err := Run(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	samples := len(a.Rows) + len(a.Banks) + len(a.Chips) + len(a.TRR)
	for _, g := range a.Groups {
		for _, m := range g.Metrics {
			samples += m.Stream.N()
		}
	}
	if samples == 0 {
		t.Fatalf("%s artifact carries no measurements", name)
	}
	if !bytes.Equal(marshal(t, a), marshal(t, b)) {
		t.Fatalf("%s artifacts differ across worker counts", name)
	}
}

func TestSweepIndependentOfWorkerCount(t *testing.T) {
	sameAcrossParallelism(t, "sweep", Options{Cfg: config.SmallChip(), Rows: 3})
}

func TestFig6IndependentOfWorkerCount(t *testing.T) {
	sameAcrossParallelism(t, "fig6", Options{Cfg: config.SmallChip(), Rows: 3})
}

// TestEveryExperimentIndependentOfWorkerCount extends the worker-count
// pin to every registered experiment at a tiny budget, each given the
// knobs it reads.
func TestEveryExperimentIndependentOfWorkerCount(t *testing.T) {
	for _, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			sameAcrossParallelism(t, e.Name, e.Narrow(Options{
				Cfg: config.SmallChip(), Rows: 1, Hammers: 30000, Seeds: 2, Iterations: 4,
			}))
		})
	}
}

func TestSweepCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run("sweep", Options{Cfg: config.SmallChip(), Rows: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var updates []int
	_, err := Run("sweep", Options{
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
	_, err := Run("sweep", Options{
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
	_, err := Run("trrstudy", Options{
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
	h, _, _ := SweepHeadlines(smallSweep(t, 8))
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
		t.Errorf("max/min channel BER ratio = %.2f, want a clear spread (paper %s)", h.MaxOverMinWCDP, paper("fig3.channel_ratio"))
	}
	if !h.MaxSpreadPct.OK || h.MaxSpreadPct.V <= 30 {
		t.Errorf("max cross-channel spread = %+v, want substantial (paper %s)", h.MaxSpreadPct, paper("fig3.channel_spread"))
	}
	if h.MaxBER <= 0 {
		t.Error("no bitflips anywhere")
	}
}

func TestFig3RenderMentionsAllSeries(t *testing.T) {
	f3, _, _ := sweepFigs(smallSweep(t, 4))
	out := f3.Render()
	for _, want := range []string{"Rowstripe0", "Rowstripe1", "Checkered0", "Checkered1", "WCDP", "ch0", "ch7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 render missing %q", want)
		}
	}
}

func TestFig4Headlines(t *testing.T) {
	_, h, _ := SweepHeadlines(smallSweep(t, 8))
	floor := int(config.SmallChip().Fault.HCFloor)
	if h.MinHCFirst < floor {
		t.Errorf("min HCfirst %d below model floor %d", h.MinHCFirst, floor)
	}
	if h.MinHCFirst > core.DefaultHammers {
		t.Errorf("min HCfirst %d above the search ceiling", h.MinHCFirst)
	}
	// Channel 7 hammers more easily than channel 0.
	if ch7, ch0 := h.WCDPMeanHC[7], h.WCDPMeanHC[0]; !ch7.OK || !ch0.OK || ch7.V >= ch0.V {
		t.Errorf("ch7 mean WCDP HCfirst %+v not below ch0's %+v", ch7, ch0)
	}
	// Channel 0 is anti-cell rich: Rowstripe0 flips with fewer hammers.
	if rs0, rs1 := h.Ch0Rowstripe0, h.Ch0Rowstripe1; !rs0.OK || !rs1.OK || rs0.V >= rs1.V {
		t.Errorf("ch0 Rowstripe0 mean HCfirst %+v not below Rowstripe1's %+v (paper %s vs %s)",
			rs0, rs1, paper("fig4.ch0_rs0"), paper("fig4.ch0_rs1"))
	}
}

func TestFig5LastSubarrayIsWeak(t *testing.T) {
	_, _, h := SweepHeadlines(smallSweep(t, 10))
	if r := h.LastSubarrayRatio; !r.OK || r.V <= 0 || r.V >= 0.8 {
		t.Errorf("last-subarray BER ratio = %v, want clearly below 0.8 (paper %s)", r, paper("fig5.last_subarray"))
	}
	if r := h.MidOverEdge; !r.OK || r.V <= 1 {
		t.Errorf("mid/edge BER ratio = %v, want > 1 (BER peaks mid-subarray)", r)
	}
}

func TestFig5ProfileShape(t *testing.T) {
	_, _, f := sweepFigs(smallSweep(t, 5))
	xs, series := f.Profile("middle")
	if len(series) != 8 {
		t.Fatalf("%d channel series, want 8", len(series))
	}
	for _, sr := range series {
		if len(sr.Values) != len(xs) {
			t.Fatalf("series %s has %d values for %d rows", sr.Label, len(sr.Values), len(xs))
		}
	}
	out := f.Render()
	for _, want := range []string{"first", "middle", "last"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 render missing region %q", want)
		}
	}
}

// TestSweepCSVExport pins the sweep's exports: the summary CSV and JSON
// hold the region×channel distributions only, while the per-row data
// travels in the artifact.
func TestSweepCSVExport(t *testing.T) {
	a := smallSweep(t, 2)
	headers, rows, err := a.SummaryCSV(results.ByRegionChannel)
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 11 || headers[0] != "region" || headers[1] != "channel" {
		t.Fatalf("headers %v", headers)
	}
	if len(rows) < len(a.Groups) || len(rows) > 2*len(a.Groups) {
		t.Fatalf("%d CSV rows for %d groups of 2 metrics", len(rows), len(a.Groups))
	}
	js, err := a.SummaryJSON(results.ByRegionChannel)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(js, []byte(`"phys_row"`)) || bytes.Contains(js, []byte(`"rows"`)) {
		t.Error("summary JSON carries the row records")
	}
	if !bytes.Contains(marshal(t, a), []byte(`"phys_row"`)) {
		t.Error("artifact lacks the row records")
	}
}

func TestFig6BankScatter(t *testing.T) {
	a, err := Run("fig6", Options{Cfg: config.SmallChip(), Rows: 6})
	if err != nil {
		t.Fatal(err)
	}
	g := config.SmallChip().Geometry
	if len(a.Banks) != g.TotalBanks() {
		t.Fatalf("%d bank records, want %d", len(a.Banks), g.TotalBanks())
	}
	f := Fig6{Banks: a.Banks}
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
	out := Render(a)
	if !strings.Contains(out, "Fig. 6") || !strings.Contains(out, "headlines: bank mean BER") {
		t.Errorf("render:\n%s", out)
	}
}

// TestFig6ExcludesNaNCVBanks pins the small-budget Fig. 6 render: at a
// low hammer count some banks' sampled rows never flip, so they have no
// CV (zero mean). Their records carry no CV, and the scatter and the CV
// range leave them out, as the artifact's CV distribution does.
func TestFig6ExcludesNaNCVBanks(t *testing.T) {
	a, err := Run("fig6", Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 30000})
	if err != nil {
		t.Fatal(err)
	}
	silent := 0
	for _, b := range a.Banks {
		if !b.HasCV() {
			silent++
			if b.CV != 0 {
				t.Errorf("silent bank %+v carries a CV", b)
			}
		}
	}
	if silent == 0 || silent == len(a.Banks) {
		t.Fatalf("%d of %d banks never flip; the budget no longer mixes flipping and silent banks", silent, len(a.Banks))
	}
	if n := bytes.Count(marshal(t, a), []byte(`"cv"`)); n != len(a.Banks)-silent {
		t.Errorf("%d encoded CVs for %d flipping banks", n, len(a.Banks)-silent)
	}
	if out := Render(a); !strings.Contains(out, "Fig. 6") || strings.Contains(out, "NaN") {
		t.Errorf("render:\n%s", out)
	}
	h := Fig6{Banks: a.Banks}.Headlines()
	if math.IsNaN(h.CVLo) || math.IsNaN(h.CVHi) || h.CVLo <= 0 || h.CVHi < h.CVLo {
		t.Errorf("CV range [%v, %v] over the flipping banks", h.CVLo, h.CVHi)
	}
}

// TestHeadlinesWhenNothingFlips pins the no-flip headlines: at a hammer
// budget below every row's HCfirst, the figures report "none" instead of
// a sentinel minimum, the mean of an empty set or a 0/0 ratio.
func TestHeadlinesWhenNothingFlips(t *testing.T) {
	a, err := Run("sweep", Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Rows {
		if _, found := r.WCDPHCFirst(); found {
			t.Fatalf("row %d flipped at 5000 hammers; the budget no longer leaves every row intact", r.PhysRow)
		}
	}
	h3, h4, h5 := SweepHeadlines(a)
	if h3.MaxBER != 0 || h4.MinHCFirst != 0 || h4.Ch0Rowstripe0.OK || h4.Ch0Rowstripe1.OK || h5.MidOverEdge.OK {
		t.Errorf("no-flip headlines: %+v %+v %+v", h3, h4, h5)
	}
	out := Render(a)
	for _, want := range []string{"min HCfirst none", "Rowstripe0 mean HCfirst none", "Rowstripe1 mean HCfirst none",
		"mid/edge ratio none", "last-subarray BER ratio none"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	for _, bad := range []string{"NaN", "Inf", "9223372036854775807"} {
		if strings.Contains(out, bad) {
			t.Errorf("render contains %q:\n%s", bad, out)
		}
	}
}

func TestTRRStudyReproducesSection5(t *testing.T) {
	a, err := Run("trrstudy", Options{
		Cfg:  config.SmallChip(),
		Bank: addr.BankAddr{Channel: 2, PseudoChannel: 1, Bank: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if period, periodic := TRRPeriod(a); !periodic || period != 17 {
		t.Fatalf("inferred period (%d, periodic=%v), paper observes 17", period, periodic)
	}
	out := Render(a)
	for _, want := range []string{"ch2.pc1.ba1", "every 17 REFs", "timeline", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if len(a.TRR) != 1 {
		t.Fatalf("%d TRR records, want 1", len(a.TRR))
	}
	if got := len(a.TRR[0].Refreshed); got != 100 {
		t.Errorf("TRR record holds %d iterations, want 100", got)
	}
}

// TestSection5PlansRejectOutOfRangeBank pins the bank check both Section
// 5 plans make before any device is built.
func TestSection5PlansRejectOutOfRangeBank(t *testing.T) {
	for _, name := range []string{"trrstudy", "utrrprobe"} {
		for _, b := range []addr.BankAddr{{Channel: 99}, {Channel: -1}, {PseudoChannel: 2}, {Bank: 4}, {Bank: -1}} {
			_, err := Run(name, Options{Cfg: config.SmallChip(), Bank: b})
			if err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s at bank %v: err = %v, want an out of range error", name, b, err)
			}
		}
	}
}

// TestUTRRProbeShardsAtDifferentBanksRefuseToMerge pins the bank in the
// probe plan's params: shards measured in different banks are slices of
// different studies. A lone slice renders the probe it did not run as
// not measured.
func TestUTRRProbeShardsAtDifferentBanksRefuseToMerge(t *testing.T) {
	o := Options{Cfg: config.SmallChip(), ShardCount: 2}
	first, err := Run("utrrprobe", o)
	if err != nil {
		t.Fatal(err)
	}
	o.Shard, o.Bank = 1, addr.BankAddr{Channel: 1}
	second, err := Run("utrrprobe", o)
	if err != nil {
		t.Fatal(err)
	}
	if err := results.Merge(first, second); err == nil || !strings.Contains(err.Error(), "bank") {
		t.Fatalf("merge of shards at different banks: err = %v, want a bank parameter error", err)
	}
	out := Render(first)
	for _, want := range []string{"neighbor radius: +/- 1 row(s)", "sampler depth: not measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("shard 0/2 render missing %q:\n%s", want, out)
		}
	}
}
