package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// Multi-chip study: the paper's future work 1 ("repeat our experiments on
// a larger number of HBM2 chips to improve the statistical significance
// of our observations"). Every simulated chip instance is a seed; the
// study reruns the headline measurements across seeds and checks which
// observations are stable chip-to-chip.
//
// The study is built for fleet scale: per-chip row samples are folded
// into streaming accumulators (stats.Stream) at the finest aggregation
// axis — region×channel, the paper's first-order result axis being per
// channel — as each chip completes, in deterministic seed-index order, so
// resident sample memory is O(regions × channels), not O(chips × rows).
// The aggregates live in a results.Artifact, which serializes to a shard
// file: a 1000-seed scan can run as N job-slice shards on N machines and
// merge back into output byte-identical to a single-process run (the
// accumulators merge order-independently bit for bit).

// multiChipMetrics are the artifact metric names, in group order.
const (
	metricBER     = "wcdp_ber"
	metricHCFirst = "wcdp_hc_first"
)

// newFineGroups allocates empty region×channel accumulators for a chip
// design. The quantile domains are declared up front — BER is a fraction,
// HCfirst is bounded by the search ceiling — which is what keeps shard
// merging order-independent.
func newFineGroups(cfg *config.Config) []results.Group {
	regions := core.Regions(cfg.Geometry.Rows)
	out := make([]results.Group, 0, len(regions)*cfg.Geometry.Channels)
	for _, r := range regions {
		for ch := 0; ch < cfg.Geometry.Channels; ch++ {
			out = append(out, results.Group{
				Key: results.Key{Region: r.Name, Channel: ch},
				Metrics: []results.Metric{
					{Name: metricBER, Stream: stats.NewStream(0, 1)},
					{Name: metricHCFirst, Stream: stats.NewStream(0, float64(core.DefaultHammers))},
				},
			})
		}
	}
	return out
}

// foldSweepRows streams a sweep's per-row WCDP metrics into fine-axis
// groups allocated by newFineGroups for the same design. Rows that never
// flip are excluded from HCfirst, as in Fig. 4.
func foldSweepRows(cfg *config.Config, groups []results.Group, rows []results.RowRecord) {
	channels := cfg.Geometry.Channels
	regionIdx := make(map[string]int, 3)
	for i, r := range core.Regions(cfg.Geometry.Rows) {
		regionIdx[r.Name] = i
	}
	for i := range rows {
		r := &rows[i]
		g := &groups[regionIdx[r.Region]*channels+r.Channel]
		g.Metrics[0].Stream.Add(r.WCDPBER())
		if hc, found := r.WCDPHCFirst(); found {
			g.Metrics[1].Stream.Add(float64(hc))
		}
	}
}

// chipResult is one finished chip: its headline summary plus its WCDP
// row records, which the fold streams into the study's fine-axis
// accumulators and then drops.
type chipResult struct {
	sum  results.ChipRecord
	rows []results.RowRecord
}

// multiChipPlan decomposes a fleet scan over an explicit seed list: one
// job per chip instance of cfg (measureChip), folded in seed-index order
// into the region×channel artifact. It reads Rows (default 8 per
// region), Hammers and Iterations from o, pinned in Params, and Workers,
// which bounds how many of a chip's per-channel WCDP jobs run at once.
// The fold runs in strict seed-index order, so the artifact is
// byte-identical at any parallelism — and, because the accumulators
// merge exactly, also between a single run over all seeds and a merge of
// contiguous job-slice shards (results.ShardRange), each keyed by its
// chips' seeds.
func multiChipPlan(cfg *config.Config, seeds []uint64, o Options) *Plan {
	rows := orDefault(o.Rows, 8)
	hammers := orDefault(o.Hammers, core.DefaultHammers)
	iterations := orDefault(o.Iterations, defaultIterations)
	jobs := make([]Job, len(seeds))
	for i, seed := range seeds {
		jobs[i] = Job{
			Key: fmt.Sprintf("seed:%#x", seed),
			Run: func(ctx context.Context, _ *core.Harness) (any, error) {
				return measureChip(ctx, cfg, seed, rows, hammers, iterations, o.Workers)
			},
		}
	}
	return &Plan{
		Axis: results.AxisSeed,
		Cfg:  cfg,
		Jobs: jobs,
		Params: map[string]string{
			"rows_per_region": strconv.Itoa(rows),
			"hammers":         strconv.Itoa(hammers),
			"iterations":      strconv.Itoa(iterations),
		},
		NewFold: func(lo, hi int) *Fold {
			a := &results.Artifact{
				Meta:   results.Meta{GroupBy: results.ByRegionChannel.String()},
				Groups: newFineGroups(cfg),
			}
			return &Fold{
				Add: func(_ int, payload any) error {
					r := payload.(chipResult)
					a.Chips = append(a.Chips, r.sum)
					foldSweepRows(cfg, a.Groups, r.rows)
					return nil
				},
				Finish: func() (*results.Artifact, error) { return a, nil },
			}
		},
	}
}

// maxSeeds caps multichip's Options.Seeds. Planning allocates a seed
// and a job per chip before any job runs, so a larger count is refused
// there rather than paid for in memory.
const maxSeeds = 1 << 20

// multiChipExperiment registers the fleet scan: Options.Seeds chips
// (default 3, at most maxSeeds) starting at the chip's own seed, on the
// seed axis, sliced by -shard into contiguous job slices of seeds.
func multiChipExperiment() *Experiment {
	return &Experiment{
		Name:  "multichip",
		Reads: []string{"Rows", "Hammers", "Seeds", "Iterations", "Workers"},
		Title: "fleet chip-to-chip scan: headline numbers + region×channel aggregates per seed",
		Plan: func(o Options) (*Plan, error) {
			cfg, err := resolveChip(o)
			if err != nil {
				return nil, err
			}
			if err := checkRowsPerRegion(cfg.Geometry, orDefault(o.Rows, 8)); err != nil {
				return nil, err
			}
			n := orDefault(o.Seeds, 3)
			if n > maxSeeds {
				return nil, fmt.Errorf("Seeds %d: too large, at most %d chips per scan", n, maxSeeds)
			}
			seeds := make([]uint64, n)
			for i := range seeds {
				seeds[i] = cfg.Seed + uint64(i)
			}
			return multiChipPlan(cfg, seeds, o), nil
		},
		Render: renderMultichip,
	}
}

// measureChip runs one seed's headline measurements and condenses them
// into the chip's summary. The row scan is one harness job per channel
// (wcdpChannel: the worst-case pattern's BER and HCfirst of rows per
// region, searched up to the hammer ceiling), its rows gathered in
// channel order and its headlines drawn by Fig3 and Fig4; the Section 5
// U-TRR run at the iteration count gives the chip's TRR period. workers
// bounds the row scan's parallelism.
func measureChip(ctx context.Context, base *config.Config, seed uint64, rows, hammers, iterations, workers int) (chipResult, error) {
	cfg := *base
	cfg.Seed = seed
	// Each seed is its own pool key; release its warmed devices once the
	// chip is summarized, or a long seed scan keeps every instance's
	// devices resident.
	defer engine.SharedPool.DrainConfig(&cfg)
	channels := cfg.Geometry.Channels
	var scan []results.RowRecord
	err := engine.ReduceHarness(engine.Options{Ctx: ctx, Workers: workers}, &cfg, channels,
		func(_ context.Context, h *core.Harness, ch int) ([]results.RowRecord, error) {
			rs, err := wcdpChannel(h, cfg.Geometry, rows, hammers, ch)
			if err != nil {
				return nil, fmt.Errorf("channel %d: %w", ch, err)
			}
			return rs, nil
		},
		func(_ int, rs []results.RowRecord) error {
			scan = append(scan, rs...)
			return nil
		})
	if err != nil {
		return chipResult{}, fmt.Errorf("experiments: chip %#x: %w", seed, err)
	}
	h3 := Fig3{Rows: scan, Channels: channels}.Headlines()
	h4 := Fig4{Rows: scan, Channels: channels}.Headlines()
	worst := 0
	for ch, ber := range h3.WCDPMeanBER {
		if ber > h3.WCDPMeanBER[worst] {
			worst = ch
		}
	}
	e, err := section5Experiment(ctx, &cfg)
	if err != nil {
		return chipResult{}, fmt.Errorf("experiments: chip %#x: %w", seed, err)
	}
	e.Iterations = iterations
	trr, err := e.Run(addr.BankAddr{}, section5StartRow(&cfg))
	if err != nil {
		return chipResult{}, fmt.Errorf("experiments: chip %#x: %w", seed, err)
	}
	period, _ := trr.InferPeriod()
	return chipResult{
		sum: results.ChipRecord{
			Seed:         seed,
			MinHCFirst:   h4.MinHCFirst,
			WCDPRatio:    h3.MaxOverMinWCDP,
			WorstChannel: worst,
			TRRPeriod:    period,
		},
		rows: scan,
	}, nil
}

// wcdpChannel measures the worst-case data pattern of one channel's
// sampled victim rows (sampleVictims) in one WCDPBatch. Its records hold
// only that pattern's BER, HCfirst and found flag, at index 0 (WCDP 0),
// which is all foldSweepRows and the multichip headlines read: the same
// values, in the same order, as the sweep's records of the same rows.
func wcdpChannel(h *core.Harness, g addr.Geometry, rowsPerRegion, hammers, ch int) ([]results.RowRecord, error) {
	victims, regions := sampleVictims(g, rowsPerRegion)
	ws, err := h.WCDPBatch(addr.BankAddr{Channel: ch}, victims, hammers)
	if err != nil {
		return nil, err
	}
	out := make([]results.RowRecord, len(ws))
	bers, hcs, founds := make([]float64, len(ws)), make([]int, len(ws)), make([]bool, len(ws))
	for i, w := range ws {
		bers[i], hcs[i], founds[i] = w.BER, w.HCFirst, w.Found
		out[i] = results.RowRecord{
			Channel: ch,
			PhysRow: victims[i],
			Region:  regions[i],
			BER:     bers[i : i+1 : i+1],
			HCFirst: hcs[i : i+1 : i+1],
			Found:   founds[i : i+1 : i+1],
		}
	}
	return out, nil
}

// metricLabel maps artifact metric names to report labels.
func metricLabel(name string) string {
	switch name {
	case metricBER:
		return "BER%"
	case metricHCFirst:
		return "HCfirst"
	}
	return name
}

// metricScale maps artifact metric names to display scale factors (BER
// fraction to percent).
func metricScale(name string) float64 {
	if name == metricBER {
		return 100
	}
	return 1
}

// chipHCFirst is a chip's min HCfirst, undefined when no sampled row
// flipped under the hammer ceiling (the record holds 0 then).
func chipHCFirst(c results.ChipRecord) Value {
	return Value{V: float64(c.MinHCFirst), OK: c.MinHCFirst > 0}
}

// chipWorstDefined reports whether a chip's worst channel was measured.
// Its record holds a BER ratio of 0 when some channel never flipped, and
// then cannot tell a measured worst channel from measureChip's fallback
// to channel 0, so neither the ratio nor the channel is defined.
func chipWorstDefined(c results.ChipRecord) bool { return c.WCDPRatio > 0 }

// renderMultichip is the multichip entry's registry render: the
// chip-to-chip comparison, the fleet aggregates by region, and the
// stability epilogue. Undefined headlines read "none".
func renderMultichip(a *results.Artifact) string {
	var sb strings.Builder
	sb.WriteString("Extension: chip-to-chip variation (future work 1)\n")
	sb.WriteString("chip seed     min HCfirst  BER ratio  worst ch  TRR period\n")
	for _, c := range a.Chips {
		ratio, worst := "none", "none"
		if chipWorstDefined(c) {
			ratio, worst = fmt.Sprintf("%.2fx", c.WCDPRatio), fmt.Sprint(c.WorstChannel)
		}
		fmt.Fprintf(&sb, "%#-12x  %11s  %9s  %8s  %10d\n",
			c.Seed, chipHCFirst(c).Format("%.0f"), ratio, worst, c.TRRPeriod)
	}
	if len(a.Chips) > 1 {
		mins := stats.NewStream(0, float64(core.DefaultHammers))
		for _, c := range a.Chips {
			if hc := chipHCFirst(c); hc.OK {
				mins.Add(hc.V)
			}
		}
		if mins.N() == 0 {
			sb.WriteString("min HCfirst across chips: none\n")
		} else {
			fmt.Fprintf(&sb, "min HCfirst across chips: %.0f .. %.0f (mean %.0f)\n",
				mins.Min(), mins.Max(), mins.Mean())
		}
	}
	fmt.Fprintf(&sb, "\nfleet aggregate: per-row WCDP metrics streamed across all chips, by %s\n",
		results.ByRegion)
	if groups, err := a.View(results.ByRegion); err != nil {
		fmt.Fprintf(&sb, "(aggregates unavailable: %v)\n", err)
	} else {
		sb.WriteString(results.RenderGroups(groups, metricLabel, metricScale))
	}
	worstStable, trrStable := stableObservations(a.Chips)
	fmt.Fprintf(&sb, "\nstable across chips: worst channel = %v, TRR period = %v\n", worstStable, trrStable)
	sb.WriteString("(design-level structure persists; exact cell-level numbers are per-chip)\n")
	return sb.String()
}

// stableObservations reports which of the paper's key observations hold
// on every tested chip: the design-level ones (channel grouping, TRR
// period) should; exact cell-level numbers should not. The worst channel
// is compared across the chips that define one (see chipWorstDefined),
// and is not stable when fewer than two do.
func stableObservations(chips []results.ChipRecord) (worstChannelStable, trrPeriodStable bool) {
	if len(chips) == 0 {
		return false, false
	}
	trrPeriodStable = true
	for _, c := range chips[1:] {
		if c.TRRPeriod != chips[0].TRRPeriod {
			trrPeriodStable = false
		}
	}
	var defined []results.ChipRecord
	for _, c := range chips {
		if chipWorstDefined(c) {
			defined = append(defined, c)
		}
	}
	worstChannelStable = len(defined) >= 2
	for _, c := range defined {
		if c.WorstChannel != defined[0].WorstChannel {
			worstChannelStable = false
		}
	}
	return worstChannelStable, trrPeriodStable
}
