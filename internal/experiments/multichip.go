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
// file: a 1000-seed scan can run as N seed-range shards on N machines and
// merge back into output byte-identical to a single-process run (the
// accumulators merge order-independently bit for bit).

// MultiChipOptions configures the study.
type MultiChipOptions struct {
	// Base is the chip design; each seed instantiates one chip of it.
	// nil means config.PaperChip().
	Base *config.Config
	// Seeds are the chip instances to test. Shard artifacts record the
	// range [Seeds[0], Seeds[0]+len(Seeds)) and merge only contiguously,
	// so fleet shards must slice one ascending seed run (results.ShardRange).
	Seeds []uint64
	// RowsPerRegion is the sweep sampling density per chip.
	RowsPerRegion int
	// Workers bounds per-chip sweep parallelism.
	Workers int
}

// ChipSummary is one chip's headline numbers, carried through shard
// artifacts as a results.ChipRecord.
type ChipSummary = results.ChipRecord

// MultiChipStudy is the renderable view of a multichip artifact: the
// per-chip summaries plus the fleet-level distributions.
type MultiChipStudy struct {
	// Chips holds one fixed-size summary per seed (no sample slices).
	Chips []ChipSummary
	// Artifact carries the provenance metadata and the region×channel
	// streaming aggregates.
	Artifact *results.Artifact
	// GroupBy selects the axis of the rendered aggregates.
	GroupBy results.GroupBy
}

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

// chipResult is one finished chip: its headline summary plus its fine-axis
// accumulators, ready to merge into the study's artifact and discard.
type chipResult struct {
	sum    ChipSummary
	groups []results.Group
}

// multiChipPlan decomposes a fleet scan over an explicit seed list: one
// job per chip instance, folded in seed-index order into the
// region×channel artifact. The fold runs in strict seed-index order, so
// the artifact is byte-identical at any parallelism — and, because the
// accumulators merge exactly, also between a single run over all seeds
// and a merge of contiguous seed-range shards.
func multiChipPlan(o MultiChipOptions) *Plan {
	jobs := make([]Job, len(o.Seeds))
	for i, seed := range o.Seeds {
		seed := seed
		jobs[i] = Job{
			Key: fmt.Sprintf("seed:%#x", seed),
			Run: func(ctx context.Context, _ *core.Harness) (any, error) {
				return measureChip(ctx, o, seed)
			},
		}
	}
	return &Plan{
		Axis: results.AxisSeed,
		Cfg:  o.Base,
		Jobs: jobs,
		Params: map[string]string{
			"rows_per_region": strconv.Itoa(o.RowsPerRegion),
		},
		NewFold: func(lo, hi int) *Fold {
			a := &results.Artifact{
				Meta: results.Meta{
					GroupBy:   results.ByRegionChannel.String(),
					SeedFirst: o.Seeds[lo],
					SeedCount: hi - lo,
				},
				Groups: newFineGroups(o.Base),
			}
			return &Fold{
				Add: func(_ int, payload any) error {
					r := payload.(chipResult)
					a.Chips = append(a.Chips, r.sum)
					results.MergeGroups(a.Groups, r.groups)
					return nil
				},
				Finish: func() (*results.Artifact, error) { return a, nil },
			}
		},
	}
}

// multiChipExperiment registers the fleet scan: the seed axis, sliced by
// -shard into contiguous seed ranges.
func multiChipExperiment() *Experiment {
	return &Experiment{
		Name:  "multichip",
		Title: "fleet chip-to-chip scan: headline numbers + region×channel aggregates per seed",
		Plan: func(o Options) (*Plan, error) {
			mo := MultiChipOptions{
				Base:          o.Cfg,
				RowsPerRegion: o.Rows,
				Workers:       o.Workers,
			}
			mo.setDefaults()
			count := o.Seeds
			if count > 0 {
				mo.Seeds = make([]uint64, count)
				for i := range mo.Seeds {
					mo.Seeds[i] = mo.Base.Seed + uint64(i)
				}
			}
			return multiChipPlan(mo), nil
		},
		Render: func(a *results.Artifact) string {
			return StudyFromArtifact(a, results.ByRegion).Report()
		},
	}
}

// setDefaults resolves the option defaults of the registry entry.
func (o *MultiChipOptions) setDefaults() {
	if o.Base == nil {
		o.Base = config.PaperChip()
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2, 3}
	}
	if o.RowsPerRegion <= 0 {
		o.RowsPerRegion = 8
	}
}

// StudyFromArtifact reconstructs a renderable study from a complete (e.g.
// merged) multichip artifact; gb selects the render axis.
func StudyFromArtifact(a *results.Artifact, gb results.GroupBy) *MultiChipStudy {
	return &MultiChipStudy{Chips: a.Chips, Artifact: a, GroupBy: gb}
}

// measureChip runs one seed's headline measurements: the sweep plan,
// whose fold gives the chip's fine-axis accumulators, condensed into the
// chip's summary; the sweep's row records are dropped when this returns.
func measureChip(ctx context.Context, o MultiChipOptions, seed uint64) (chipResult, error) {
	cfg := *o.Base
	cfg.Seed = seed
	// Each seed is its own pool key; release its warmed devices once the
	// chip is summarized, or a long seed scan keeps every instance's
	// devices resident.
	defer engine.SharedPool.DrainConfig(&cfg)
	p, err := registry["sweep"].Plan(Options{Cfg: &cfg, Rows: o.RowsPerRegion})
	if err != nil {
		return chipResult{}, fmt.Errorf("experiments: chip %#x: %w", seed, err)
	}
	sweep, err := executePlan(p, Options{Parallel: o.Workers, Ctx: ctx}, 0, len(p.Jobs))
	if err != nil {
		return chipResult{}, fmt.Errorf("experiments: chip %#x: %w", seed, err)
	}
	h3, h4, _ := SweepHeadlines(sweep)
	worst := 0
	for ch, ber := range h3.WCDPMeanBER {
		if ber > h3.WCDPMeanBER[worst] {
			worst = ch
		}
	}
	trr, err := RunTRRStudy(TRRStudyOptions{
		Cfg:  &cfg,
		Bank: addr.BankAddr{Channel: 0, PseudoChannel: 0, Bank: 0},
		Ctx:  ctx,
	})
	if err != nil {
		return chipResult{}, fmt.Errorf("experiments: chip %#x: %w", seed, err)
	}
	return chipResult{
		sum: ChipSummary{
			Seed:         seed,
			MinHCFirst:   h4.MinHCFirst,
			WCDPRatio:    h3.MaxOverMinWCDP,
			WorstChannel: worst,
			TRRPeriod:    trr.Period,
		},
		groups: sweep.Groups,
	}, nil
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

// Render prints the chip-to-chip comparison and the fleet aggregates at
// the configured axis.
func (s *MultiChipStudy) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: chip-to-chip variation (future work 1)\n")
	sb.WriteString("chip seed     min HCfirst  BER ratio  worst ch  TRR period\n")
	for _, c := range s.Chips {
		fmt.Fprintf(&sb, "%#-12x  %11d  %8.2fx  %8d  %10d\n",
			c.Seed, c.MinHCFirst, c.WCDPRatio, c.WorstChannel, c.TRRPeriod)
	}
	if len(s.Chips) > 1 {
		mins := stats.NewStream(0, float64(core.DefaultHammers))
		for _, c := range s.Chips {
			mins.Add(float64(c.MinHCFirst))
		}
		fmt.Fprintf(&sb, "min HCfirst across chips: %.0f .. %.0f (mean %.0f)\n",
			mins.Min(), mins.Max(), mins.Mean())
	}
	fmt.Fprintf(&sb, "\nfleet aggregate: per-row WCDP metrics streamed across all chips, by %s\n",
		s.GroupBy)
	groups, err := s.Artifact.View(s.GroupBy)
	if err != nil {
		fmt.Fprintf(&sb, "(aggregates unavailable: %v)\n", err)
		return sb.String()
	}
	sb.WriteString(results.RenderGroups(groups, metricLabel, metricScale))
	return sb.String()
}

// Report renders the full study report: the chip-to-chip comparison, the
// fleet aggregates, and the stability epilogue. It is the multichip
// entry's registry render.
func (s *MultiChipStudy) Report() string {
	var sb strings.Builder
	sb.WriteString(s.Render())
	worstStable, trrStable := s.StableObservations()
	fmt.Fprintf(&sb, "\nstable across chips: worst channel = %v, TRR period = %v\n", worstStable, trrStable)
	sb.WriteString("(design-level structure persists; exact cell-level numbers are per-chip)\n")
	return sb.String()
}

// StableObservations reports which of the paper's key observations hold
// on every tested chip: the design-level ones (channel grouping, TRR
// period) should; exact cell-level numbers should not.
func (s *MultiChipStudy) StableObservations() (worstChannelStable, trrPeriodStable bool) {
	if len(s.Chips) == 0 {
		return false, false
	}
	worstChannelStable, trrPeriodStable = true, true
	for _, c := range s.Chips[1:] {
		if c.WorstChannel != s.Chips[0].WorstChannel {
			worstChannelStable = false
		}
		if c.TRRPeriod != s.Chips[0].TRRPeriod {
			trrPeriodStable = false
		}
	}
	return worstChannelStable, trrPeriodStable
}
