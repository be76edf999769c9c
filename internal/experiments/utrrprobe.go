package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/results"
)

// The U-TRR probe study: the trrstudy's deeper follow-up to Section 5
// (the paper's "we intend to uncover more details of the proprietary TRR
// mechanism"). Two probes on fresh devices in Options.Bank: how far
// around a sampled aggressor the victim refresh reaches (neighbor
// radius), and how many distinct aggressors the per-bank sampler tracks
// between REFs (sampler depth).

// The probes' search bounds: rows on each side of the aggressor, and
// aggressors per REF interval.
const (
	probeMaxDistance = 3
	probeMaxSlots    = 3
)

// utrrProbeExperiment lifts the probe study onto the registry: two point
// jobs (radius, slots), each on its own fresh device, so they run as
// parallel engine jobs.
func utrrProbeExperiment() *Experiment {
	return &Experiment{
		Name:  "utrrprobe",
		Title: "U-TRR probe: TRR victim-refresh radius and sampler depth",
		Plan: func(o Options) (*Plan, error) {
			cfg, err := resolveChip(o)
			if err != nil {
				return nil, err
			}
			bank, start := o.Bank, section5StartRow(cfg)
			if err := checkBank(cfg, bank); err != nil {
				return nil, err
			}
			jobs := []Job{
				{
					Key: "radius",
					Run: func(ctx context.Context, _ *core.Harness) (any, error) {
						e, err := section5Experiment(ctx, cfg)
						if err != nil {
							return nil, err
						}
						return e.InferNeighborRadius(bank, start, probeMaxDistance)
					},
				},
				{
					Key: "slots",
					Run: func(ctx context.Context, _ *core.Harness) (any, error) {
						e, err := section5Experiment(ctx, cfg)
						if err != nil {
							return nil, err
						}
						return e.InferSamplerSlots(bank, start, probeMaxSlots)
					},
				},
			}
			return &Plan{
				Axis: "point",
				Cfg:  cfg,
				Jobs: jobs,
				Params: map[string]string{
					"bank":         bank.String(),
					"max_distance": strconv.Itoa(probeMaxDistance),
					"max_slots":    strconv.Itoa(probeMaxSlots),
				},
				NewFold: pointFold(jobs, "rows", 0, float64(max(probeMaxDistance, probeMaxSlots)+1)),
			}, nil
		},
		Render: renderUTRRProbe,
	}
}

// renderUTRRProbe is the utrrprobe entry's registry render: the two
// probe results, each read from its point group. A shard slice reports
// the probe it did not run as not measured.
func renderUTRRProbe(a *results.Artifact) string {
	value := func(point string) (int, bool) {
		for _, g := range a.Groups {
			if g.Key.Point == point && len(g.Metrics) > 0 && g.Metrics[0].Stream.N() > 0 {
				return int(g.Metrics[0].Stream.Min()), true
			}
		}
		return 0, false
	}
	var sb strings.Builder
	sb.WriteString(renderHeader(a))
	sb.WriteString("Extension: probing the uncovered TRR mechanism (Section 5 future work)\n")
	if v, ok := value("radius"); ok {
		fmt.Fprintf(&sb, "victim-refresh neighbor radius: +/- %d row(s) around a sampled aggressor\n", v)
	} else {
		sb.WriteString("victim-refresh neighbor radius: not measured\n")
	}
	if v, ok := value("slots"); ok {
		fmt.Fprintf(&sb, "sampler depth: %d distinct aggressor(s) tracked between REFs\n", v)
	} else {
		sb.WriteString("sampler depth: not measured\n")
	}
	return sb.String()
}
