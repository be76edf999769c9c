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
	"github.com/safari-repro/hbmrh/internal/hbm"
	"github.com/safari-repro/hbmrh/internal/utrr"
)

// The U-TRR probe study: utrr-discover's deeper follow-up to Section 5
// (the paper's "we intend to uncover more details of the proprietary TRR
// mechanism"). Two probes on fresh devices: how far around a sampled
// aggressor the victim refresh reaches (neighbor radius), and how many
// distinct aggressors the per-bank sampler tracks between REFs (sampler
// depth).

// UTRRProbeOptions configures the probe study.
type UTRRProbeOptions struct {
	// Cfg is the device configuration; nil means config.PaperChip().
	Cfg *config.Config
	// Bank selects where the probes run.
	Bank addr.BankAddr
	// MaxDistance bounds the neighbor-radius search (default 3).
	MaxDistance int
	// MaxSlots bounds the sampler-depth search (default 3).
	MaxSlots int
	// StartRow is where the retention scans begin; <= 0 picks a range the
	// periodic-refresh pointer does not sweep.
	StartRow int
	// Ctx cancels the study between its two probes.
	Ctx context.Context
	// Progress, if non-nil, receives an update per finished probe.
	Progress engine.ProgressFunc
}

func (o *UTRRProbeOptions) setDefaults() {
	if o.Cfg == nil {
		o.Cfg = config.PaperChip()
	}
	if o.MaxDistance <= 0 {
		o.MaxDistance = 3
	}
	if o.MaxSlots <= 0 {
		o.MaxSlots = 3
	}
	if o.StartRow <= 0 {
		o.StartRow = o.Cfg.Geometry.Rows / 4
	}
}

// UTRRProbeStudy is the outcome of the probe study.
type UTRRProbeStudy struct {
	Opts UTRRProbeOptions
	// NeighborRadius is how many rows on each side of a sampled aggressor
	// the mitigation refreshes (0 = no fire observed).
	NeighborRadius int
	// SamplerSlots is how many distinct aggressors the sampler tracks
	// between REFs.
	SamplerSlots int
}

// utrrProbeArm runs one probe on a fresh device with ECC disabled (the
// Section 3.1 setup, so raw retention decay is visible).
func utrrProbeArm(o UTRRProbeOptions, radius bool) (int, error) {
	d, err := hbm.New(o.Cfg)
	if err != nil {
		return 0, err
	}
	for ch := 0; ch < o.Cfg.Geometry.Channels; ch++ {
		if err := d.WriteModeRegister(ch, hbm.MRECC, 0); err != nil {
			return 0, err
		}
	}
	e := utrr.New(d)
	if radius {
		return e.InferNeighborRadius(o.Bank, o.StartRow, o.MaxDistance)
	}
	return e.InferSamplerSlots(o.Bank, o.StartRow, o.MaxSlots)
}

// RunUTRRProbe runs the registry's utrrprobe plan at o's bank and search
// bounds; the two probes use independent fresh devices, so they run as
// parallel engine jobs.
func RunUTRRProbe(o UTRRProbeOptions) (*UTRRProbeStudy, error) {
	o.setDefaults()
	p := utrrProbePlan(o)
	var vals [2]int
	err := runJobs(p, Options{Ctx: o.Ctx, Progress: o.Progress}, 0, len(p.Jobs),
		func(i int, payload any) error { vals[i] = payload.(int); return nil })
	if err != nil {
		return nil, err
	}
	return &UTRRProbeStudy{Opts: o, NeighborRadius: vals[0], SamplerSlots: vals[1]}, nil
}

// Render summarizes the probes.
func (s *UTRRProbeStudy) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: probing the uncovered TRR mechanism (Section 5 future work)\n")
	fmt.Fprintf(&sb, "victim-refresh neighbor radius: +/- %d row(s) around a sampled aggressor\n",
		s.NeighborRadius)
	fmt.Fprintf(&sb, "sampler depth: %d distinct aggressor(s) tracked between REFs\n", s.SamplerSlots)
	return sb.String()
}

// utrrProbePlan is the probe study as a plan: two point jobs (radius,
// slots) on fresh devices. o must have its defaults set.
func utrrProbePlan(o UTRRProbeOptions) *Plan {
	jobs := []Job{
		{
			Key: "radius",
			Run: func(context.Context, *core.Harness) (any, error) { return utrrProbeArm(o, true) },
		},
		{
			Key: "slots",
			Run: func(context.Context, *core.Harness) (any, error) { return utrrProbeArm(o, false) },
		},
	}
	bound := max(o.MaxDistance, o.MaxSlots)
	return &Plan{
		Axis: "point",
		Cfg:  o.Cfg,
		Jobs: jobs,
		Params: map[string]string{
			"max_distance": strconv.Itoa(o.MaxDistance),
			"max_slots":    strconv.Itoa(o.MaxSlots),
		},
		NewFold: pointFold(jobs, "rows", 0, float64(bound+1)),
	}
}

// utrrProbeExperiment lifts the probe study onto the registry at bank 0
// and the default search bounds.
func utrrProbeExperiment() *Experiment {
	return &Experiment{
		Name:  "utrrprobe",
		Title: "U-TRR probe: TRR victim-refresh radius and sampler depth",
		Plan: func(o Options) (*Plan, error) {
			po := UTRRProbeOptions{Cfg: o.Cfg}
			po.setDefaults()
			if err := po.Cfg.Validate(); err != nil {
				return nil, err
			}
			return utrrProbePlan(po), nil
		},
	}
}
