package experiments

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// The experiment registry: every study in the repo — the paper's figures,
// the fleet scan, the Section 5/6 extensions — registers here as a named
// Experiment that decomposes into a Plan of indexed jobs plus a
// deterministic fold into a results.Artifact. Planning is a pure function
// of the options, identical in every process, so one contract gives every
// study the fleet features the multichip scan pioneered: -shard i/N job
// slicing, serialized artifacts with conflict-checked merges, shared
// CSV/JSON export, progress and cancellation, and a pluggable scheduler
// (engine.Planner) — all without per-driver plumbing.

// Options is the uniform knob set of a registry run. Each experiment reads
// the knobs it declares (Experiment.Reads); zero values select defaults.
type Options struct {
	// Cfg is the chip design; nil means config.PaperChip().
	Cfg *config.Config
	// Rows is the experiment's sampling density: rows per region for the
	// spatial sweeps, rows per bank region for fig6, victim rows per
	// point for the extension studies.
	Rows int
	// Hammers is the hammer budget / HCfirst search ceiling.
	Hammers int
	// Seeds is the chip-instance count for fleet experiments (multichip):
	// Seeds chips starting at Cfg.Seed, 3 when zero.
	Seeds int
	// Iterations is the U-TRR iteration count for the TRR studies
	// (trrstudy, and the per-chip TRR period of multichip).
	Iterations int
	// Bank is where the Section 5 studies (trrstudy, utrrprobe) profile
	// their rows; it must lie inside the chip.
	Bank addr.BankAddr
	// Workers bounds per-job device parallelism (e.g. the per-channel
	// jobs inside one multichip chip job).
	Workers int
	// Parallel bounds how many plan jobs run at once; 0 means one per
	// CPU.
	Parallel int
	// Planner selects the job-to-worker assignment strategy; planner
	// choice never changes the artifact, only the schedule.
	Planner engine.Planner
	// Shard/ShardCount select one contiguous slice of the plan's job list
	// (results.ShardRange). Zero values mean the whole plan. All N shard
	// artifacts merge back into output byte-identical to an unsharded
	// run.
	Shard, ShardCount int
	// Ctx cancels the run down to per-measurement granularity.
	Ctx context.Context
	// Progress, if non-nil, receives an update per finished job.
	Progress engine.ProgressFunc
}

// resolveChip checks the options and resolves the chip every plan runs
// on: Options.Cfg, or config.PaperChip() when nil, validated before any
// job is built. Every plan calls it first, so it is the one place a
// negative knob is refused: 0 selects a default, and a negative value is
// a typo, not a request for one.
func resolveChip(o Options) (*config.Config, error) {
	for _, k := range []string{"Rows", "Hammers", "Seeds", "Iterations", "Parallel", "Workers"} {
		if v := knob(&o, k).Int(); v < 0 {
			return nil, fmt.Errorf("%s %d: must be >= 0 (0 selects the default)", k, v)
		}
	}
	cfg := o.Cfg
	if cfg == nil {
		cfg = config.PaperChip()
	}
	return cfg, cfg.Validate()
}

// orDefault resolves a budget knob: values <= 0 select the experiment's
// default.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// Job is one schedulable unit of an experiment plan. Its payload must be
// a pure function of the job itself (the chip config, its key and the
// plan options), never of scheduling, which is what keeps artifacts
// byte-identical across worker counts, planners and shard splits.
type Job struct {
	// Key names the job's coordinate on the plan axis ("seed 0x2",
	// "ch3", "t=65C"). Keys are unique within a plan and recorded in the
	// artifact for merge conflict checking.
	Key string
	// Weight is the planner's relative cost estimate; <= 0 means 1.
	Weight float64
	// Run measures the job. h is a pool-leased warmed harness when the
	// plan declares Harness, nil otherwise (studies that need fresh or
	// specially-prepared devices build their own).
	Run func(ctx context.Context, h *core.Harness) (any, error)
}

// Fold accumulates job payloads into an artifact. Add is called once per
// job of the planned slice in strict job-index order; Finish seals the
// artifact. Folds populate Groups/Chips and the seed range; the run
// stamps the rest of the provenance.
type Fold struct {
	Add    func(i int, payload any) error
	Finish func() (*results.Artifact, error)
}

// Plan is an experiment decomposed for one option set: the full job list
// (identical in every process for the same options — shards slice it by
// index) plus the fold constructor.
type Plan struct {
	// Axis names the planning axis: results.AxisSeed for fleet scans,
	// else the unit a shard slices ("channel", "bank", "point").
	Axis string
	// Cfg is the resolved chip config (never nil).
	Cfg *config.Config
	// Harness, when set, hands every job a warmed pool harness.
	Harness bool
	// Jobs is the full, shard-invariant job list.
	Jobs []Job
	// Params pins the option values that must match for two shard
	// artifacts to merge.
	Params map[string]string
	// NewFold returns the fold for the job slice [lo, hi). Folds must
	// allocate the artifact's full group set regardless of the slice —
	// unmeasured groups stay empty — so that stream-merging shard
	// artifacts reproduces the single-process artifact exactly.
	NewFold func(lo, hi int) *Fold
}

// Experiment is one registered study.
type Experiment struct {
	// Name is the registry key and the artifact's Meta.Tool.
	Name string
	// Title is the one-line human description shown by `characterize
	// -experiment list`.
	Title string
	// Plan decomposes a run for one option set.
	Plan func(o Options) (*Plan, error)
	// Reads names the knobs (see knobs) Plan reads; planning refuses a
	// non-zero one it does not read, which would otherwise say nothing.
	Reads []string
	// Render renders a complete (unsharded or merged) artifact as the
	// experiment's report; nil means the generic distribution render.
	Render func(a *results.Artifact) string
}

var registry = map[string]*Experiment{}

// knobs are the Options fields an experiment declares reading
// (Experiment.Reads).
var knobs = []string{"Rows", "Hammers", "Seeds", "Iterations", "Workers", "Bank"}

// knob is the Options field of o that the knob name names.
func knob(o *Options, name string) reflect.Value { return reflect.ValueOf(o).Elem().FieldByName(name) }

// register adds an experiment at init time; duplicate names are a
// programming error.
func register(e *Experiment) {
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration of %q", e.Name))
	}
	registry[e.Name] = e
}

// Narrow returns o with every knob e does not read zeroed: the options a
// suite hands each of its studies.
func (e *Experiment) Narrow(o Options) Options {
	for _, k := range knobs {
		if !slices.Contains(e.Reads, k) {
			knob(&o, k).SetZero()
		}
	}
	return o
}

// CheckReads refuses a non-zero knob of o that is not among reads, the
// knobs of the study named who, naming the experiments that read it.
func CheckReads(o Options, who string, reads []string) error {
	for _, k := range knobs {
		if v := knob(&o, k); !v.IsZero() && !slices.Contains(reads, k) {
			var readers []string
			for _, e := range All() {
				if slices.Contains(e.Reads, k) {
					readers = append(readers, e.Name)
				}
			}
			return fmt.Errorf("%s %v: %s does not read it (read by %s)", k, v.Interface(), who, strings.Join(readers, ", "))
		}
	}
	return nil
}

func init() {
	register(sweepExperiment())
	register(fig6Experiment())
	register(multiChipExperiment())
	register(trrStudyExperiment())
	register(trrBypassExperiment())
	register(rowPressExperiment())
	register(tempSweepExperiment())
	register(crossChannelExperiment())
	register(utrrProbeExperiment())
}

// All returns every registered experiment, sorted by name.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, name := range slices.Sorted(maps.Keys(registry)) {
		out = append(out, registry[name])
	}
	return out
}

// Lookup resolves a registry name, listing the valid names on failure.
func Lookup(name string) (*Experiment, error) {
	if e, ok := registry[name]; ok {
		return e, nil
	}
	names := strings.Join(slices.Sorted(maps.Keys(registry)), ", ")
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", name, names)
}

// plan looks up a registered experiment and plans it for o, refusing a
// knob the experiment does not read.
func plan(name string, o Options) (*Experiment, *Plan, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	if err := CheckReads(o, name, e.Reads); err != nil {
		return nil, nil, fmt.Errorf("experiments: planning %s: %w", name, err)
	}
	p, err := e.Plan(o)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: planning %s: %w", name, err)
	}
	return e, p, nil
}

// Run plans, shards and executes a registered experiment, returning the
// (possibly shard-slice) artifact. The artifact is byte-identical for any
// Parallel count and Planner, and merging all shards of one option set
// reproduces the unsharded artifact.
func Run(name string, o Options) (*results.Artifact, error) {
	e, p, err := plan(name, o)
	if err != nil {
		return nil, err
	}
	shard, of := o.Shard, o.ShardCount
	if of <= 0 {
		shard, of = 0, 1
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("experiments: shard %d/%d out of range", shard, of)
	}
	n := len(p.Jobs)
	lo, hi := results.ShardRange(n, shard, of)
	if lo == hi {
		return nil, fmt.Errorf("experiments: shard %d/%d of %s covers no jobs (the plan has %d %s jobs)",
			shard, of, name, n, p.Axis)
	}
	a, err := executePlan(p, o, lo, hi)
	if err != nil {
		return nil, err
	}
	stampMeta(a, e.Name, p, lo, hi, shard, of)
	return a, nil
}

// PlanInfo describes an experiment plan without executing it: everything
// a coordinator needs to partition a run across workers and everything a
// worker needs to stamp a resumable journal. Because planning is a pure
// function of the options, every process computing a PlanInfo for the
// same option set gets the same answer.
type PlanInfo struct {
	// Jobs is the plan's total job count, the unit slices partition.
	Jobs int
	// Axis is the planning axis (results.AxisSeed, "channel", "point"...).
	Axis string
	// ConfigHash is the resolved chip config's fingerprint, hex, as
	// stamped into artifact provenance.
	ConfigHash string
	// Params are the plan's merge-compatibility parameters.
	Params map[string]string
}

// Describe plans a registered experiment and returns its PlanInfo.
func Describe(name string, o Options) (PlanInfo, error) {
	_, p, err := plan(name, o)
	if err != nil {
		return PlanInfo{}, err
	}
	return PlanInfo{
		Jobs:       len(p.Jobs),
		Axis:       p.Axis,
		ConfigHash: fmt.Sprintf("%016x", p.Cfg.Hash()),
		Params:     p.Params,
	}, nil
}

// RunSlice executes the contiguous job slice [lo, hi) of an experiment
// plan — the checkpoint-granular unit of the fleet worker, which journals
// one sealed slice artifact per completed chunk. Unlike Run, the slice is
// arbitrary rather than derived from a shard index; o.Shard/ShardCount
// are ignored. Slice artifacts carry the same job-slice (or seed-range)
// provenance as shard artifacts, so merging adjacent slices through
// results.Merge reproduces, byte for byte, the artifact a single RunSlice
// over the union would have produced — the invariant checkpoint/resume
// rests on.
func RunSlice(name string, o Options, lo, hi int) (*results.Artifact, error) {
	e, p, err := plan(name, o)
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > len(p.Jobs) || lo >= hi {
		return nil, fmt.Errorf("experiments: slice [%d,%d) of %s out of range (the plan has %d %s jobs)",
			lo, hi, name, len(p.Jobs), p.Axis)
	}
	a, err := executePlan(p, o, lo, hi)
	if err != nil {
		return nil, err
	}
	stampMeta(a, e.Name, p, lo, hi, 0, 1)
	return a, nil
}

// executePlan runs the job slice [lo, hi) through the engine and folds
// the payloads in job-index order. It is the one place a plan meets the
// scheduler.
func executePlan(p *Plan, o Options, lo, hi int) (*results.Artifact, error) {
	f := p.NewFold(lo, hi)
	weights := make([]float64, hi-lo)
	for i := range weights {
		if w := p.Jobs[lo+i].Weight; w > 0 {
			weights[i] = w
		} else {
			weights[i] = 1
		}
	}
	eo := engine.Options{
		Ctx:        o.Ctx,
		Workers:    o.Parallel,
		OnProgress: o.Progress,
		Planner:    o.Planner,
		Weights:    weights,
	}
	fold := func(i int, v any) error { return f.Add(lo+i, v) }
	var err error
	if p.Harness {
		err = engine.ReduceHarness(eo, p.Cfg, hi-lo,
			func(ctx context.Context, h *core.Harness, i int) (any, error) {
				return p.Jobs[lo+i].Run(ctx, h)
			}, fold)
	} else {
		err = engine.Reduce(eo, hi-lo,
			func(ctx context.Context, i int) (any, error) {
				return p.Jobs[lo+i].Run(ctx, nil)
			}, fold)
	}
	if err != nil {
		return nil, err
	}
	return f.Finish()
}

// stampMeta fills the provenance the run owns: schema and build
// identity, the sharding coordinates, and the plan-axis job slice. Folds
// own the group payload, Params and — on the seed axis — the seed range.
func stampMeta(a *results.Artifact, tool string, p *Plan, lo, hi, shard, of int) {
	m := &a.Meta
	m.Format = results.FormatVersion
	m.Tool = tool
	m.CodeVersion = results.CodeVersion()
	m.ConfigHash = fmt.Sprintf("%016x", p.Cfg.Hash())
	m.Shard, m.ShardCount = shard, of
	m.Params = p.Params
	m.JobAxis = p.Axis
	if p.Axis != results.AxisSeed {
		// Non-seed axes shard one chip's study: the seed range is the
		// single configured seed and the job slice carries the shard
		// provenance.
		m.SeedFirst, m.SeedCount = p.Cfg.Seed, 1
		m.JobFirst, m.JobCount = lo, hi-lo
		m.JobKeys = make([]string, 0, hi-lo)
		for _, j := range p.Jobs[lo:hi] {
			m.JobKeys = append(m.JobKeys, j.Key)
		}
	}
}

// pointFold builds the NewFold shared by point-axis experiments whose
// payloads are scalar samples or sample sets: one group per plan job
// (always the full set, so shards stream-merge) holding one metric over
// the quantile domain [lo, hi). Payloads may be float64, int or
// []float64.
func pointFold(jobs []Job, metric string, lo, hi float64) func(int, int) *Fold {
	return func(_, _ int) *Fold {
		a := &results.Artifact{Meta: results.Meta{GroupBy: results.ByPoint.String()}}
		for _, j := range jobs {
			a.Groups = append(a.Groups, results.Group{
				Key:     results.Key{Channel: results.NoChannel, Point: j.Key},
				Metrics: []results.Metric{{Name: metric, Stream: stats.NewStream(lo, hi)}},
			})
		}
		return &Fold{
			Add: func(i int, payload any) error {
				s := a.Groups[i].Metrics[0].Stream
				switch v := payload.(type) {
				case []float64:
					for _, x := range v {
						s.Add(x)
					}
				case float64:
					s.Add(v)
				case int:
					s.Add(float64(v))
				default:
					return fmt.Errorf("experiments: job %q returned %T, want samples", a.Groups[i].Key.Point, payload)
				}
				return nil
			},
			Finish: func() (*results.Artifact, error) { return a, nil },
		}
	}
}

// renderHeader is the provenance header of an experiment report: the
// experiment, its job count and axis, the chip config, and the shard
// coordinates of a slice.
func renderHeader(a *results.Artifact) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "experiment %s: %d job(s) on axis %q, chip config %s\n",
		a.Meta.Tool, a.Meta.JobCount, a.Meta.JobAxis, a.Meta.ConfigHash)
	if a.Meta.JobCount > 0 && a.Meta.ShardCount > 1 {
		fmt.Fprintf(&sb, "shard %d/%d covering jobs [%d,+%d)\n",
			a.Meta.Shard, a.Meta.ShardCount, a.Meta.JobFirst, a.Meta.JobCount)
	}
	return sb.String()
}

// Render renders an artifact with its experiment's registered renderer,
// falling back to the generic report — the provenance header plus the
// distribution summary at the stored axis — for experiments without one
// and for unknown tools (e.g. artifacts from a newer build).
func Render(a *results.Artifact) string {
	if e, ok := registry[a.Meta.Tool]; ok && e.Render != nil {
		return e.Render(a)
	}
	return renderHeader(a) + results.RenderGroups(a.Groups, func(name string) string { return name }, nil)
}
