package fleet

import (
	"context"
	"flag"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/experiments"
)

// Study is the one description of a study, from the command line to the
// registry: the experiment plus its knobs, with the chip and the planner
// as names so the whole study crosses the process (and, later, machine)
// boundary as flags. characterize, its fleet mode and the fleet workers
// all declare its flags through RegisterFlags and resolve it through
// Options; the coordinator renders it back into worker flags (args).
type Study struct {
	// Experiment is the registry name (experiments.Lookup).
	Experiment string
	// Chip is the config preset: "paper" or "small" ("" means small).
	Chip string
	// Rows/Hammers/Seeds/Iterations are the registry sampling knobs.
	Rows, Hammers, Seeds, Iterations int
	// JobWorkers bounds per-job device parallelism
	// (experiments.Options.Workers).
	JobWorkers int
	// Parallel bounds concurrent plan jobs inside one process.
	Parallel int
	// Planner is the engine planner name; "" means queue. Planner choice
	// never changes artifacts, so workers may even disagree on it.
	Planner string
	// Bank is where the Section 5 studies profile their rows.
	Bank addr.BankAddr
}

// RegisterFlags declares the study's flags on fs, bound to s's fields
// and set to their defaults. It is the only declaration of these flags.
func (s *Study) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Experiment, "experiment", "", "registry experiment to run (see characterize -experiment list)")
	fs.StringVar(&s.Chip, "chip", "small", "chip preset: paper or small")
	fs.IntVar(&s.Rows, "rows", 24, "sampling density: victim rows per region (sweep), per bank region (fig6) or per point")
	fs.IntVar(&s.Hammers, "hammers", core.DefaultHammers, "hammer count / HCfirst ceiling")
	fs.IntVar(&s.Seeds, "seeds", 0, "chip instances for fleet experiments (0 = experiment default)")
	fs.IntVar(&s.Iterations, "iterations", 0, "U-TRR iterations for the TRR studies (0 = default)")
	fs.IntVar(&s.JobWorkers, "job-workers", 0, "parallel measurement devices per job (0 = auto)")
	fs.IntVar(&s.Parallel, "parallel", 0, "concurrent plan jobs per process (0 = one per CPU)")
	fs.StringVar(&s.Planner, "planner", "queue", "job planner: queue, contiguous, weighted or stealing (never changes output)")
	fs.IntVar(&s.Bank.Channel, "channel", 0, "channel of the Section 5 studies' profiled row")
	fs.IntVar(&s.Bank.PseudoChannel, "pc", 0, "pseudo channel of the Section 5 studies' profiled row")
	fs.IntVar(&s.Bank.Bank, "bank", 0, "bank of the Section 5 studies' profiled row")
}

// DropUnreadDefaults zeroes -rows and -hammers, the non-zero defaults,
// where fs left them unset and the experiment does not read them; a set
// knob goes on to the registry, which refuses it where unread.
func (s *Study) DropUnreadDefaults(fs *flag.FlagSet) {
	e, err := experiments.Lookup(s.Experiment)
	if err != nil {
		return
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	read := e.Narrow(experiments.Options{Rows: s.Rows, Hammers: s.Hammers})
	if !set["rows"] {
		s.Rows = read.Rows
	}
	if !set["hammers"] {
		s.Hammers = read.Hammers
	}
}

// args renders s as the flags RegisterFlags declares, every one of them,
// so a process that parses them holds a study equal to s.
func (s Study) args() []string {
	var bound Study
	fs := flag.NewFlagSet("study", flag.ContinueOnError)
	bound.RegisterFlags(fs)
	bound = s // the flag values point into bound, so they now read s
	var out []string
	fs.VisitAll(func(f *flag.Flag) { out = append(out, "-"+f.Name+"="+f.Value.String()) })
	return out
}

// Options resolves the study into registry options for one process. It
// is where a study's chip preset and planner name are parsed; the
// registry checks the numeric knobs when it plans.
func (s Study) Options(ctx context.Context) (experiments.Options, error) {
	cfg, err := config.Preset(s.Chip)
	if err != nil {
		return experiments.Options{}, err
	}
	planner := engine.PlanQueue
	if s.Planner != "" {
		if planner, err = engine.ParsePlanner(s.Planner); err != nil {
			return experiments.Options{}, err
		}
	}
	return experiments.Options{
		Cfg:        cfg,
		Rows:       s.Rows,
		Hammers:    s.Hammers,
		Seeds:      s.Seeds,
		Iterations: s.Iterations,
		Bank:       s.Bank,
		Workers:    s.JobWorkers,
		Parallel:   s.Parallel,
		Planner:    planner,
		Ctx:        ctx,
	}, nil
}
