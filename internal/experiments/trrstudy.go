package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/hbm"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
	"github.com/safari-repro/hbmrh/internal/utrr"
)

// TRRStudyOptions configures the Section 5 experiment.
type TRRStudyOptions struct {
	// Cfg is the device configuration; nil means config.PaperChip().
	Cfg *config.Config
	// Bank selects where the profiled row lives.
	Bank addr.BankAddr
	// Iterations is the number of U-TRR iterations (paper: 100).
	Iterations int
	// StartRow is where the retention scan begins. It defaults to a row
	// range the periodic-refresh pointer does not sweep during the run.
	StartRow int
	// Ctx aborts the study: before it starts, and between U-TRR
	// iterations once running (a fleet chip job's TRR phase cancels as
	// promptly as its sweep phase).
	Ctx context.Context
}

// TRRStudy is the outcome of the Section 5 reproduction.
type TRRStudy struct {
	Opts   TRRStudyOptions
	Result *utrr.Result
	// Period is the inferred victim-refresh period (paper: 17), with
	// Periodic indicating the fires were strictly periodic.
	Period   int
	Periodic bool
}

// RunTRRStudy reproduces Section 5: profile a retention-weak row, run the
// U-TRR iterations, and infer the proprietary TRR mechanism's period.
func RunTRRStudy(o TRRStudyOptions) (*TRRStudy, error) {
	if o.Cfg == nil {
		o.Cfg = config.PaperChip()
	}
	if err := o.Cfg.Validate(); err != nil {
		return nil, err
	}
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	// The study runs on a fresh device: U-TRR leans on retention decay and
	// the periodic-refresh pointer, i.e. accumulated device state, so a
	// pool-warmed device would not reproduce it.
	r, err := runUTRR(o, o.Ctx)
	if err != nil {
		return nil, err
	}
	s := &TRRStudy{Opts: o, Result: r}
	s.Period, s.Periodic = r.InferPeriod()
	return s, nil
}

func runUTRR(o TRRStudyOptions, ctx context.Context) (*utrr.Result, error) {
	d, err := hbm.New(o.Cfg)
	if err != nil {
		return nil, err
	}
	// Section 3.1 setup: ECC off so raw retention errors are visible.
	for ch := 0; ch < o.Cfg.Geometry.Channels; ch++ {
		if err := d.WriteModeRegister(ch, hbm.MRECC, 0); err != nil {
			return nil, err
		}
	}
	e := utrr.New(d)
	e.Ctx = ctx
	if o.Iterations > 0 {
		e.Iterations = o.Iterations
	}
	start := o.StartRow
	if start <= 0 {
		// Keep clear of the rows the refresh pointer sweeps: one REF per
		// iteration refreshes a couple of physical rows from address 0.
		start = o.Cfg.Geometry.Rows / 4
	}
	return e.Run(o.Bank, start)
}

// trrStudyExperiment lifts the Section 5 U-TRR discovery onto the
// registry. The study is one engine job on a fresh device (U-TRR leans
// on accumulated retention state), so its plan has a single point job;
// the artifact pipeline still buys it sharded merges (a one-job slice),
// serialized artifacts and the shared exports.
func trrStudyExperiment() *Experiment {
	return &Experiment{
		Name:  "trrstudy",
		Title: "Section 5 U-TRR: uncover the in-DRAM TRR mechanism and its period",
		Plan: func(o Options) (*Plan, error) {
			to := TRRStudyOptions{Cfg: o.Cfg, Iterations: o.Iterations}
			if to.Cfg == nil {
				to.Cfg = config.PaperChip()
			}
			if err := to.Cfg.Validate(); err != nil {
				return nil, err
			}
			iterations := to.Iterations
			if iterations <= 0 {
				iterations = 100 // utrr.New default, pinned for params
			}
			job := Job{
				Key: "utrr",
				Run: func(ctx context.Context, _ *core.Harness) (any, error) {
					return runUTRR(to, ctx)
				},
			}
			return &Plan{
				Axis:   "point",
				Cfg:    to.Cfg,
				Jobs:   []Job{job},
				Params: map[string]string{"iterations": strconv.Itoa(iterations)},
				NewFold: func(lo, hi int) *Fold {
					a := &results.Artifact{
						Meta: results.Meta{GroupBy: results.ByPoint.String()},
						Groups: []results.Group{{
							Key: results.Key{Channel: results.NoChannel, Point: "utrr"},
							Metrics: []results.Metric{
								{Name: "trr_period", Stream: stats.NewStream(0, 256)},
								{Name: "periodic", Stream: stats.NewStream(0, 2)},
								{Name: "victim_refreshes", Stream: stats.NewStream(0, float64(iterations+1))},
							},
						}},
					}
					return &Fold{
						Add: func(_ int, payload any) error {
							r := payload.(*utrr.Result)
							period, periodic := r.InferPeriod()
							ms := a.Groups[0].Metrics
							ms[0].Stream.Add(float64(period))
							if periodic {
								ms[1].Stream.Add(1)
							} else {
								ms[1].Stream.Add(0)
							}
							ms[2].Stream.Add(float64(len(r.Fires())))
							return nil
						},
						Finish: func() (*results.Artifact, error) { return a, nil },
					}
				},
			}, nil
		},
	}
}

// Render summarizes the study the way Section 5 reports it.
func (s *TRRStudy) Render() string {
	var sb strings.Builder
	sb.WriteString("Section 5: uncovering the proprietary in-DRAM TRR mechanism (U-TRR)\n")
	fmt.Fprintf(&sb, "profiled row: %s row %d (retention %.2f s), aggressor row %d\n",
		s.Opts.Bank, s.Result.Row, s.Result.RetentionSec, s.Result.Aggressor)
	fires := s.Result.Fires()
	fmt.Fprintf(&sb, "iterations: %d, victim refreshes observed: %d (at %v)\n",
		len(s.Result.Refreshed), len(fires), fires)
	if s.Periodic {
		fmt.Fprintf(&sb, "=> the chip refreshes the sampled aggressor's victims once every %d REFs\n", s.Period)
	} else {
		sb.WriteString("=> no strictly periodic victim refresh observed\n")
	}
	// Iteration strip chart: '#' = refreshed by TRR, '.' = decayed.
	glyphs := make([]byte, len(s.Result.Refreshed))
	for i, r := range s.Result.Refreshed {
		if r {
			glyphs[i] = '#'
		} else {
			glyphs[i] = '.'
		}
	}
	fmt.Fprintf(&sb, "timeline: %s\n", glyphs)
	return sb.String()
}

// CSV exports the per-iteration observations.
func (s *TRRStudy) CSV() (headers []string, rows [][]string) {
	headers = []string{"iteration", "refreshed"}
	for i, r := range s.Result.Refreshed {
		rows = append(rows, []string{strconv.Itoa(i + 1), strconv.FormatBool(r)})
	}
	return headers, rows
}
