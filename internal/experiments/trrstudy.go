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

// checkBank rejects a Section 5 bank outside the chip, before any
// device is built.
func checkBank(cfg *config.Config, bank addr.BankAddr) error {
	if g := cfg.Geometry; !bank.Valid(g) {
		return fmt.Errorf("bank %v out of range (%d channels, %d pseudo channels, %d banks)",
			bank, g.Channels, g.PseudoChannels, g.Banks)
	}
	return nil
}

// defaultIterations is the U-TRR iteration count when Options.Iterations
// is zero: the utrr.New default, pinned for params.
const defaultIterations = 100

// section5Device is a fresh device with ECC off (the Section 3.1 setup,
// so raw retention errors are visible) and the experiment driving it.
// U-TRR leans on retention decay and the periodic-refresh pointer, i.e.
// accumulated device state, so a pool-warmed device would not reproduce
// it.
func section5Device(cfg *config.Config) (*utrr.Experiment, error) {
	d, err := hbm.New(cfg)
	if err != nil {
		return nil, err
	}
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		if err := d.WriteModeRegister(ch, hbm.MRECC, 0); err != nil {
			return nil, err
		}
	}
	return utrr.New(d), nil
}

// section5StartRow is where the retention scans begin: clear of the rows
// the refresh pointer sweeps, since one REF per iteration refreshes a
// couple of physical rows from address 0.
func section5StartRow(cfg *config.Config) int { return cfg.Geometry.Rows / 4 }

// trrStudyExperiment is the Section 5 U-TRR discovery: profile a
// retention-weak row in Options.Bank, run the U-TRR iterations, and infer
// the proprietary TRR mechanism's period. The study is one engine job on
// a fresh device, so its plan has a single point job; the artifact
// carries the run as a TRR record beside the period groups.
func trrStudyExperiment() *Experiment {
	return &Experiment{
		Name:  "trrstudy",
		Title: "Section 5 U-TRR: uncover the in-DRAM TRR mechanism and its period",
		Plan: func(o Options) (*Plan, error) {
			cfg, err := resolveChip(o)
			if err != nil {
				return nil, err
			}
			bank, iterations := o.Bank, orDefault(o.Iterations, defaultIterations)
			if err := checkBank(cfg, bank); err != nil {
				return nil, err
			}
			job := Job{
				Key: "utrr",
				Run: func(ctx context.Context, _ *core.Harness) (any, error) {
					e, err := section5Device(cfg)
					if err != nil {
						return nil, err
					}
					e.Ctx = ctx
					e.Iterations = iterations
					return e.Run(bank, section5StartRow(cfg))
				},
			}
			return &Plan{
				Axis: "point",
				Cfg:  cfg,
				Jobs: []Job{job},
				Params: map[string]string{
					"bank":       bank.String(),
					"iterations": strconv.Itoa(iterations),
				},
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
							a.TRR = append(a.TRR, results.TRRRecord{
								Channel: bank.Channel, PseudoChannel: bank.PseudoChannel, Bank: bank.Bank,
								Row: r.Row, Aggressor: r.Aggressor, RetentionSec: r.RetentionSec,
								Refreshed: r.Refreshed,
							})
							return nil
						},
						Finish: func() (*results.Artifact, error) { return a, nil },
					}
				},
			}, nil
		},
		Render: renderSection5,
	}
}

// TRRPeriod reads the inferred victim-refresh period of a trrstudy
// artifact from its trr_period group, and whether the fires were
// strictly periodic from its periodic group; an artifact without the
// measurement reads (0, false), as an aperiodic run does.
func TRRPeriod(a *results.Artifact) (period int, periodic bool) {
	if len(a.Groups) == 0 || len(a.Groups[0].Metrics) < 2 {
		return 0, false
	}
	ms := a.Groups[0].Metrics
	if ms[0].Stream.N() == 0 || ms[1].Stream.N() == 0 {
		return 0, false
	}
	return int(ms[0].Stream.Min()), ms[1].Stream.Min() == 1
}

// renderSection5 is the trrstudy entry's registry render: the study the
// way Section 5 reports it, drawn from the artifact's TRR record, with
// the paper's period beside the measured one.
func renderSection5(a *results.Artifact) string {
	var sb strings.Builder
	sb.WriteString(renderHeader(a))
	sb.WriteString("Section 5: uncovering the proprietary in-DRAM TRR mechanism (U-TRR)\n")
	for _, t := range a.TRR {
		r := utrr.Result{Row: t.Row, Aggressor: t.Aggressor, RetentionSec: t.RetentionSec, Refreshed: t.Refreshed}
		bank := addr.BankAddr{Channel: t.Channel, PseudoChannel: t.PseudoChannel, Bank: t.Bank}
		fmt.Fprintf(&sb, "profiled row: %s row %d (retention %.2f s), aggressor row %d\n",
			bank, r.Row, r.RetentionSec, r.Aggressor)
		fires := r.Fires()
		fmt.Fprintf(&sb, "iterations: %d, victim refreshes observed: %d (at %v)\n",
			len(r.Refreshed), len(fires), fires)
		period, periodic := r.InferPeriod()
		if periodic {
			fmt.Fprintf(&sb, "=> the chip refreshes the sampled aggressor's victims once every %d REFs\n", period)
		} else {
			sb.WriteString("=> no strictly periodic victim refresh observed\n")
		}
		// Iteration strip chart: '#' = refreshed by TRR, '.' = decayed.
		glyphs := make([]byte, len(r.Refreshed))
		for i, ref := range r.Refreshed {
			if ref {
				glyphs[i] = '#'
			} else {
				glyphs[i] = '.'
			}
		}
		fmt.Fprintf(&sb, "timeline: %s\n", glyphs)
		fmt.Fprintf(&sb, "paper: TRR victim refresh %s\n", paper("sec5.trr_period"))
	}
	return sb.String()
}
