package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/report"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// BankPoint is one bank's marker in the Fig. 6 scatter: the mean and the
// coefficient of variation of its per-row BER distribution.
type BankPoint struct {
	Bank    addr.BankAddr
	MeanBER float64 // percent
	CV      float64
}

// Fig6 is the per-bank BER variation figure.
type Fig6 struct {
	// Cfg is the chip the study measured.
	Cfg    *config.Config
	Points []BankPoint
}

// RunFig6 runs the registry's fig6 plan: the BER distribution over the
// first, middle and last o.Rows rows (default 100, the paper's 300 rows
// per bank) of every bank in the stack, one job per bank. Each row's BER
// is taken under its best Table 1 pattern at the full hammer count — a
// BER-maximizing proxy for the WCDP that avoids the per-row HCfirst
// search, which Fig. 6 does not need. o.Parallel bounds how many bank
// jobs run at once; Shard/ShardCount are ignored, as RunSlice ignores
// them.
func RunFig6(o Options) (*Fig6, error) {
	p, err := registry["fig6"].Plan(o)
	if err != nil {
		return nil, err
	}
	f := &Fig6{Cfg: p.Cfg, Points: make([]BankPoint, 0, len(p.Jobs))}
	err = runJobs(p, o, 0, len(p.Jobs), func(_ int, payload any) error {
		f.Points = append(f.Points, payload.(BankPoint))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

func fig6Bank(h *core.Harness, cfg *config.Config, span, hammers int, ba addr.BankAddr) (BankPoint, error) {
	g := cfg.Geometry
	regions := []core.Region{
		{Name: "first", Start: 0, End: span},
		{Name: "middle", Start: (g.Rows - span) / 2, End: (g.Rows-span)/2 + span},
		{Name: "last", Start: g.Rows - span, End: g.Rows},
	}
	patterns := core.Table1()
	var victims []int
	for _, region := range regions {
		for phys := region.Start; phys < region.End; phys++ {
			if phys <= 0 || phys >= g.Rows-1 {
				continue
			}
			victims = append(victims, phys)
		}
	}
	// Batched probes: one BERBatch per pattern across every sampled row of
	// the bank, keeping the best BER per row — value-identical to the
	// per-row loop it replaces.
	best := make([]float64, len(victims))
	for _, p := range patterns {
		rs, err := h.BERBatch(ba, victims, p, hammers)
		if err != nil {
			return BankPoint{}, err
		}
		for i, r := range rs {
			if b := r.BER(); b > best[i] {
				best[i] = b
			}
		}
	}
	bers := make([]float64, len(victims))
	for i, b := range best {
		bers[i] = b * 100
	}
	sum := stats.Summarize(bers)
	return BankPoint{Bank: ba, MeanBER: sum.Mean, CV: sum.CV()}, nil
}

// fig6Experiment lifts the per-bank variation study onto the registry:
// one harness job per bank across the whole stack, in (channel, pseudo
// channel, bank) order — the figure's point order — folded into the
// per-channel artifact (bank mean BER and CV distributions per channel),
// so the 256-bank scan shards by bank range. RunFig6 runs the same plan
// and keeps the bank points instead.
func fig6Experiment() *Experiment {
	return &Experiment{
		Name:  "fig6",
		Title: "Fig. 6 bank scatter: per-bank BER mean/CV distributions per channel",
		Plan: func(o Options) (*Plan, error) {
			cfg, hammers, err := section4Budget(o)
			if err != nil {
				return nil, err
			}
			span := o.Rows
			if span <= 0 {
				span = 100
			}
			g := cfg.Geometry
			jobs := make([]Job, g.Channels*g.PseudoChannels*g.Banks)
			for i := range jobs {
				ba := addr.BankAddr{
					Channel:       i / (g.PseudoChannels * g.Banks),
					PseudoChannel: (i / g.Banks) % g.PseudoChannels,
					Bank:          i % g.Banks,
				}
				jobs[i] = Job{
					Key: fmt.Sprintf("ch%d.pc%d.ba%d", ba.Channel, ba.PseudoChannel, ba.Bank),
					Run: func(_ context.Context, h *core.Harness) (any, error) {
						pt, err := fig6Bank(h, cfg, span, hammers, ba)
						if err != nil {
							return nil, fmt.Errorf("bank %v: %w", ba, err)
						}
						return pt, nil
					},
				}
			}
			return &Plan{
				Axis:    "bank",
				Cfg:     cfg,
				Harness: true,
				Jobs:    jobs,
				Params: map[string]string{
					"rows_per_bank_region": strconv.Itoa(span),
					"hammers":              strconv.Itoa(hammers),
				},
				NewFold: func(lo, hi int) *Fold {
					a := &results.Artifact{
						Meta:   results.Meta{GroupBy: results.ByChannel.String()},
						Groups: newFig6Groups(cfg),
					}
					return &Fold{
						Add: func(_ int, payload any) error {
							addFig6Point(a.Groups, payload.(BankPoint))
							return nil
						},
						Finish: func() (*results.Artifact, error) { return a, nil },
					}
				},
			}, nil
		},
	}
}

// Render draws the scatter plot; each point's glyph is its channel digit,
// matching the paper's colour coding. A bank whose sampled rows never
// flipped has no CV (NaN) and so no place on the x axis; it is left out,
// as addFig6Point leaves it out of the artifact's CV distribution.
func (f *Fig6) Render() string {
	pts := make([]report.Point, 0, len(f.Points))
	for _, p := range f.Points {
		if math.IsNaN(p.CV) {
			continue
		}
		pts = append(pts, report.Point{
			X:   p.CV,
			Y:   p.MeanBER,
			Tag: rune('0' + p.Bank.Channel%10),
		})
	}
	return report.RenderScatter(
		"Fig. 6: BER variation across banks (mean vs coefficient of variation)",
		"CV of BER distribution", "mean BER (%)", pts)
}

// Fig6Headlines carries the figure's quantitative takeaways.
type Fig6Headlines struct {
	// MeanLo/MeanHi bound the bank mean BER across the stack.
	MeanLo, MeanHi float64
	// CVLo/CVHi bound the coefficient of variation over the banks that
	// flipped at all (an all-zero bank has no CV); both are 0 when none
	// did.
	CVLo, CVHi float64
	// MaxIntraChannelSpread is the largest within-channel difference of
	// bank mean BER (paper: up to 0.23 % in channel 7).
	MaxIntraChannelSpread float64
	// CrossOverIntra compares the global spread of bank means to the
	// largest within-channel spread; > 1 means channel variation
	// dominates bank variation, the paper's second Fig. 6 observation.
	CrossOverIntra float64
}

// Headlines computes Fig6Headlines.
func (f *Fig6) Headlines() Fig6Headlines {
	h := Fig6Headlines{}
	if len(f.Points) == 0 {
		return h
	}
	means := make([]float64, 0, len(f.Points))
	cvs := make([]float64, 0, len(f.Points))
	byCh := map[int][]float64{}
	for _, p := range f.Points {
		means = append(means, p.MeanBER)
		if !math.IsNaN(p.CV) {
			cvs = append(cvs, p.CV)
		}
		byCh[p.Bank.Channel] = append(byCh[p.Bank.Channel], p.MeanBER)
	}
	h.MeanLo, h.MeanHi = stats.MinMax(means)
	if len(cvs) > 0 {
		h.CVLo, h.CVHi = stats.MinMax(cvs)
	}
	for _, ms := range byCh {
		lo, hi := stats.MinMax(ms)
		if hi-lo > h.MaxIntraChannelSpread {
			h.MaxIntraChannelSpread = hi - lo
		}
	}
	if h.MaxIntraChannelSpread > 0 {
		h.CrossOverIntra = (h.MeanHi - h.MeanLo) / h.MaxIntraChannelSpread
	}
	return h
}

// CSV exports the scatter's raw data.
func (f *Fig6) CSV() (headers []string, rows [][]string) {
	headers = []string{"channel", "pseudo_channel", "bank", "mean_ber_pct", "cv"}
	for _, p := range f.Points {
		rows = append(rows, []string{
			strconv.Itoa(p.Bank.Channel),
			strconv.Itoa(p.Bank.PseudoChannel),
			strconv.Itoa(p.Bank.Bank),
			strconv.FormatFloat(p.MeanBER, 'f', 5, 64),
			strconv.FormatFloat(p.CV, 'f', 5, 64),
		})
	}
	return headers, rows
}
