package experiments

import (
	"context"
	"fmt"
	"strconv"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/report"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// fig6Bank measures one bank's Fig. 6 marker: the BER distribution over
// the first, middle and last span rows of the bank. Each row's BER is
// taken under its best Table 1 pattern at the full hammer count — a
// BER-maximizing proxy for the WCDP that avoids the per-row HCfirst
// search, which Fig. 6 does not need.
func fig6Bank(h *core.Harness, cfg *config.Config, span, hammers int, ba addr.BankAddr) (results.BankRecord, error) {
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
	// Batched probes, chunk-major: for each chunk of core.MaxProbeBatch
	// rows, one BERBatch per pattern, keeping the best BER per row —
	// value-identical to the per-row loop it replaces, and each row's
	// profile and ladder are built once for all four patterns.
	best := make([]float64, len(victims))
	for lo := 0; lo < len(victims); lo += core.MaxProbeBatch {
		chunk := victims[lo:min(lo+core.MaxProbeBatch, len(victims))]
		for _, p := range patterns {
			rs, err := h.BERBatch(ba, chunk, p, hammers)
			if err != nil {
				return results.BankRecord{}, err
			}
			for i, r := range rs {
				best[lo+i] = max(best[lo+i], r.BER())
			}
		}
	}
	bers := make([]float64, len(victims))
	for i, b := range best {
		bers[i] = b * 100
	}
	sum := stats.Summarize(bers)
	b := results.BankRecord{Channel: ba.Channel, PseudoChannel: ba.PseudoChannel, Bank: ba.Bank, MeanBER: sum.Mean}
	if b.HasCV() {
		b.CV = sum.CV()
	}
	return b, nil
}

// Fig6 artifact metric names. The fig6 groups hold, per channel, the
// distributions of bank mean BER and CV, so one CSV/JSON export and one
// merge path serve it and every other study.
const (
	metricBankMeanBER = "bank_mean_ber_pct"
	metricBankCV      = "bank_cv"
)

// newFig6Groups allocates the per-channel accumulators of the Fig. 6
// artifact: each channel's distribution of per-bank mean BER (percent)
// and coefficient of variation.
func newFig6Groups(cfg *config.Config) []results.Group {
	g := cfg.Geometry
	out := make([]results.Group, 0, g.Channels)
	for ch := 0; ch < g.Channels; ch++ {
		out = append(out, results.Group{
			Key: results.Key{Channel: ch},
			Metrics: []results.Metric{
				// Mean BER is already in percent; CV is dimensionless and
				// in practice well under 10.
				{Name: metricBankMeanBER, Stream: stats.NewStream(0, 100)},
				{Name: metricBankCV, Stream: stats.NewStream(0, 10)},
			},
		})
	}
	return out
}

// addFig6Point streams one bank's scatter point into its channel group.
func addFig6Point(groups []results.Group, b results.BankRecord) {
	grp := &groups[b.Channel]
	grp.Metrics[0].Stream.Add(b.MeanBER)
	// An all-zero bank (zero mean) has no CV, so it is excluded from the
	// CV distribution the way never-flipping rows are from HCfirst.
	if b.HasCV() {
		grp.Metrics[1].Stream.Add(b.CV)
	}
}

// fig6Experiment registers the per-bank variation study: the BER
// distribution over the first, middle and last o.Rows rows (default 100,
// the paper's 300 rows per bank) of every bank in the stack. One harness
// job per bank, in (channel, pseudo channel, bank) order — the figure's
// point order — folded into the per-channel groups (bank mean BER and CV
// distributions) plus one record per bank, so the 256-bank scan shards
// by bank range and any merge of the slices draws the figure.
func fig6Experiment() *Experiment {
	return &Experiment{
		Name:  "fig6",
		Reads: []string{"Rows", "Hammers"},
		Title: "Fig. 6 bank scatter: per-bank BER mean/CV distributions per channel",
		Plan: func(o Options) (*Plan, error) {
			cfg, err := resolveChip(o)
			if err != nil {
				return nil, err
			}
			span, hammers := orDefault(o.Rows, 100), orDefault(o.Hammers, core.DefaultHammers)
			g := cfg.Geometry
			// The first, middle and last span rows are three disjoint
			// regions only while 3*span fits in the bank.
			if fit := g.Rows / 3; span > fit {
				return nil, fmt.Errorf("rows %d per region overlaps the first, middle and last regions of the %d-row bank: at most %d fit",
					span, g.Rows, fit)
			}
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
							b := payload.(results.BankRecord)
							addFig6Point(a.Groups, b)
							a.Banks = append(a.Banks, b)
							return nil
						},
						Finish: func() (*results.Artifact, error) { return a, nil },
					}
				},
			}, nil
		},
		Render: renderFig6,
	}
}

// Fig6 is the per-bank BER variation figure, drawn from a fig6
// artifact's bank records.
type Fig6 struct{ Banks []results.BankRecord }

// renderFig6 is the fig6 entry's registry render: the scatter and its
// claims' headlines.
func renderFig6(a *results.Artifact) string {
	return renderHeader(a) + Fig6{Banks: a.Banks}.Render() + headlines("Fig. 6", measureFig6(a))
}

// Render draws the scatter plot; each point's glyph is its channel digit,
// matching the paper's colour coding. A bank whose sampled rows never
// flipped has no CV and so no place on the x axis; it is left out, as
// addFig6Point leaves it out of the artifact's CV distribution.
func (f Fig6) Render() string {
	pts := make([]report.Point, 0, len(f.Banks))
	for _, b := range f.Banks {
		if !b.HasCV() {
			continue
		}
		pts = append(pts, report.Point{
			X:   b.CV,
			Y:   b.MeanBER,
			Tag: rune('0' + b.Channel%10),
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
func (f Fig6) Headlines() Fig6Headlines {
	h := Fig6Headlines{}
	if len(f.Banks) == 0 {
		return h
	}
	means := make([]float64, 0, len(f.Banks))
	cvs := make([]float64, 0, len(f.Banks))
	byCh := map[int][]float64{}
	for _, b := range f.Banks {
		means = append(means, b.MeanBER)
		if b.HasCV() {
			cvs = append(cvs, b.CV)
		}
		byCh[b.Channel] = append(byCh[b.Channel], b.MeanBER)
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
