package experiments

import (
	"math"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// Artifact routing for the figure studies that produce distributions:
// the sweep and fig6 registry plans fold the Figs. 3-5 rows and the
// Fig. 6 bank points into the same results.Artifact schema the
// multi-chip fleet study uses, so one CSV/JSON renderer and one
// merge/compatibility path serve every distribution export in the repo.
// The sweep's region×channel groups match the multi-chip study's, so a
// sweep artifact is the single-chip degenerate case of a fleet artifact.
// (Drivers whose output is a scalar or a curve — TRR period, RowPress
// slopes — have nothing to gain from a distribution schema and keep
// their bespoke renders.)

// Fig6 artifact metric names.
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
func addFig6Point(groups []results.Group, p BankPoint) {
	grp := &groups[p.Bank.Channel]
	grp.Metrics[0].Stream.Add(p.MeanBER)
	// CV is NaN for an all-zero bank (zero mean); streams hold finite
	// samples only, so such banks are excluded from the CV distribution
	// the way never-flipping rows are from HCfirst.
	if !math.IsNaN(p.CV) {
		grp.Metrics[1].Stream.Add(p.CV)
	}
}
