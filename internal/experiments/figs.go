package experiments

import (
	"fmt"
	"math"
	"strconv"

	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/report"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// seriesNames returns the x-axis groups of Figs. 3-4: the four Table 1
// patterns followed by the per-row worst-case pattern.
func seriesNames() []string {
	names := make([]string, 0, 5)
	for _, p := range core.Table1() {
		names = append(names, p.Name)
	}
	return append(names, core.WCDPName)
}

// distribution extracts, for one pattern index (len(Table1()) selects the
// WCDP series) and channel, the per-row metric values.
func (s *Sweep) distribution(patternIdx, channel int, metric func(RowResult, int) (float64, bool)) []float64 {
	var out []float64
	for _, r := range s.Rows {
		if r.Channel != channel {
			continue
		}
		pi := patternIdx
		if pi == len(r.BER) { // WCDP series
			pi = r.WCDP
		}
		if v, ok := metric(r, pi); ok {
			out = append(out, v)
		}
	}
	return out
}

func berMetric(r RowResult, pi int) (float64, bool) { return r.BER[pi] * 100, true } // percent

func hcMetric(r RowResult, pi int) (float64, bool) {
	if !r.Found[pi] {
		return 0, false // rows that never flip are excluded, as in Fig. 4
	}
	return float64(r.HCFirst[pi]), true
}

// boxGroups builds the Fig. 3/4 box-plot structure for a metric.
func (s *Sweep) boxGroups(metric func(RowResult, int) (float64, bool)) []report.BoxGroup {
	chs := s.Cfg.Geometry.Channels
	var groups []report.BoxGroup
	for pi, name := range seriesNames() {
		g := report.BoxGroup{Label: name}
		for ch := 0; ch < chs; ch++ {
			vals := s.distribution(pi, ch, metric)
			if len(vals) == 0 {
				continue
			}
			g.Series = append(g.Series, report.BoxSeries{
				Label:   "ch" + strconv.Itoa(ch),
				Summary: stats.Summarize(vals),
			})
		}
		groups = append(groups, g)
	}
	return groups
}

// --- Fig. 3: BER across rows, channels and data patterns ---

// Fig3 is the BER distribution figure.
type Fig3 struct{ Sweep *Sweep }

// Render draws the figure as ASCII box plots (BER in percent).
func (f Fig3) Render() string {
	return report.RenderBoxes(
		"Fig. 3: RowHammer BER across DRAM rows, channels and data patterns",
		"% BER", f.Sweep.boxGroups(berMetric))
}

// Fig3Headlines carries the figure's quantitative takeaways, matching the
// numbers the paper reports in its text.
type Fig3Headlines struct {
	// WCDPMeanBER is the mean WCDP BER per channel, in percent.
	WCDPMeanBER []float64
	// MaxOverMinWCDP is the ratio of the best to worst channel's mean
	// WCDP BER (paper: channel 7 is 2.03x channel 0).
	MaxOverMinWCDP float64
	// MaxSpreadPct is the largest cross-channel BER spread over all
	// patterns: (max-min)/max of channel mean BER (paper: up to 79 %).
	MaxSpreadPct float64
	// MaxBER is the highest per-row BER observed anywhere, in percent.
	MaxBER float64
}

// Headlines computes Fig3Headlines from the sweep.
func (f Fig3) Headlines() Fig3Headlines {
	chs := f.Sweep.Cfg.Geometry.Channels
	h := Fig3Headlines{WCDPMeanBER: make([]float64, chs)}
	wcdpIdx := len(core.Table1())
	for ch := 0; ch < chs; ch++ {
		h.WCDPMeanBER[ch] = stats.Mean(f.Sweep.distribution(wcdpIdx, ch, berMetric))
	}
	lo, hi := stats.MinMax(h.WCDPMeanBER)
	if lo > 0 {
		h.MaxOverMinWCDP = hi / lo
	}
	for pi := range seriesNames() {
		means := make([]float64, 0, chs)
		for ch := 0; ch < chs; ch++ {
			if vals := f.Sweep.distribution(pi, ch, berMetric); len(vals) > 0 {
				means = append(means, stats.Mean(vals))
			}
		}
		if len(means) < 2 {
			continue
		}
		mlo, mhi := stats.MinMax(means)
		if mhi > 0 {
			if spread := (mhi - mlo) / mhi * 100; spread > h.MaxSpreadPct {
				h.MaxSpreadPct = spread
			}
		}
	}
	for _, r := range f.Sweep.Rows {
		for _, b := range r.BER {
			if b*100 > h.MaxBER {
				h.MaxBER = b * 100
			}
		}
	}
	return h
}

// --- Fig. 4: HCfirst across rows, channels and data patterns ---

// Fig4 is the HCfirst distribution figure.
type Fig4 struct{ Sweep *Sweep }

// Render draws the figure as ASCII box plots (hammer counts).
func (f Fig4) Render() string {
	return report.RenderBoxes(
		"Fig. 4: minimum hammer count to induce the first bitflip (HCfirst)",
		"hammers", f.Sweep.boxGroups(hcMetric))
}

// Fig4Headlines carries the figure's quantitative takeaways.
type Fig4Headlines struct {
	// MinHCFirst is the smallest HCfirst observed across all channels
	// and patterns (paper: 14531).
	MinHCFirst int
	// WCDPMeanHC is the mean WCDP HCfirst per channel.
	WCDPMeanHC []float64
	// SpreadPct is the cross-channel spread of mean WCDP HCfirst:
	// (max-min)/max (paper: up to 20 %).
	SpreadPct float64
	// Ch0Rowstripe0 and Ch0Rowstripe1 are channel 0's mean HCfirst under
	// the two stripe patterns (paper: 57925 and 79179), showing that the
	// effective pattern is channel-dependent.
	Ch0Rowstripe0 float64
	Ch0Rowstripe1 float64
}

// Headlines computes Fig4Headlines from the sweep.
func (f Fig4) Headlines() Fig4Headlines {
	chs := f.Sweep.Cfg.Geometry.Channels
	h := Fig4Headlines{MinHCFirst: math.MaxInt, WCDPMeanHC: make([]float64, chs)}
	wcdpIdx := len(core.Table1())
	for ch := 0; ch < chs; ch++ {
		h.WCDPMeanHC[ch] = stats.Mean(f.Sweep.distribution(wcdpIdx, ch, hcMetric))
	}
	lo, hi := stats.MinMax(h.WCDPMeanHC)
	if hi > 0 {
		h.SpreadPct = (hi - lo) / hi * 100
	}
	for _, r := range f.Sweep.Rows {
		for pi, found := range r.Found {
			if found && r.HCFirst[pi] < h.MinHCFirst {
				h.MinHCFirst = r.HCFirst[pi]
			}
		}
	}
	h.Ch0Rowstripe0 = stats.Mean(f.Sweep.distribution(0, 0, hcMetric))
	h.Ch0Rowstripe1 = stats.Mean(f.Sweep.distribution(1, 0, hcMetric))
	return h
}

// --- Fig. 5: BER vs physical row address ---

// Fig5 is the per-row WCDP BER profile over the three regions.
type Fig5 struct{ Sweep *Sweep }

// Profile returns, for one region, the sampled physical rows and one BER
// series (percent) per channel.
func (f Fig5) Profile(region string) (xs []int, series []report.ProfileSeries) {
	byCh := f.Sweep.ByChannel()
	for ch, rows := range byCh {
		var vals []float64
		for _, r := range rows {
			if r.Region != region {
				continue
			}
			if ch == 0 {
				xs = append(xs, r.PhysRow)
			}
			vals = append(vals, r.WCDPBER()*100)
		}
		series = append(series, report.ProfileSeries{
			Label:  "ch" + strconv.Itoa(ch),
			Values: vals,
		})
	}
	return xs, series
}

// Render draws all three regional profiles.
func (f Fig5) Render() string {
	out := "Fig. 5: WCDP BER for rows across a bank (periodic within subarrays)\n"
	for _, region := range core.Regions(f.Sweep.Cfg.Geometry.Rows) {
		xs, series := f.Profile(region.Name)
		out += report.RenderProfile(fmt.Sprintf("region %q", region.Name), xs, series)
	}
	return out
}

// Fig5Headlines carries the figure's quantitative takeaways.
type Fig5Headlines struct {
	// LastSubarrayRatio is the mean WCDP BER of rows in the bank's final
	// subarray divided by the mean over all other tested rows; the paper
	// observes the last 832 rows substantially weaker (ratio << 1).
	LastSubarrayRatio float64
	// MidOverEdge is the mean BER of rows in the middle third of their
	// subarray over rows in the outer thirds; the paper observes BER
	// peaking mid-subarray (ratio > 1).
	MidOverEdge float64
}

// Headlines computes Fig5Headlines from the sweep.
func (f Fig5) Headlines() Fig5Headlines {
	layout := f.Sweep.Cfg.Layout()
	lastSA := layout.Count() - 1
	var last, rest, mid, edge []float64
	for _, r := range f.Sweep.Rows {
		ber := r.WCDPBER() * 100
		sa, off := layout.Locate(r.PhysRow)
		if sa == lastSA {
			last = append(last, ber)
		} else {
			rest = append(rest, ber)
			third := layout.Size(sa) / 3
			if off >= third && off < 2*third {
				mid = append(mid, ber)
			} else {
				edge = append(edge, ber)
			}
		}
	}
	h := Fig5Headlines{}
	if len(last) > 0 && len(rest) > 0 {
		h.LastSubarrayRatio = stats.Mean(last) / stats.Mean(rest)
	}
	if len(mid) > 0 && len(edge) > 0 {
		h.MidOverEdge = stats.Mean(mid) / stats.Mean(edge)
	}
	return h
}

// CSV exports the sweep's raw per-row data (shared by Figs. 3-5).
func (s *Sweep) CSV() (headers []string, rows [][]string) {
	headers = []string{"channel", "region", "phys_row", "pattern", "ber_pct", "hc_first", "found", "is_wcdp"}
	for _, r := range s.Rows {
		for pi, p := range core.Table1() {
			rows = append(rows, []string{
				strconv.Itoa(r.Channel),
				r.Region,
				strconv.Itoa(r.PhysRow),
				p.Name,
				strconv.FormatFloat(r.BER[pi]*100, 'f', 5, 64),
				strconv.Itoa(r.HCFirst[pi]),
				strconv.FormatBool(r.Found[pi]),
				strconv.FormatBool(pi == r.WCDP),
			})
		}
	}
	return headers, rows
}
