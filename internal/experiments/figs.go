package experiments

import (
	"fmt"
	"strconv"

	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/report"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// Figs. 3-5 are drawn from a sweep artifact's row records. The regions
// and the channel count come from its region×channel groups, which every
// slice of the sweep carries in full, so a shard slice draws the same
// axes as the whole run, with the unmeasured channels empty.

// seriesNames returns the x-axis groups of Figs. 3-4: the four Table 1
// patterns followed by the per-row worst-case pattern.
func seriesNames() []string {
	names := make([]string, 0, 5)
	for _, p := range core.Table1() {
		names = append(names, p.Name)
	}
	return append(names, core.WCDPName)
}

// sweepAxes returns the region names and the channel count of a sweep
// artifact's region×channel groups, which newFineGroups lays out region
// by region.
func sweepAxes(groups []results.Group) (regions []string, channels int) {
	for _, g := range groups {
		if len(regions) == 0 || regions[len(regions)-1] != g.Key.Region {
			regions = append(regions, g.Key.Region)
		}
	}
	if len(regions) > 0 {
		channels = len(groups) / len(regions)
	}
	return regions, channels
}

// sweepFigs draws Figs. 3-5 from a sweep artifact.
func sweepFigs(a *results.Artifact) (Fig3, Fig4, Fig5) {
	regions, channels := sweepAxes(a.Groups)
	return Fig3{Rows: a.Rows, Channels: channels},
		Fig4{Rows: a.Rows, Channels: channels},
		Fig5{Rows: a.Rows, Regions: regions, Channels: channels}
}

// SweepHeadlines computes the Figs. 3-5 headlines of a sweep artifact.
func SweepHeadlines(a *results.Artifact) (Fig3Headlines, Fig4Headlines, Fig5Headlines) {
	f3, f4, f5 := sweepFigs(a)
	return f3.Headlines(), f4.Headlines(), f5.Headlines()
}

// renderSweep is the sweep entry's registry render: Figs. 3-5, each with
// its claims' headlines.
func renderSweep(a *results.Artifact) string {
	f3, f4, f5 := sweepFigs(a)
	m := measureSweep(a)
	return renderHeader(a) +
		f3.Render() + headlines("Fig. 3", m) + "\n" +
		f4.Render() + headlines("Fig. 4", m) + "\n" +
		f5.Render() + headlines("Fig. 5", m) + "\n"
}

// distribution extracts, for one pattern index (len(Table1()) selects the
// WCDP series) and channel, the per-row metric values.
func distribution(rows []results.RowRecord, patternIdx, channel int, metric func(results.RowRecord, int) (float64, bool)) []float64 {
	var out []float64
	for _, r := range rows {
		if r.Channel != channel {
			continue
		}
		pi := patternIdx
		if pi == len(core.Table1()) { // WCDP series
			pi = r.WCDP
		}
		if pi >= len(r.BER) {
			continue // a record of fewer patterns than Table 1
		}
		if v, ok := metric(r, pi); ok {
			out = append(out, v)
		}
	}
	return out
}

func berMetric(r results.RowRecord, pi int) (float64, bool) { return r.BER[pi] * 100, true } // percent

func hcMetric(r results.RowRecord, pi int) (float64, bool) {
	if !r.Found[pi] {
		return 0, false // rows that never flip are excluded, as in Fig. 4
	}
	return float64(r.HCFirst[pi]), true
}

// boxGroups builds the Fig. 3/4 box-plot structure for a metric.
func boxGroups(rows []results.RowRecord, channels int, metric func(results.RowRecord, int) (float64, bool)) []report.BoxGroup {
	var groups []report.BoxGroup
	for pi, name := range seriesNames() {
		g := report.BoxGroup{Label: name}
		for ch := 0; ch < channels; ch++ {
			vals := distribution(rows, pi, ch, metric)
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

// Value is a headline number the budget may leave undefined: a mean over
// no flipping row, or a ratio with an empty side or a zero denominator.
// OK is false then, and the number reads "none", not a sentinel or NaN.
type Value struct {
	V  float64
	OK bool
}

// meanOf is the mean of vals, undefined for an empty sample.
func meanOf(vals []float64) Value {
	if len(vals) == 0 {
		return Value{}
	}
	return Value{V: stats.Mean(vals), OK: true}
}

// ratioOf is mean(num)/mean(den).
func ratioOf(num, den []float64) Value {
	n, d := meanOf(num), meanOf(den)
	if !n.OK || !d.OK || d.V == 0 {
		return Value{}
	}
	return Value{V: n.V / d.V, OK: true}
}

// Format formats the value, or reads "none" when it is undefined.
func (v Value) Format(format string) string {
	if !v.OK {
		return "none"
	}
	return fmt.Sprintf(format, v.V)
}

// --- Fig. 3: BER across rows, channels and data patterns ---

// Fig3 is the BER distribution figure over a sweep's row records.
type Fig3 struct {
	Rows     []results.RowRecord
	Channels int
}

// Render draws the figure as ASCII box plots (BER in percent).
func (f Fig3) Render() string {
	return report.RenderBoxes(
		"Fig. 3: RowHammer BER across DRAM rows, channels and data patterns",
		"% BER", boxGroups(f.Rows, f.Channels, berMetric))
}

// Fig3Headlines carries the figure's quantitative takeaways, matching the
// numbers the paper reports in its text.
type Fig3Headlines struct {
	// WCDPMeanBER is the mean WCDP BER per channel, in percent; 0 for a
	// channel the records do not cover (a shard slice).
	WCDPMeanBER []float64
	// MaxOverMinWCDP is the ratio of the best to worst channel's mean
	// WCDP BER over the covered channels (paper: channel 7 is 2.03x
	// channel 0); 0 when fewer than two are covered or the worst never
	// flipped.
	MaxOverMinWCDP float64
	// MaxSpreadPct is the largest cross-channel BER spread over all
	// patterns: (max-min)/max of channel mean BER (paper: up to 79 %);
	// undefined when no pattern has two covered channels and a flip.
	MaxSpreadPct Value
	// MaxBER is the highest per-row BER observed anywhere, in percent.
	MaxBER float64
}

// Headlines computes Fig3Headlines from the records.
func (f Fig3) Headlines() Fig3Headlines {
	h := Fig3Headlines{WCDPMeanBER: make([]float64, f.Channels)}
	wcdpIdx := len(core.Table1())
	var covered []float64
	for ch := range h.WCDPMeanBER {
		if vals := distribution(f.Rows, wcdpIdx, ch, berMetric); len(vals) > 0 {
			h.WCDPMeanBER[ch] = stats.Mean(vals)
			covered = append(covered, h.WCDPMeanBER[ch])
		}
	}
	if len(covered) > 1 {
		if lo, hi := stats.MinMax(covered); lo > 0 {
			h.MaxOverMinWCDP = hi / lo
		}
	}
	for pi := range seriesNames() {
		means := make([]float64, 0, f.Channels)
		for ch := 0; ch < f.Channels; ch++ {
			if vals := distribution(f.Rows, pi, ch, berMetric); len(vals) > 0 {
				means = append(means, stats.Mean(vals))
			}
		}
		if len(means) < 2 {
			continue
		}
		mlo, mhi := stats.MinMax(means)
		if mhi > 0 {
			if spread := (mhi - mlo) / mhi * 100; !h.MaxSpreadPct.OK || spread > h.MaxSpreadPct.V {
				h.MaxSpreadPct = Value{V: spread, OK: true}
			}
		}
	}
	for _, r := range f.Rows {
		for _, b := range r.BER {
			if b*100 > h.MaxBER {
				h.MaxBER = b * 100
			}
		}
	}
	return h
}

// --- Fig. 4: HCfirst across rows, channels and data patterns ---

// Fig4 is the HCfirst distribution figure over a sweep's row records.
type Fig4 struct {
	Rows     []results.RowRecord
	Channels int
}

// Render draws the figure as ASCII box plots (hammer counts).
func (f Fig4) Render() string {
	return report.RenderBoxes(
		"Fig. 4: minimum hammer count to induce the first bitflip (HCfirst)",
		"hammers", boxGroups(f.Rows, f.Channels, hcMetric))
}

// Fig4Headlines carries the figure's quantitative takeaways.
type Fig4Headlines struct {
	// MinHCFirst is the smallest HCfirst observed across all channels
	// and patterns (paper: 14531); 0 when nothing flipped (a row that
	// flips has a positive HCfirst).
	MinHCFirst int
	// WCDPMeanHC is the mean WCDP HCfirst per channel, undefined for a
	// channel with no flipping row.
	WCDPMeanHC []Value
	// SpreadPct is the cross-channel spread of mean WCDP HCfirst over the
	// channels that flipped, (max-min)/max; undefined when none did.
	SpreadPct Value
	// Ch0Rowstripe0 and Ch0Rowstripe1 are channel 0's mean HCfirst under
	// the two stripe patterns (paper: 57925 and 79179), showing that the
	// effective pattern is channel-dependent.
	Ch0Rowstripe0 Value
	Ch0Rowstripe1 Value
}

// Headlines computes Fig4Headlines from the records.
func (f Fig4) Headlines() Fig4Headlines {
	h := Fig4Headlines{WCDPMeanHC: make([]Value, f.Channels)}
	wcdpIdx := len(core.Table1())
	var flipped []float64
	for ch := range h.WCDPMeanHC {
		h.WCDPMeanHC[ch] = meanOf(distribution(f.Rows, wcdpIdx, ch, hcMetric))
		if h.WCDPMeanHC[ch].OK {
			flipped = append(flipped, h.WCDPMeanHC[ch].V)
		}
	}
	if len(flipped) > 0 {
		lo, hi := stats.MinMax(flipped)
		h.SpreadPct = Value{V: (hi - lo) / hi * 100, OK: true}
	}
	for _, r := range f.Rows {
		for pi, found := range r.Found {
			if found && (h.MinHCFirst == 0 || r.HCFirst[pi] < h.MinHCFirst) {
				h.MinHCFirst = r.HCFirst[pi]
			}
		}
	}
	h.Ch0Rowstripe0 = meanOf(distribution(f.Rows, 0, 0, hcMetric))
	h.Ch0Rowstripe1 = meanOf(distribution(f.Rows, 1, 0, hcMetric))
	return h
}

// --- Fig. 5: BER vs physical row address ---

// Fig5 is the per-row WCDP BER profile over the regions of a sweep's row
// records.
type Fig5 struct {
	Rows     []results.RowRecord
	Regions  []string
	Channels int
}

// Profile returns, for one region, the sampled physical rows and one BER
// series (percent) per channel. Every channel samples the same rows, in
// ascending order, so the x axis is the first measured channel's.
func (f Fig5) Profile(region string) (xs []int, series []report.ProfileSeries) {
	byCh := make([][]results.RowRecord, f.Channels)
	for _, r := range f.Rows {
		if r.Region == region && r.Channel < f.Channels {
			byCh[r.Channel] = append(byCh[r.Channel], r)
		}
	}
	for ch, rows := range byCh {
		var vals []float64
		for _, r := range rows {
			vals = append(vals, r.WCDPBER()*100)
		}
		if xs == nil {
			for _, r := range rows {
				xs = append(xs, r.PhysRow)
			}
		}
		series = append(series, report.ProfileSeries{
			Label:  "ch" + strconv.Itoa(ch),
			Values: vals,
		})
	}
	return xs, series
}

// Render draws every region's profile.
func (f Fig5) Render() string {
	out := "Fig. 5: WCDP BER for rows across a bank (periodic within subarrays)\n"
	for _, region := range f.Regions {
		xs, series := f.Profile(region)
		out += report.RenderProfile(fmt.Sprintf("region %q", region), xs, series)
	}
	return out
}

// Fig5Headlines carries the figure's quantitative takeaways.
type Fig5Headlines struct {
	// LastSubarrayRatio is the mean WCDP BER of rows in the bank's final
	// subarray divided by the mean over all other tested rows; the paper
	// observes the last 832 rows substantially weaker (ratio << 1).
	LastSubarrayRatio Value
	// MidOverEdge is the mean BER of rows in the middle third of their
	// subarray over rows in the outer thirds; the paper observes BER
	// peaking mid-subarray (ratio > 1).
	MidOverEdge Value
}

// Headlines computes Fig5Headlines from the records.
func (f Fig5) Headlines() Fig5Headlines {
	var last, rest, mid, edge []float64
	for _, r := range f.Rows {
		ber := r.WCDPBER() * 100
		if r.LastSubarray {
			last = append(last, ber)
			continue
		}
		rest = append(rest, ber)
		third := r.SubarraySize / 3
		if r.SubarrayOffset >= third && r.SubarrayOffset < 2*third {
			mid = append(mid, ber)
		} else {
			edge = append(edge, ber)
		}
	}
	return Fig5Headlines{
		LastSubarrayRatio: ratioOf(last, rest),
		MidOverEdge:       ratioOf(mid, edge),
	}
}
