package experiments

import (
	"fmt"
	"maps"
	"strings"

	"github.com/safari-repro/hbmrh/internal/results"
)

// The paper's reported values, in one table, and their measurement on an
// artifact: every report that prints a paper value prints it from here.

// Claim is one value the paper reports.
type Claim struct {
	// ID names the claim in code ("fig3.channel_ratio").
	ID string
	// Figure is where the paper reports it ("Fig. 3", "Sec. 5").
	Figure string
	// Tool is the experiment whose artifact measures it: sweep, fig6 or
	// trrstudy.
	Tool string
	// Metric says what is compared.
	Metric string
	// Paper is the paper's value as printed.
	Paper string
	// SetBy names the config constant that sets the simulated value by
	// construction, for a claim that holds by calibration rather than by
	// measurement; empty for a measured claim.
	SetBy string
}

// claims lists the paper's values in report order.
var claims = []Claim{
	{ID: "fig3.channel_ratio", Figure: "Fig. 3", Tool: "sweep", Metric: "worst/best channel WCDP BER ratio", Paper: "2.03x"},
	{ID: "fig3.channel_spread", Figure: "Fig. 3", Tool: "sweep", Metric: "max cross-channel BER spread", Paper: "79%"},
	{ID: "fig3.max_ber", Figure: "Fig. 3", Tool: "sweep", Metric: "max per-row BER", Paper: "3.13%"},
	// At full budget every region×channel minimum sits on the fault
	// model's HCfirst floor (14500 on the paper chip), so this claim holds
	// by calibration; the per-group minima carry no signal.
	{ID: "fig4.min_hcfirst", Figure: "Fig. 4", Tool: "sweep", Metric: "min HCfirst", Paper: "14531", SetBy: "Fault.HCFloor"},
	{ID: "fig4.channel_spread", Figure: "Fig. 4", Tool: "sweep", Metric: "WCDP HCfirst channel spread", Paper: "20%"},
	{ID: "fig4.ch0_rs0", Figure: "Fig. 4", Tool: "sweep", Metric: "ch0 Rowstripe0 mean HCfirst", Paper: "57925"},
	{ID: "fig4.ch0_rs1", Figure: "Fig. 4", Tool: "sweep", Metric: "ch0 Rowstripe1 mean HCfirst", Paper: "79179"},
	{ID: "fig5.last_subarray", Figure: "Fig. 5", Tool: "sweep", Metric: "last-subarray BER ratio", Paper: "far fewer flips"},
	{ID: "fig5.mid_edge", Figure: "Fig. 5", Tool: "sweep", Metric: "mid/edge ratio", Paper: "BER peaks mid-subarray"},
	{ID: "fig6.bank_mean", Figure: "Fig. 6", Tool: "fig6", Metric: "bank mean BER", Paper: "0.8-1.6%"},
	{ID: "fig6.bank_cv", Figure: "Fig. 6", Tool: "fig6", Metric: "bank BER CV", Paper: "0.22-0.34"},
	{ID: "fig6.intra_channel", Figure: "Fig. 6", Tool: "fig6", Metric: "max within-channel bank spread", Paper: "0.23%, ch7"},
	{ID: "fig6.cross_over_intra", Figure: "Fig. 6", Tool: "fig6", Metric: "cross/intra channel spread", Paper: "channel variation dominates"},
	{ID: "sec5.trr_period", Figure: "Sec. 5", Tool: "trrstudy", Metric: "TRR victim refresh period", Paper: "every 17 REFs"},
}

// PaperText is the claim's paper value as a report prints it, with the
// calibration note of a claim a config constant sets.
func (c Claim) PaperText() string {
	if c.SetBy == "" {
		return c.Paper
	}
	return c.Paper + ", calibrated to " + c.SetBy
}

// measures maps each Tool to the measured text of its claims on its
// artifact, by claim ID; an undefined value reads "none", not a sentinel.
var measures = map[string]func(a *results.Artifact) map[string]string{
	"sweep":    measureSweep,
	"fig6":     measureFig6,
	"trrstudy": measureSection5,
}

func measureSweep(a *results.Artifact) map[string]string {
	h3, h4, h5 := SweepHeadlines(a)
	return map[string]string{
		"fig3.channel_ratio":  Value{h3.MaxOverMinWCDP, h3.MaxOverMinWCDP > 0}.Format("%.2fx"),
		"fig3.channel_spread": h3.MaxSpreadPct.Format("%.0f%%"),
		"fig3.max_ber":        fmt.Sprintf("%.2f%%", h3.MaxBER),
		"fig4.min_hcfirst":    Value{float64(h4.MinHCFirst), h4.MinHCFirst > 0}.Format("%.0f"),
		"fig4.channel_spread": h4.SpreadPct.Format("%.0f%%"),
		"fig4.ch0_rs0":        h4.Ch0Rowstripe0.Format("%.0f"),
		"fig4.ch0_rs1":        h4.Ch0Rowstripe1.Format("%.0f"),
		"fig5.last_subarray":  h5.LastSubarrayRatio.Format("%.2fx"),
		"fig5.mid_edge":       h5.MidOverEdge.Format("%.2fx"),
	}
}

func measureFig6(a *results.Artifact) map[string]string {
	h := Fig6{Banks: a.Banks}.Headlines()
	banks := len(a.Banks) > 0
	return map[string]string{
		"fig6.bank_mean":        rangeOf(h.MeanLo, h.MeanHi, banks, "%"),
		"fig6.bank_cv":          rangeOf(h.CVLo, h.CVHi, h.CVHi > 0, ""),
		"fig6.intra_channel":    Value{h.MaxIntraChannelSpread, banks}.Format("%.2f%%"),
		"fig6.cross_over_intra": Value{h.CrossOverIntra, h.CrossOverIntra > 0}.Format("%.1fx"),
	}
}

// rangeOf formats lo-hi and a unit, or "none" when the range is
// undefined.
func rangeOf(lo, hi float64, ok bool, unit string) string {
	if !ok {
		return "none"
	}
	return fmt.Sprintf("%.2f-%.2f%s", lo, hi, unit)
}

func measureSection5(a *results.Artifact) map[string]string {
	period, periodic := TRRPeriod(a)
	return map[string]string{
		"sec5.trr_period": Value{float64(period), periodic}.Format("every %.0f REFs"),
	}
}

// headlines is a figure's headline line: each of its claims as "metric
// measured (paper X)", measured on m.
func headlines(figure string, m map[string]string) string {
	var parts []string
	for _, c := range claims {
		if c.Figure == figure {
			parts = append(parts, fmt.Sprintf("%s %s (paper %s)", c.Metric, m[c.ID], c.PaperText()))
		}
	}
	return "headlines: " + strings.Join(parts, "; ") + "\n"
}

// ClaimsTable is the paper-vs-measured markdown table: a row per claim,
// measured on its tool's artifact in arts.
func ClaimsTable(arts ...*results.Artifact) string {
	measured := map[string]string{}
	for _, a := range arts {
		if m := measures[a.Meta.Tool]; m != nil {
			maps.Copy(measured, m(a))
		}
	}
	var sb strings.Builder
	sb.WriteString("| figure | metric | paper | measured |\n|---|---|---|---|\n")
	for _, c := range claims {
		fmt.Fprintf(&sb, "| %s | %s | %s | %s |\n", c.Figure, c.Metric, c.PaperText(), measured[c.ID])
	}
	return sb.String()
}
