package experiments

import "fmt"

// The paper's reported values, in one table. Every report that prints a
// paper value beside a measurement — the registered Figs. 3-6 renderers
// and cmd/calibrate — prints it from here.

// Claim is one value the paper reports.
type Claim struct {
	// ID names the claim in code ("fig3.channel_ratio").
	ID string
	// Figure is where the paper reports it ("Fig. 3", "Sec. 5").
	Figure string
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
	{ID: "fig3.channel_ratio", Figure: "Fig. 3", Metric: "WCDP BER ratio, worst/best channel", Paper: "2.03x"},
	{ID: "fig3.channel_spread", Figure: "Fig. 3", Metric: "max cross-channel BER spread", Paper: "79%"},
	{ID: "fig3.max_ber", Figure: "Fig. 3", Metric: "max per-row BER", Paper: "3.13%"},
	// At full budget every region×channel minimum sits on the fault
	// model's HCfirst floor (14500 on the paper chip), so this claim holds
	// by calibration; the per-group minima carry no signal.
	{ID: "fig4.min_hcfirst", Figure: "Fig. 4", Metric: "min HCfirst", Paper: "14531", SetBy: "Fault.HCFloor"},
	{ID: "fig4.channel_spread", Figure: "Fig. 4", Metric: "WCDP HCfirst channel spread", Paper: "20%"},
	{ID: "fig4.ch0_rs0", Figure: "Fig. 4", Metric: "ch0 mean HCfirst, Rowstripe0", Paper: "57925"},
	{ID: "fig4.ch0_rs1", Figure: "Fig. 4", Metric: "ch0 mean HCfirst, Rowstripe1", Paper: "79179"},
	{ID: "fig5.last_subarray", Figure: "Fig. 5", Metric: "last-subarray BER vs rest", Paper: "far fewer flips"},
	{ID: "fig5.mid_edge", Figure: "Fig. 5", Metric: "BER peaks mid-subarray", Paper: "yes"},
	{ID: "fig6.bank_mean", Figure: "Fig. 6", Metric: "bank mean BER range", Paper: "0.8-1.6%"},
	{ID: "fig6.bank_cv", Figure: "Fig. 6", Metric: "bank BER CV range", Paper: "0.22-0.34"},
	{ID: "fig6.intra_channel", Figure: "Fig. 6", Metric: "max within-channel bank spread", Paper: "0.23% (ch7)"},
	{ID: "fig6.cross_over_intra", Figure: "Fig. 6", Metric: "channel variation dominates banks", Paper: "yes"},
	{ID: "sec5.trr_period", Figure: "Sec. 5", Metric: "TRR victim refresh period", Paper: "every 17 REFs"},
}

// Claims returns the paper's values in report order.
func Claims() []Claim { return append([]Claim(nil), claims...) }

// PaperText is the claim's paper value as a report prints it, with the
// calibration note of a claim a config constant sets.
func (c Claim) PaperText() string {
	if c.SetBy == "" {
		return c.Paper
	}
	return c.Paper + ", calibrated to " + c.SetBy
}

// paper is the report text of the paper value of the claim with the
// given ID. An unknown ID is a programming error and panics.
func paper(id string) string {
	for _, c := range claims {
		if c.ID == id {
			return c.PaperText()
		}
	}
	panic(fmt.Sprintf("experiments: no paper claim %q", id))
}
