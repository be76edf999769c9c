// calibrate runs the paper-chip characterization at a chosen sampling
// density and prints a paper-vs-measured comparison for every headline
// number in the paper, as markdown tables. The paper's values come from
// the experiments package's claims table, the one the figure reports
// print from.
//
// Usage:
//
//	calibrate [-rows N] [-bankrows N] [-skip6] [-skiptrr]
package main

import (
	"flag"
	"fmt"
	"log"

	hbmrh "github.com/safari-repro/hbmrh"
	"github.com/safari-repro/hbmrh/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	var (
		rows     = flag.Int("rows", 30, "victim rows per region for the fig 3-5 sweep (0 = all)")
		bankRows = flag.Int("bankrows", 8, "rows per bank region for fig 6 (0 = the paper's 100)")
		skip6    = flag.Bool("skip6", false, "skip the fig 6 bank study")
		skipTRR  = flag.Bool("skiptrr", false, "skip the section 5 study")
	)
	flag.Parse()
	// A negative budget is a typo, not a request for the default.
	for _, f := range []struct {
		name string
		v    int
	}{{"rows", *rows}, {"bankrows", *bankRows}} {
		if f.v < 0 {
			log.Fatalf("-%s %d: must be >= 0", f.name, f.v)
		}
	}

	cfg := hbmrh.PaperChip()
	sweep, err := hbmrh.RunExperiment("sweep", hbmrh.ExperimentOptions{Cfg: cfg, Rows: *rows})
	if err != nil {
		log.Fatal(err)
	}
	h3, h4, h5 := experiments.SweepHeadlines(sweep)

	fmt.Println("## Per-channel WCDP means (sweep)")
	fmt.Println()
	fmt.Println("| channel | mean WCDP BER (%) | mean WCDP HCfirst |")
	fmt.Println("|---|---|---|")
	for ch := range h3.WCDPMeanBER {
		fmt.Printf("| %d | %.3f | %s |\n", ch, h3.WCDPMeanBER[ch], h4.WCDPMeanHC[ch].Format("%.0f"))
	}

	measured := map[string]string{
		"fig3.channel_ratio":  fmt.Sprintf("%.2fx", h3.MaxOverMinWCDP),
		"fig3.channel_spread": fmt.Sprintf("%.0f%%", h3.MaxSpreadPct),
		"fig3.max_ber":        fmt.Sprintf("%.2f%%", h3.MaxBER),
		"fig4.min_hcfirst":    fmt.Sprintf("%d", h4.MinHCFirst),
		"fig4.channel_spread": fmt.Sprintf("%.0f%%", h4.SpreadPct),
		"fig4.ch0_rs0":        h4.Ch0Rowstripe0.Format("%.0f"),
		"fig4.ch0_rs1":        h4.Ch0Rowstripe1.Format("%.0f"),
		"fig5.last_subarray":  h5.LastSubarrayRatio.Format("%.2fx"),
		"fig5.mid_edge":       h5.MidOverEdge.Format("mid/edge %.2fx"),
	}
	if !*skip6 {
		fig6, err := hbmrh.RunExperiment("fig6", hbmrh.ExperimentOptions{Cfg: cfg, Rows: *bankRows})
		if err != nil {
			log.Fatal(err)
		}
		h6 := experiments.Fig6{Banks: fig6.Banks}.Headlines()
		measured["fig6.bank_mean"] = fmt.Sprintf("%.2f-%.2f%%", h6.MeanLo, h6.MeanHi)
		measured["fig6.bank_cv"] = fmt.Sprintf("%.2f-%.2f", h6.CVLo, h6.CVHi)
		measured["fig6.intra_channel"] = fmt.Sprintf("%.2f%%", h6.MaxIntraChannelSpread)
		measured["fig6.cross_over_intra"] = fmt.Sprintf("cross/intra %.1fx", h6.CrossOverIntra)
	}
	if !*skipTRR {
		s, err := hbmrh.RunTRRStudy(hbmrh.TRRStudyOptions{Cfg: cfg,
			Bank: hbmrh.BankAddr{Channel: 0, PseudoChannel: 0, Bank: 0}})
		if err != nil {
			log.Fatal(err)
		}
		measured["sec5.trr_period"] = fmt.Sprintf("every %d REFs (periodic=%v)", s.Period, s.Periodic)
	}

	fmt.Println()
	fmt.Println("## Headline comparison")
	fmt.Println()
	fmt.Println("| figure | metric | paper | measured |")
	fmt.Println("|---|---|---|---|")
	for _, c := range experiments.Claims() {
		if m, ok := measured[c.ID]; ok {
			fmt.Printf("| %s | %s | %s | %s |\n", c.Figure, c.Metric, c.PaperText(), m)
		}
	}
}
