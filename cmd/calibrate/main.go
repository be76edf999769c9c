// calibrate runs the paper-chip characterization at a chosen sampling
// density and prints a paper-vs-measured comparison for every headline
// number in the paper, as markdown tables.
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
	sweep, err := hbmrh.RunSweep(hbmrh.ExperimentOptions{Cfg: cfg, Rows: *rows})
	if err != nil {
		log.Fatal(err)
	}
	h3 := hbmrh.Fig3{Sweep: sweep}.Headlines()
	h4 := hbmrh.Fig4{Sweep: sweep}.Headlines()
	h5 := hbmrh.Fig5{Sweep: sweep}.Headlines()

	fmt.Println("## Per-channel WCDP means (sweep)")
	fmt.Println()
	fmt.Println("| channel | mean WCDP BER (%) | mean WCDP HCfirst |")
	fmt.Println("|---|---|---|")
	for ch := range h3.WCDPMeanBER {
		fmt.Printf("| %d | %.3f | %.0f |\n", ch, h3.WCDPMeanBER[ch], h4.WCDPMeanHC[ch])
	}
	fmt.Println()
	fmt.Println("## Headline comparison")
	fmt.Println()
	fmt.Println("| metric | paper | measured |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| WCDP BER ratio, worst/best channel | 2.03x | %.2fx |\n", h3.MaxOverMinWCDP)
	fmt.Printf("| max cross-channel BER spread | 79%% | %.0f%% |\n", h3.MaxSpreadPct)
	fmt.Printf("| max per-row BER | 3.13%% | %.2f%% |\n", h3.MaxBER)
	fmt.Printf("| min HCfirst | 14531 | %d |\n", h4.MinHCFirst)
	fmt.Printf("| WCDP HCfirst channel spread | up to 20%% | %.0f%% |\n", h4.SpreadPct)
	fmt.Printf("| ch0 mean HCfirst, Rowstripe0 | 57925 | %.0f |\n", h4.Ch0Rowstripe0)
	fmt.Printf("| ch0 mean HCfirst, Rowstripe1 | 79179 | %.0f |\n", h4.Ch0Rowstripe1)
	fmt.Printf("| last-subarray BER vs rest | far fewer flips | %.2fx |\n", h5.LastSubarrayRatio)
	fmt.Printf("| BER peaks mid-subarray | yes | mid/edge %.2fx |\n", h5.MidOverEdge)

	if !*skip6 {
		f6, err := hbmrh.RunFig6(hbmrh.ExperimentOptions{Cfg: cfg, Rows: *bankRows})
		if err != nil {
			log.Fatal(err)
		}
		h6 := f6.Headlines()
		fmt.Printf("| bank mean BER range | 0.8-1.6%% | %.2f-%.2f%% |\n", h6.MeanLo, h6.MeanHi)
		fmt.Printf("| bank BER CV range | 0.22-0.34 | %.2f-%.2f |\n", h6.CVLo, h6.CVHi)
		fmt.Printf("| max within-channel bank spread | 0.23%% (ch7) | %.2f%% |\n", h6.MaxIntraChannelSpread)
		fmt.Printf("| channel variation dominates banks | yes | cross/intra %.1fx |\n", h6.CrossOverIntra)
	}

	if !*skipTRR {
		s, err := hbmrh.RunTRRStudy(hbmrh.TRRStudyOptions{Cfg: cfg,
			Bank: hbmrh.BankAddr{Channel: 0, PseudoChannel: 0, Bank: 0}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("| TRR victim refresh period | every 17 REFs | every %d REFs (periodic=%v) |\n",
			s.Period, s.Periodic)
	}
}
