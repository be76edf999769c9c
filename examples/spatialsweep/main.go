// Spatial sweep: a scaled-down run of the paper's Section 4 study —
// BER and HCfirst across channels, data patterns and rows — rendering
// miniature versions of Figs. 3, 4 and 5 plus their headline numbers.
package main

import (
	"fmt"
	"log"
	"os"

	hbmrh "github.com/safari-repro/hbmrh"
)

func main() {
	fmt.Println("note: this demo runs the scaled-down SmallChip; shapes and orderings match")
	fmt.Println("the paper, while absolute HCfirst values sit higher (fewer cells per row).")
	fmt.Println("Use `go run ./cmd/calibrate` for the full-geometry paper-number comparison.")
	fmt.Println()
	// The sweep runs on the shared execution engine: one worker per CPU
	// by default, with per-channel progress and results identical to a
	// single-worker run.
	sweep, err := hbmrh.RunSweep(hbmrh.ExperimentOptions{
		Cfg:  hbmrh.SmallChip(),
		Rows: 16, // sample 16 victims per region; 0 tests every row
		Progress: func(p hbmrh.EngineProgress) {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d channels\n", p.Done, p.Total)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	st := hbmrh.EngineStats()
	fmt.Printf("engine pool: %d devices built, %d warm reuses\n\n", st.Created, st.Reused)

	fig3 := hbmrh.Fig3{Sweep: sweep}
	fmt.Print(fig3.Render())
	h3 := fig3.Headlines()
	fmt.Printf("\nchannel mean WCDP BER (%%): ")
	for ch, m := range h3.WCDPMeanBER {
		fmt.Printf("ch%d=%.2f ", ch, m)
	}
	fmt.Printf("\nmost/least vulnerable channel ratio: %.2fx (paper: 2.03x)\n", h3.MaxOverMinWCDP)
	fmt.Printf("max cross-channel BER spread: %.0f%% (paper: up to 79%%)\n\n", h3.MaxSpreadPct)

	fig4 := hbmrh.Fig4{Sweep: sweep}
	fmt.Print(fig4.Render())
	h4 := fig4.Headlines()
	fmt.Printf("\nminimum HCfirst observed: %d (paper: 14531)\n", h4.MinHCFirst)
	fmt.Printf("ch0 mean HCfirst Rowstripe0 vs Rowstripe1: %.0f vs %.0f (paper: 57925 vs 79179)\n\n",
		h4.Ch0Rowstripe0, h4.Ch0Rowstripe1)

	fig5 := hbmrh.Fig5{Sweep: sweep}
	fmt.Print(fig5.Render())
	h5 := fig5.Headlines()
	fmt.Printf("\nlast-subarray BER vs rest: %.2fx (paper: substantially weaker)\n", h5.LastSubarrayRatio)
	fmt.Printf("mid-subarray BER vs edges: %.2fx (paper: BER peaks mid-subarray)\n", h5.MidOverEdge)
}
