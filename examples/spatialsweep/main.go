// Spatial sweep: a scaled-down run of the paper's Section 4 study —
// BER and HCfirst across channels, data patterns and rows — rendering
// miniature versions of Figs. 3, 4 and 5 plus their headline numbers
// from the sweep experiment's artifact.
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
	fmt.Println("Use `go run ./cmd/characterize -chip paper -experiment paper` for the paper comparison.")
	fmt.Println()
	// The sweep runs on the shared execution engine: one worker per CPU
	// by default, with per-channel progress and results identical to a
	// single-worker run.
	sweep, err := hbmrh.RunExperiment("sweep", hbmrh.ExperimentOptions{
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

	// The artifact carries one record per swept row; its registered
	// report draws Figs. 3-5 and their headlines from them, as it would
	// from a merged or store-held sweep artifact.
	fmt.Printf("%d rows measured\n", len(sweep.Rows))
	fmt.Print(hbmrh.RenderExperimentArtifact(sweep))
}
