// utrr-discover reproduces Section 5 of the paper: it profiles a
// retention-weak row and runs the U-TRR methodology to uncover the
// proprietary in-DRAM Target Row Refresh mechanism and its period (the
// registry's "trrstudy" experiment). With -probe it runs the deeper
// follow-up probes instead (victim-refresh neighbor radius and sampler
// depth, the "utrrprobe" experiment). At the default bank
// `characterize -experiment trrstudy|utrrprobe` prints the same report,
// with sharding and artifact export.
//
// Usage:
//
//	utrr-discover [-chip paper|small] [-iterations N] [-probe]
//	              [-channel N] [-pc N] [-bank N] [-csv FILE]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	hbmrh "github.com/safari-repro/hbmrh"
	"github.com/safari-repro/hbmrh/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("utrr-discover: ")
	var (
		chip       = flag.String("chip", "small", "chip preset: paper or small")
		iterations = flag.Int("iterations", 100, "U-TRR iterations (paper: 100)")
		channel    = flag.Int("channel", 0, "channel of the profiled row")
		pc         = flag.Int("pc", 0, "pseudo channel of the profiled row")
		bank       = flag.Int("bank", 0, "bank of the profiled row")
		probe      = flag.Bool("probe", false, "run the deeper probes (neighbor radius + sampler depth) instead of the period study")
		csvPath    = flag.String("csv", "", "write the period study's per-iteration observations to this CSV file")
	)
	flag.Parse()
	if err := checkFlags(*iterations, *probe, *csvPath); err != nil {
		log.Fatal(err)
	}
	cfg := hbmrh.SmallChip()
	if *chip == "paper" {
		cfg = hbmrh.PaperChip()
	} else if *chip != "small" {
		log.Fatalf("unknown -chip %q", *chip)
	}

	name := "trrstudy"
	if *probe {
		name = "utrrprobe"
	}
	a, err := hbmrh.RunExperiment(name, hbmrh.ExperimentOptions{
		Cfg:        cfg,
		Bank:       hbmrh.BankAddr{Channel: *channel, PseudoChannel: *pc, Bank: *bank},
		Iterations: *iterations,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hbmrh.RenderExperimentArtifact(a))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		hd, rows := a.TRR[0].CSV()
		if err := report.WriteCSV(f, hd, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}

// checkFlags rejects flag values the study cannot honour: a
// non-positive iteration count is a typo, not a request for the default,
// and -probe records no iterations for -csv to write.
func checkFlags(iterations int, probe bool, csvPath string) error {
	if iterations <= 0 {
		return fmt.Errorf("-iterations %d: must be > 0", iterations)
	}
	if probe && csvPath != "" {
		return fmt.Errorf("-csv writes the period study's iterations; -probe records none")
	}
	return nil
}
