// utrr-discover reproduces Section 5 of the paper: it profiles a
// retention-weak row and runs the U-TRR methodology to uncover the
// proprietary in-DRAM Target Row Refresh mechanism and its period.
// With -probe it runs the deeper follow-up probes instead (victim-refresh
// neighbor radius and sampler depth), the registry's "utrrprobe"
// experiment — `characterize -experiment utrrprobe` runs the same study
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
		csvPath    = flag.String("csv", "", "write per-iteration observations to this CSV file")
	)
	flag.Parse()
	// A non-positive iteration count is a typo, not a request for the
	// default.
	if *iterations <= 0 {
		log.Fatalf("-iterations %d: must be > 0", *iterations)
	}

	cfg := hbmrh.SmallChip()
	if *chip == "paper" {
		cfg = hbmrh.PaperChip()
	} else if *chip != "small" {
		log.Fatalf("unknown -chip %q", *chip)
	}

	if *probe {
		s, err := hbmrh.RunUTRRProbe(hbmrh.UTRRProbeOptions{
			Cfg:  cfg,
			Bank: hbmrh.BankAddr{Channel: *channel, PseudoChannel: *pc, Bank: *bank},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(s.Render())
		return
	}

	study, err := hbmrh.RunTRRStudy(hbmrh.TRRStudyOptions{
		Cfg:        cfg,
		Bank:       hbmrh.BankAddr{Channel: *channel, PseudoChannel: *pc, Bank: *bank},
		Iterations: *iterations,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(study.Render())
	if study.Periodic {
		fmt.Printf("\npaper: \"this TRR mechanism performs a victim row refresh once every 17"+
			" periodic REF commands\" — measured period: %d\n", study.Period)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		hd, rows := study.CSV()
		if err := report.WriteCSV(f, hd, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}
