// revmap reverse-engineers the in-DRAM row address mapping and subarray
// boundaries of one bank, using single-sided RowHammer adjacency probing
// (paper Section 3.1 and footnote 3), then checks the recovered layout
// against the simulator's ground truth.
//
// Usage:
//
//	revmap [-chip paper|small] [-channel N] [-pc N] [-bank N]
package main

import (
	"flag"
	"fmt"
	"log"

	hbmrh "github.com/safari-repro/hbmrh"
	"github.com/safari-repro/hbmrh/internal/config"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("revmap: ")
	var (
		chip    = flag.String("chip", "small", "chip preset: paper or small (paper probes 16K rows; slow)")
		channel = flag.Int("channel", 0, "channel to probe")
		pc      = flag.Int("pc", 0, "pseudo channel to probe")
		bank    = flag.Int("bank", 0, "bank to probe")
	)
	flag.Parse()

	cfg, err := config.Preset(*chip)
	if err != nil {
		log.Fatal(err)
	}

	h, err := hbmrh.NewHarnessFromConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ba := hbmrh.BankAddr{Channel: *channel, PseudoChannel: *pc, Bank: *bank}
	fmt.Printf("probing %v: single-sided hammering of every row, two data rounds each...\n", ba)

	rec, scheme, err := h.RecoverMapping(ba)
	if err != nil {
		log.Fatal(err)
	}

	sizes := rec.SubarraySizes()
	fmt.Printf("recovered %d subarrays, sizes: %v\n", len(sizes), sizes)
	fmt.Printf("classified row mapping scheme: %v\n", scheme)

	// Compare with the simulator's ground truth (a real attacker has no
	// such oracle; this validates the methodology end to end).
	truth := cfg.SubarraySizes
	match := len(truth) == len(sizes)
	if match {
		for i := range truth {
			if truth[i] != sizes[i] {
				match = false
				break
			}
		}
	}
	fmt.Printf("ground truth sizes:  %v\n", truth)
	fmt.Printf("ground truth scheme: %v\n", cfg.Mapping)
	if match && scheme == cfg.Mapping {
		fmt.Println("=> recovery matches ground truth exactly")
	} else {
		fmt.Println("=> MISMATCH against ground truth")
	}
}
