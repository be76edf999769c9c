// benderasm assembles and runs textual DRAM Bender programs against the
// simulated HBM2 chip, printing the read FIFO — the workflow a DRAM
// Bender user has against the real FPGA infrastructure.
//
// Usage:
//
//	benderasm [-chip paper|small] [-dis] PROGRAM.bend
//
// With -dis the program is only validated and re-printed in canonical
// form. Reads are printed one column per line as hex.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"

	hbmrh "github.com/safari-repro/hbmrh"
	"github.com/safari-repro/hbmrh/internal/config"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benderasm: ")
	var (
		chip  = flag.String("chip", "small", "chip preset: paper or small")
		dis   = flag.Bool("dis", false, "validate and disassemble only, do not run")
		trace = flag.Bool("trace", false, "log every executed command with its simulated timestamp")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: benderasm [-chip paper|small] [-dis] PROGRAM.bend")
	}

	cfg, err := config.Preset(*chip)
	if err != nil {
		log.Fatal(err)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := hbmrh.AssembleProgram(string(src), cfg.Geometry)
	if err != nil {
		log.Fatal(err)
	}
	if *dis {
		fmt.Print(hbmrh.DisassembleProgram(prog))
		return
	}

	dev, err := hbmrh.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	runner := hbmrh.NewBenderRunner(dev)
	if *trace {
		runner.Trace = os.Stderr
	}
	res, err := runner.Run(dev, prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program completed in %.3f ms simulated time, %d reads\n",
		float64(res.Elapsed)/1e9, len(res.Reads))
	for i, data := range res.Reads {
		fmt.Printf("read %4d: %s\n", i, hex.EncodeToString(data))
	}
}
