// TRR discovery: reproduce Section 5 of the paper. The U-TRR methodology
// uses data-retention failures as a side channel to detect when the
// chip's undisclosed Target Row Refresh mechanism refreshes a victim row,
// exposing how many periodic REF commands pass between its victim
// refreshes.
package main

import (
	"fmt"
	"log"

	hbmrh "github.com/safari-repro/hbmrh"
)

func main() {
	bank := hbmrh.BankAddr{Channel: 1, PseudoChannel: 0, Bank: 2}
	study, err := hbmrh.RunExperiment("trrstudy", hbmrh.ExperimentOptions{
		Cfg:        hbmrh.SmallChip(),
		Bank:       bank,
		Iterations: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hbmrh.RenderExperimentArtifact(study))

	// Control: a chip without the proprietary mitigation shows decay in
	// every iteration.
	cfg := hbmrh.SmallChip()
	cfg.TRR.Enabled = false
	control, err := hbmrh.RunExperiment("trrstudy", hbmrh.ExperimentOptions{
		Cfg:        cfg,
		Bank:       bank,
		Iterations: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	refreshed := control.TRR[0].Refreshed
	fires := 0
	for _, r := range refreshed {
		if r {
			fires++
		}
	}
	fmt.Printf("\ncontrol chip without TRR: %d victim refreshes in %d iterations\n", fires, len(refreshed))
}
