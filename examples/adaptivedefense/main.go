// Adaptive defense: the paper's second implication. "An RH defense
// mechanism can adapt itself to the heterogeneous distribution of the RH
// vulnerability across channels and subarrays, which may allow the
// defense mechanism to more efficiently prevent RH bitflips."
//
// This example characterizes each channel's minimum HCfirst, builds two
// controller-side preventive-refresh policies — a uniform one derived
// from the worst channel, and an adaptive per-channel one — and subjects
// both to the same multi-channel hammering attack. Both prevent every
// bitflip; the adaptive policy spends markedly fewer preventive
// refreshes.
package main

import (
	"fmt"
	"log"

	hbmrh "github.com/safari-repro/hbmrh"
)

func main() {
	cfg := hbmrh.SmallChip()

	// Step 1: characterize (the defender's calibration pass).
	h, err := hbmrh.NewHarnessFromConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	layout := cfg.Layout()
	probe := layout.Start(1) + layout.Size(1)/2
	profile := make([]int, cfg.Geometry.Channels)
	for ch := range profile {
		minHC := hbmrh.DefaultHammers
		for i := 0; i < 3; i++ {
			w, err := h.WCDP(hbmrh.BankAddr{Channel: ch}, probe+5*i, hbmrh.DefaultHammers)
			if err != nil {
				log.Fatal(err)
			}
			if w.Found && w.HCFirst < minHC {
				minHC = w.HCFirst
			}
		}
		profile[ch] = minHC
		fmt.Printf("channel %d: min HCfirst ~%d\n", ch, minHC)
	}

	// Step 2: build the two policies.
	worst := profile[0]
	for _, hc := range profile {
		if hc < worst {
			worst = hc
		}
	}
	uniform := hbmrh.UniformPolicy{T: hbmrh.SafetyFromHCFirst(worst)}
	adaptive := hbmrh.AdaptivePolicy{PerChannel: make([]int, len(profile))}
	for ch, hc := range profile {
		adaptive.PerChannel[ch] = hbmrh.SafetyFromHCFirst(hc)
	}

	// Step 3: attack every channel under each policy.
	attack := func(policy hbmrh.DefensePolicy) (int, int64) {
		hh, err := hbmrh.NewHarnessFromConfig(cfg)
		if err != nil {
			log.Fatal(err)
		}
		guard := hbmrh.NewDefenseGuard(hh, policy)
		m := hh.Device().Mapper()
		lv := m.ToLogical(probe)
		flips := 0
		for ch := 0; ch < cfg.Geometry.Channels; ch++ {
			b := hbmrh.BankAddr{Channel: ch}
			if _, err := hh.Exec(func(bb *hbmrh.BenderBuilder) { bb.WriteRowFill(b, lv, 0xFF) }); err != nil {
				log.Fatal(err)
			}
			if err := guard.Hammer(b, m.ToLogical(probe-1), m.ToLogical(probe+1),
				3*hbmrh.DefaultHammers); err != nil {
				log.Fatal(err)
			}
			res, err := hh.Exec(func(bb *hbmrh.BenderBuilder) { bb.ReadRowOut(b, lv) })
			if err != nil {
				log.Fatal(err)
			}
			flips += hbmrh.CountFlips(res.Reads, 0xFF)
		}
		return flips, guard.Stats().PreventiveRefreshes
	}

	fmt.Println("\nattack: 3x256K double-sided hammers on one victim per channel")
	uf, ur := attack(uniform)
	fmt.Printf("uniform  policy (T=%6d everywhere): %d bitflips, %5d preventive refreshes\n",
		uniform.T, uf, ur)
	af, ar := attack(adaptive)
	fmt.Printf("adaptive policy (per-channel T):      %d bitflips, %5d preventive refreshes\n", af, ar)
	if uf == 0 && af == 0 && ar < ur {
		fmt.Printf("\n=> equal protection, %.0f%% fewer preventive refreshes by adapting to\n", 100*(1-float64(ar)/float64(ur)))
		fmt.Println("   the per-channel vulnerability profile (the paper's defense implication)")
	}
}
