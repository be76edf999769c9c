package experiments

import (
	"context"
	"strconv"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/hbm"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// TRR bypass: the attack-side consequence of Section 5. Once the
// proprietary mechanism is uncovered — a single-slot sampler holding the
// most recently activated row, firing a victim refresh every 17 REFs —
// an attacker defeats it by activating a harmless decoy row right before
// every REF. The sampler then always holds the decoy, the TRR spends its
// fires refreshing the decoy's neighbours, and the true victim
// accumulates the full hammer count under completely nominal refresh.
//
// The study models nominal operation (periodic REFs at tREFI), so the
// paper-geometry refresh pointer cadence matters; SmallChip's short bank
// makes the pointer sweep victims mid-attack. It reads Cfg and Hammers
// (the double-sided hammer budget; paper: 256K) from Options and attacks
// bank 0 of channel 0.

// runBypassArm runs one arm on a fresh device: interleaved double-sided
// hammering with REFs at the nominal tREFI cadence, with or without the
// decoy. It returns the victim's bitflips and the REFs issued.
func runBypassArm(cfg *config.Config, bank addr.BankAddr, hammers int, decoy bool) (flips, refs int, err error) {
	d, err := hbm.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	if _, err := core.NewHarness(d); err != nil { // ECC off
		return 0, 0, err
	}
	tm := cfg.Timing
	layout := cfg.Layout()
	// Place the victim late in the bank (but not in the hardened last
	// subarray) so the refresh pointer does not sweep it mid-attack.
	sa := layout.Count() - 2
	physVictim := layout.Start(sa) + layout.Size(sa)/2
	m := d.Mapper()
	lv := m.ToLogical(physVictim)
	la := m.ToLogical(physVictim - 1)
	lb := m.ToLogical(physVictim + 1)
	decoyRow := m.ToLogical(physVictim + 16) // outside the blast radius

	g := d.Geometry()
	pattern := make([]byte, g.RowBytes())
	for i := range pattern {
		pattern[i] = 0xFF
	}
	for r, fill := range map[int]byte{lv: 0xFF, la: 0x00, lb: 0x00} {
		rowData := pattern
		if fill == 0x00 {
			rowData = make([]byte, g.RowBytes())
		}
		if err := hbm.WriteRow(d, bank, r, rowData); err != nil {
			return 0, 0, err
		}
	}

	// Nominal refresh: one REF per tREFI, with the hammers that fit in
	// between (one double-sided hammer occupies 2*tRC).
	perREF := int(tm.TREFI / (2 * tm.TRC))
	remaining := hammers
	for remaining > 0 {
		chunk := perREF
		if chunk > remaining {
			chunk = remaining
		}
		if err := d.HammerPair(bank, la, lb, chunk); err != nil {
			return 0, 0, err
		}
		remaining -= chunk
		if err := d.AdvanceTime(tm.TRP); err != nil {
			return 0, 0, err
		}
		if decoy {
			// The bypass: one decoy activation right before the REF, so
			// the sampler forgets the real aggressors.
			if err := hbm.RefreshRow(d, bank, decoyRow); err != nil {
				return 0, 0, err
			}
		}
		if err := d.Refresh(bank.Channel, bank.PseudoChannel); err != nil {
			return 0, 0, err
		}
		refs++
		if err := d.AdvanceTime(tm.TRFC); err != nil {
			return 0, 0, err
		}
	}
	got, err := hbm.ReadRow(d, bank, lv)
	if err != nil {
		return 0, 0, err
	}
	return hbm.CountMismatches(got, pattern), refs, nil
}

// trrBypassExperiment lifts the sampler-blinding attack comparison onto
// the registry: two point jobs (naive, decoy), each a fresh device under
// nominal refresh.
func trrBypassExperiment() *Experiment {
	return &Experiment{
		Name:  "trrbypass",
		Title: "TRR bypass: naive vs decoy-assisted hammering under nominal refresh",
		Plan: func(o Options) (*Plan, error) {
			cfg, err := resolveChip(o)
			if err != nil {
				return nil, err
			}
			hammers := orDefault(o.Hammers, core.DefaultHammers)
			arms := []string{"naive", "decoy"}
			jobs := make([]Job, len(arms))
			for i, name := range arms {
				decoy := i == 1
				jobs[i] = Job{
					Key: name,
					Run: func(_ context.Context, _ *core.Harness) (any, error) {
						flips, refs, err := runBypassArm(cfg, addr.BankAddr{}, hammers, decoy)
						if err != nil {
							return nil, err
						}
						return [2]int{flips, refs}, nil
					},
				}
			}
			rowBits := float64(cfg.Geometry.RowBytes() * 8)
			return &Plan{
				Axis:   "point",
				Cfg:    cfg,
				Jobs:   jobs,
				Params: map[string]string{"hammers": strconv.Itoa(hammers)},
				NewFold: func(lo, hi int) *Fold {
					a := &results.Artifact{Meta: results.Meta{GroupBy: results.ByPoint.String()}}
					for _, name := range arms {
						a.Groups = append(a.Groups, results.Group{
							Key: results.Key{Channel: results.NoChannel, Point: name},
							Metrics: []results.Metric{
								{Name: "victim_flips", Stream: stats.NewStream(0, rowBits)},
								{Name: "refreshes", Stream: stats.NewStream(0, float64(hammers+1))},
							},
						})
					}
					return &Fold{
						Add: func(i int, payload any) error {
							arm := payload.([2]int)
							ms := a.Groups[i].Metrics
							ms[0].Stream.Add(float64(arm[0]))
							ms[1].Stream.Add(float64(arm[1]))
							return nil
						},
						Finish: func() (*results.Artifact, error) { return a, nil },
					}
				},
			}, nil
		},
	}
}
