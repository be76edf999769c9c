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

// TRRBypassOptions configures the study.
type TRRBypassOptions struct {
	// Cfg is the device configuration; nil means config.PaperChip().
	// The study models nominal operation (periodic REFs at tREFI), so
	// the paper-geometry refresh pointer cadence matters; SmallChip's
	// short bank makes the pointer sweep victims mid-attack.
	Cfg *config.Config
	// Bank is where the attack runs.
	Bank addr.BankAddr
	// Hammers is the double-sided hammer budget (paper: 256K).
	Hammers int
}

// setDefaults resolves the option defaults of the registry entry.
func (o *TRRBypassOptions) setDefaults() {
	if o.Cfg == nil {
		o.Cfg = config.PaperChip()
	}
	if o.Hammers <= 0 {
		o.Hammers = core.DefaultHammers
	}
}

// runBypassArm runs one arm on a fresh device: interleaved double-sided
// hammering with REFs at the nominal tREFI cadence, with or without the
// decoy. It returns the victim's bitflips and the REFs issued.
func runBypassArm(o TRRBypassOptions, decoy bool) (flips, refs int, err error) {
	d, err := hbm.New(o.Cfg)
	if err != nil {
		return 0, 0, err
	}
	if _, err := core.NewHarness(d); err != nil { // ECC off
		return 0, 0, err
	}
	tm := o.Cfg.Timing
	layout := o.Cfg.Layout()
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
		if err := hbm.WriteRow(d, o.Bank, r, rowData); err != nil {
			return 0, 0, err
		}
	}

	// Nominal refresh: one REF per tREFI, with the hammers that fit in
	// between (one double-sided hammer occupies 2*tRC).
	perREF := int(tm.TREFI / (2 * tm.TRC))
	remaining := o.Hammers
	for remaining > 0 {
		chunk := perREF
		if chunk > remaining {
			chunk = remaining
		}
		if err := d.HammerPair(o.Bank, la, lb, chunk); err != nil {
			return 0, 0, err
		}
		remaining -= chunk
		if err := d.AdvanceTime(tm.TRP); err != nil {
			return 0, 0, err
		}
		if decoy {
			// The bypass: one decoy activation right before the REF, so
			// the sampler forgets the real aggressors.
			if err := hbm.RefreshRow(d, o.Bank, decoyRow); err != nil {
				return 0, 0, err
			}
		}
		if err := d.Refresh(o.Bank.Channel, o.Bank.PseudoChannel); err != nil {
			return 0, 0, err
		}
		refs++
		if err := d.AdvanceTime(tm.TRFC); err != nil {
			return 0, 0, err
		}
	}
	got, err := hbm.ReadRow(d, o.Bank, lv)
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
			bo := TRRBypassOptions{Cfg: o.Cfg, Hammers: o.Hammers}
			bo.setDefaults()
			if err := bo.Cfg.Validate(); err != nil {
				return nil, err
			}
			arms := []string{"naive", "decoy"}
			jobs := make([]Job, len(arms))
			for i, name := range arms {
				decoy := i == 1
				jobs[i] = Job{
					Key: name,
					Run: func(_ context.Context, _ *core.Harness) (any, error) {
						flips, refs, err := runBypassArm(bo, decoy)
						if err != nil {
							return nil, err
						}
						return [2]int{flips, refs}, nil
					},
				}
			}
			rowBits := float64(bo.Cfg.Geometry.RowBytes() * 8)
			return &Plan{
				Axis:   "point",
				Cfg:    bo.Cfg,
				Jobs:   jobs,
				Params: map[string]string{"hammers": strconv.Itoa(bo.Hammers)},
				NewFold: func(lo, hi int) *Fold {
					a := &results.Artifact{Meta: results.Meta{GroupBy: results.ByPoint.String()}}
					for _, name := range arms {
						a.Groups = append(a.Groups, results.Group{
							Key: results.Key{Channel: results.NoChannel, Point: name},
							Metrics: []results.Metric{
								{Name: "victim_flips", Stream: stats.NewStream(0, rowBits)},
								{Name: "refreshes", Stream: stats.NewStream(0, float64(bo.Hammers+1))},
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
