package experiments

import (
	"context"
	"fmt"
	"strconv"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/hbm"
	"github.com/safari-repro/hbmrh/internal/thermal"
)

// Extension studies implementing the paper's Section 6 future-work
// directions: RowPress sensitivity (aggressor-on time), temperature
// sensitivity, and cross-channel interference.

// RowPressOptions configures the aggressor-on-time study.
type RowPressOptions struct {
	// Cfg is the device configuration; nil means config.PaperChip().
	Cfg *config.Config
	// Bank selects where victims are tested.
	Bank addr.BankAddr
	// Rows is how many mid-bank victim rows are averaged per point.
	Rows int
	// HoldMultipliers are the tRAS multiples to sweep (paper-adjacent
	// work sweeps aggressor-on time; 1 = standard RowHammer).
	HoldMultipliers []int
	// MaxHammers bounds the per-point HCfirst search.
	MaxHammers int
}

// setDefaults resolves the option defaults of the registry entry.
func (o *RowPressOptions) setDefaults() {
	if o.Cfg == nil {
		o.Cfg = config.PaperChip()
	}
	if o.Rows <= 0 {
		o.Rows = 6
	}
	if len(o.HoldMultipliers) == 0 {
		o.HoldMultipliers = []int{1, 2, 4, 8, 16}
	}
	if o.MaxHammers <= 0 {
		o.MaxHammers = core.DefaultHammers
	}
}

// rowPressPoint measures one hold multiplier: the HCfirst samples of the
// sampled victim rows (rows that never flip are excluded, with foundAll
// cleared). Each sample is a pure function of (seed, bank, row, hold), so
// pooled devices reproduce the sequential results exactly.
func rowPressPoint(h *core.Harness, o RowPressOptions, mult int) (hcs []float64, foundAll bool, err error) {
	layout := o.Cfg.Layout()
	sa := layout.Count() / 2
	start := layout.Start(sa) + layout.Size(sa)/4
	tras := o.Cfg.Timing.TRAS
	pattern := core.Table1()[1] // Rowstripe1
	foundAll = true
	for i := 0; i < o.Rows; i++ {
		phys := start + i*3
		hc, found, err := h.HCFirstHold(o.Bank, phys, pattern, o.MaxHammers, tras*int64(mult))
		if err != nil {
			return nil, false, err
		}
		if !found {
			foundAll = false
			continue
		}
		hcs = append(hcs, float64(hc))
	}
	return hcs, foundAll, nil
}

// rowPressExperiment lifts the RowPress sweep onto the registry: one
// harness job per hold multiplier, weighted by the multiplier (longer
// holds simulate more wall time), folding raw per-row HCfirst samples
// into a point-axis artifact.
func rowPressExperiment() *Experiment {
	return &Experiment{
		Name:  "rowpress",
		Title: "RowPress extension: HCfirst distribution vs aggressor-on time",
		Plan: func(o Options) (*Plan, error) {
			ro := RowPressOptions{Cfg: o.Cfg, Rows: o.Rows, MaxHammers: o.Hammers}
			ro.setDefaults()
			if err := ro.Cfg.Validate(); err != nil {
				return nil, err
			}
			jobs := make([]Job, len(ro.HoldMultipliers))
			for i, mult := range ro.HoldMultipliers {
				mult := mult
				jobs[i] = Job{
					Key:    fmt.Sprintf("hold_x%d", mult),
					Weight: float64(mult),
					Run: func(_ context.Context, h *core.Harness) (any, error) {
						hcs, _, err := rowPressPoint(h, ro, mult)
						return hcs, err
					},
				}
			}
			return &Plan{
				Axis:    "point",
				Cfg:     ro.Cfg,
				Harness: true,
				Jobs:    jobs,
				Params: map[string]string{
					"rows":    strconv.Itoa(ro.Rows),
					"hammers": strconv.Itoa(ro.MaxHammers),
				},
				NewFold: pointFold(jobs, "hc_first", 0, float64(ro.MaxHammers)),
			}, nil
		},
	}
}

// TempSweepOptions configures the temperature-sensitivity study.
type TempSweepOptions struct {
	// Cfg is the device configuration; nil means config.PaperChip().
	Cfg *config.Config
	// Bank selects where victims are tested.
	Bank addr.BankAddr
	// Rows is how many victim rows are averaged per temperature.
	Rows int
	// TemperaturesC are the setpoints; the thermal rig settles each.
	TemperaturesC []float64
	// Hammers is the per-row BER hammer count.
	Hammers int
}

// setDefaults resolves the option defaults of the registry entry.
func (o *TempSweepOptions) setDefaults() {
	if o.Cfg == nil {
		o.Cfg = config.PaperChip()
	}
	if o.Rows <= 0 {
		o.Rows = 6
	}
	if len(o.TemperaturesC) == 0 {
		o.TemperaturesC = []float64{55, 65, 75, 85, 95}
	}
	if o.Hammers <= 0 {
		o.Hammers = core.DefaultHammers
	}
}

// tempSweepPoint measures one setpoint: build a fresh device (temperature
// changes persistent device state, so the warm pool is bypassed), settle
// it with the PID rig as on the real bench, and return the sampled rows'
// BER in percent.
func tempSweepPoint(o TempSweepOptions, target float64) ([]float64, error) {
	layout := o.Cfg.Layout()
	sa := layout.Count() / 2
	start := layout.Start(sa) + layout.Size(sa)/4
	pattern := core.Table1()[1]
	d, err := hbm.New(o.Cfg)
	if err != nil {
		return nil, err
	}
	ctl := thermal.NewController(d, thermal.NewPlant(25))
	if err := ctl.SettleTo(target, 0.5, 5, 1800); err != nil {
		return nil, fmt.Errorf("experiments: settling to %.0f C: %w", target, err)
	}
	h, err := core.NewHarness(d)
	if err != nil {
		return nil, err
	}
	bers := make([]float64, 0, o.Rows)
	for i := 0; i < o.Rows; i++ {
		phys := start + i*3
		r, err := h.BER(o.Bank, phys, pattern, o.Hammers)
		if err != nil {
			return nil, err
		}
		bers = append(bers, r.BER()*100)
	}
	return bers, nil
}

// tempSweepExperiment lifts the temperature study onto the registry: one
// point job per PID-settled setpoint, folding raw per-row BER samples
// into a point-axis artifact.
func tempSweepExperiment() *Experiment {
	return &Experiment{
		Name:  "tempsweep",
		Title: "temperature extension: RowHammer BER distribution across PID-settled setpoints",
		Plan: func(o Options) (*Plan, error) {
			to := TempSweepOptions{Cfg: o.Cfg, Rows: o.Rows, Hammers: o.Hammers}
			to.setDefaults()
			if err := to.Cfg.Validate(); err != nil {
				return nil, err
			}
			jobs := make([]Job, len(to.TemperaturesC))
			for i, target := range to.TemperaturesC {
				target := target
				jobs[i] = Job{
					Key: fmt.Sprintf("t=%gC", target),
					Run: func(_ context.Context, _ *core.Harness) (any, error) {
						return tempSweepPoint(to, target)
					},
				}
			}
			return &Plan{
				Axis: "point",
				Cfg:  to.Cfg,
				Jobs: jobs,
				Params: map[string]string{
					"rows":    strconv.Itoa(to.Rows),
					"hammers": strconv.Itoa(to.Hammers),
				},
				NewFold: pointFold(jobs, "ber_pct", 0, 100),
			}, nil
		},
	}
}

// CrossChannelOptions configures the cross-channel interference probe.
type CrossChannelOptions struct {
	// Cfg is the device configuration; nil means config.PaperChip().
	// The study runs it twice: once as-is and once with the synthetic
	// vertical coupling below.
	Cfg *config.Config
	// SyntheticCoupling is the VerticalCoupling used for the "what if"
	// arm of the study.
	SyntheticCoupling float64
	// AggressorChannel is hammered; victims are read in channel +/- 2.
	AggressorChannel int
	// Activations per probed row.
	Activations int
	// Rows probed.
	Rows int
}

// setDefaults resolves the option defaults of the registry entry.
func (o *CrossChannelOptions) setDefaults() {
	if o.Cfg == nil {
		o.Cfg = config.PaperChip()
	}
	if o.SyntheticCoupling <= 0 {
		o.SyntheticCoupling = 0.5
	}
	if o.Activations <= 0 {
		o.Activations = 1_000_000
	}
	if o.Rows <= 0 {
		o.Rows = 4
	}
}

// crossChannelArm measures one arm of the probe: hammer rows in the
// aggressor channel of a fresh device with the given vertical coupling
// and count bitflips in the same physical rows of channels +/- 2.
func crossChannelArm(o CrossChannelOptions, coupling float64) (int, error) {
	cfg := *o.Cfg
	cfg.Fault.VerticalCoupling = coupling
	d, err := hbm.New(&cfg)
	if err != nil {
		return 0, err
	}
	if _, err := core.NewHarness(d); err != nil { // ECC off
		return 0, err
	}
	layout := cfg.Layout()
	sa := layout.Count() / 2
	start := layout.Start(sa) + layout.Size(sa)/4
	g := cfg.Geometry
	m := d.Mapper()
	victimChannels := []int{o.AggressorChannel - 2, o.AggressorChannel + 2}
	pattern := make([]byte, g.RowBytes())
	for i := range pattern {
		pattern[i] = 0xFF
	}
	flips := 0
	for i := 0; i < o.Rows; i++ {
		phys := start + i*5
		logical := m.ToLogical(phys)
		for _, vch := range victimChannels {
			if vch < 0 || vch >= g.Channels {
				continue
			}
			vb := addr.BankAddr{Channel: vch, PseudoChannel: 0, Bank: 0}
			if err := hbm.WriteRow(d, vb, logical, pattern); err != nil {
				return 0, err
			}
		}
		ab := addr.BankAddr{Channel: o.AggressorChannel, PseudoChannel: 0, Bank: 0}
		if err := d.HammerSingle(ab, logical, o.Activations); err != nil {
			return 0, err
		}
		if err := d.AdvanceTime(cfg.Timing.TRP); err != nil {
			return 0, err
		}
		for _, vch := range victimChannels {
			if vch < 0 || vch >= g.Channels {
				continue
			}
			vb := addr.BankAddr{Channel: vch, PseudoChannel: 0, Bank: 0}
			got, err := hbm.ReadRow(d, vb, logical)
			if err != nil {
				return 0, err
			}
			flips += hbm.CountMismatches(got, pattern)
		}
	}
	return flips, nil
}

// crossChannelExperiment lifts the interference probe onto the registry:
// two point jobs — the chip as designed and the synthetically coupled
// what-if — each counting cross-channel bitflips.
func crossChannelExperiment() *Experiment {
	return &Experiment{
		Name:  "crosschannel",
		Title: "cross-channel extension: vertical die-to-die interference probe",
		Plan: func(o Options) (*Plan, error) {
			co := CrossChannelOptions{Cfg: o.Cfg, Rows: o.Rows, AggressorChannel: 4}
			co.setDefaults()
			if err := co.Cfg.Validate(); err != nil {
				return nil, err
			}
			if co.AggressorChannel >= co.Cfg.Geometry.Channels {
				co.AggressorChannel = co.Cfg.Geometry.Channels / 2
			}
			arms := []struct {
				key      string
				coupling float64
			}{
				{"baseline", co.Cfg.Fault.VerticalCoupling},
				{"coupled", co.SyntheticCoupling},
			}
			jobs := make([]Job, len(arms))
			for i, arm := range arms {
				coupling := arm.coupling
				jobs[i] = Job{
					Key: arm.key,
					Run: func(_ context.Context, _ *core.Harness) (any, error) {
						return crossChannelArm(co, coupling)
					},
				}
			}
			// Flip ceiling: every probed row of both victim channels fully
			// inverted.
			maxFlips := float64(co.Rows*co.Cfg.Geometry.RowBytes()*8*2) + 1
			return &Plan{
				Axis: "point",
				Cfg:  co.Cfg,
				Jobs: jobs,
				Params: map[string]string{
					"rows":        strconv.Itoa(co.Rows),
					"activations": strconv.Itoa(co.Activations),
					"coupling":    fmt.Sprintf("%g", co.SyntheticCoupling),
				},
				NewFold: pointFold(jobs, "cross_flips", 0, maxFlips),
			}, nil
		},
	}
}
