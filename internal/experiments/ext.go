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
// sensitivity, and cross-channel interference. Each reads Cfg, Rows and
// (except crosschannel) Hammers from Options and tests bank 0 of
// channel 0; the settings below are fixed.

var (
	// holdMultipliers are the tRAS multiples RowPress sweeps
	// (paper-adjacent work sweeps aggressor-on time; 1 = standard
	// RowHammer).
	holdMultipliers = []int{1, 2, 4, 8, 16}
	// setpointsC are the temperature study's setpoints; the thermal rig
	// settles each.
	setpointsC = []float64{55, 65, 75, 85, 95}
)

const (
	// syntheticCoupling is the VerticalCoupling of the cross-channel
	// probe's "what if" arm.
	syntheticCoupling = 0.5
	// crossActivations is how often the probe activates each aggressor
	// row.
	crossActivations = 1_000_000
	// aggressorChannel is hammered by the cross-channel probe; victims are
	// read in channel +/- 2.
	aggressorChannel = 4
)

// midSubarrayRows places a study's n probe rows stride apart, starting a
// quarter into the bank's middle subarray. reach is how many rows past a
// probe row the study touches (1 for a double-sided victim's upper
// aggressor). A placement that walks off the bank is a plan error naming
// the largest n that fits.
func midSubarrayRows(cfg *config.Config, n, stride, reach int) ([]int, error) {
	layout := cfg.Layout()
	sa := layout.Count() / 2
	start := layout.Start(sa) + layout.Size(sa)/4
	fit := 0
	if last := cfg.Geometry.Rows - 1 - reach; last >= start {
		fit = (last-start)/stride + 1
	}
	if n > fit {
		return nil, fmt.Errorf("rows %d walks off the %d-row bank (probe rows start at %d, %d apart): at most %d fit",
			n, cfg.Geometry.Rows, start, stride, fit)
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = start + i*stride
	}
	return rows, nil
}

// rowPressPoint measures one hold multiplier: the HCfirst samples of the
// victim rows (rows that never flip are excluded, with foundAll
// cleared). Each sample is a pure function of (seed, bank, row, hold), so
// pooled devices reproduce the sequential results exactly.
func rowPressPoint(h *core.Harness, cfg *config.Config, bank addr.BankAddr, victims []int, hammers, mult int) (hcs []float64, foundAll bool, err error) {
	tras := cfg.Timing.TRAS
	pattern := core.Table1()[1] // Rowstripe1
	foundAll = true
	for _, phys := range victims {
		hc, found, err := h.HCFirstHold(bank, phys, pattern, hammers, tras*int64(mult))
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
// into a point-axis artifact. Options.Rows victim rows (default 6) are
// sampled per point.
func rowPressExperiment() *Experiment {
	return &Experiment{
		Name:  "rowpress",
		Title: "RowPress extension: HCfirst distribution vs aggressor-on time",
		Plan: func(o Options) (*Plan, error) {
			cfg, err := resolveChip(o)
			if err != nil {
				return nil, err
			}
			rows, hammers := orDefault(o.Rows, 6), orDefault(o.Hammers, core.DefaultHammers)
			victims, err := midSubarrayRows(cfg, rows, 3, 1)
			if err != nil {
				return nil, err
			}
			jobs := make([]Job, len(holdMultipliers))
			for i, mult := range holdMultipliers {
				jobs[i] = Job{
					Key:    fmt.Sprintf("hold_x%d", mult),
					Weight: float64(mult),
					Run: func(_ context.Context, h *core.Harness) (any, error) {
						hcs, _, err := rowPressPoint(h, cfg, addr.BankAddr{}, victims, hammers, mult)
						return hcs, err
					},
				}
			}
			return &Plan{
				Axis:    "point",
				Cfg:     cfg,
				Harness: true,
				Jobs:    jobs,
				Params: map[string]string{
					"rows":    strconv.Itoa(rows),
					"hammers": strconv.Itoa(hammers),
				},
				NewFold: pointFold(jobs, "hc_first", 0, float64(hammers)),
			}, nil
		},
	}
}

// tempSweepPoint measures one setpoint: build a fresh device (temperature
// changes persistent device state, so the warm pool is bypassed), settle
// it with the PID rig as on the real bench, and return the victim rows'
// BER in percent.
func tempSweepPoint(cfg *config.Config, bank addr.BankAddr, victims []int, hammers int, target float64) ([]float64, error) {
	pattern := core.Table1()[1]
	d, err := hbm.New(cfg)
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
	bers := make([]float64, 0, len(victims))
	for _, phys := range victims {
		r, err := h.BER(bank, phys, pattern, hammers)
		if err != nil {
			return nil, err
		}
		bers = append(bers, r.BER()*100)
	}
	return bers, nil
}

// tempSweepExperiment lifts the temperature study onto the registry: one
// point job per PID-settled setpoint, folding raw per-row BER samples
// into a point-axis artifact. Options.Rows victim rows (default 6) are
// sampled per setpoint.
func tempSweepExperiment() *Experiment {
	return &Experiment{
		Name:  "tempsweep",
		Title: "temperature extension: RowHammer BER distribution across PID-settled setpoints",
		Plan: func(o Options) (*Plan, error) {
			cfg, err := resolveChip(o)
			if err != nil {
				return nil, err
			}
			rows, hammers := orDefault(o.Rows, 6), orDefault(o.Hammers, core.DefaultHammers)
			victims, err := midSubarrayRows(cfg, rows, 3, 1)
			if err != nil {
				return nil, err
			}
			jobs := make([]Job, len(setpointsC))
			for i, target := range setpointsC {
				jobs[i] = Job{
					Key: fmt.Sprintf("t=%gC", target),
					Run: func(_ context.Context, _ *core.Harness) (any, error) {
						return tempSweepPoint(cfg, addr.BankAddr{}, victims, hammers, target)
					},
				}
			}
			return &Plan{
				Axis: "point",
				Cfg:  cfg,
				Jobs: jobs,
				Params: map[string]string{
					"rows":    strconv.Itoa(rows),
					"hammers": strconv.Itoa(hammers),
				},
				NewFold: pointFold(jobs, "ber_pct", 0, 100),
			}, nil
		},
	}
}

// crossChannelArm measures one arm of the probe: hammer the probe rows in
// the aggressor channel of a fresh device with the given vertical
// coupling and count bitflips in the same physical rows of channels +/- 2.
func crossChannelArm(base *config.Config, aggressor int, rows []int, coupling float64) (int, error) {
	cfg := *base
	cfg.Fault.VerticalCoupling = coupling
	d, err := hbm.New(&cfg)
	if err != nil {
		return 0, err
	}
	if _, err := core.NewHarness(d); err != nil { // ECC off
		return 0, err
	}
	g := cfg.Geometry
	m := d.Mapper()
	victimChannels := []int{aggressor - 2, aggressor + 2}
	pattern := make([]byte, g.RowBytes())
	for i := range pattern {
		pattern[i] = 0xFF
	}
	flips := 0
	for _, phys := range rows {
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
		ab := addr.BankAddr{Channel: aggressor, PseudoChannel: 0, Bank: 0}
		if err := d.HammerSingle(ab, logical, crossActivations); err != nil {
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
// what-if — each counting cross-channel bitflips over Options.Rows probe
// rows (default 4).
func crossChannelExperiment() *Experiment {
	return &Experiment{
		Name:  "crosschannel",
		Title: "cross-channel extension: vertical die-to-die interference probe",
		Plan: func(o Options) (*Plan, error) {
			cfg, err := resolveChip(o)
			if err != nil {
				return nil, err
			}
			rows := orDefault(o.Rows, 4)
			probed, err := midSubarrayRows(cfg, rows, 5, 0)
			if err != nil {
				return nil, err
			}
			aggressor := aggressorChannel
			if aggressor >= cfg.Geometry.Channels {
				aggressor = cfg.Geometry.Channels / 2
			}
			arms := []struct {
				key      string
				coupling float64
			}{
				{"baseline", cfg.Fault.VerticalCoupling},
				{"coupled", syntheticCoupling},
			}
			jobs := make([]Job, len(arms))
			for i, arm := range arms {
				jobs[i] = Job{
					Key: arm.key,
					Run: func(_ context.Context, _ *core.Harness) (any, error) {
						return crossChannelArm(cfg, aggressor, probed, arm.coupling)
					},
				}
			}
			// Flip ceiling: every probed row of both victim channels fully
			// inverted.
			maxFlips := float64(rows*cfg.Geometry.RowBytes()*8*2) + 1
			return &Plan{
				Axis: "point",
				Cfg:  cfg,
				Jobs: jobs,
				Params: map[string]string{
					"rows":        strconv.Itoa(rows),
					"activations": strconv.Itoa(crossActivations),
					"coupling":    fmt.Sprintf("%g", syntheticCoupling),
				},
				NewFold: pointFold(jobs, "cross_flips", 0, maxFlips),
			}, nil
		},
	}
}
