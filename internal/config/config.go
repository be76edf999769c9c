// Package config defines every parameter of the simulated HBM2 device:
// geometry, command timings, the RowHammer/retention fault model, the
// in-DRAM TRR mitigation, and on-die ECC. Two presets are provided:
//
//   - PaperChip: the chip characterized in the paper (4 GiB stack,
//     8 channels x 2 pseudo channels x 16 banks x 16384 rows x 32 columns),
//     with the fault model calibrated to the paper's headline numbers.
//   - SmallChip: a scaled-down geometry with the same fault-model shape,
//     used by tests and examples that need sub-second runs.
package config

import (
	"fmt"
	"math"

	"github.com/safari-repro/hbmrh/internal/addr"
)

// Config aggregates all device and model parameters. The zero value is not
// usable; start from PaperChip or SmallChip and override fields as needed.
type Config struct {
	// Seed selects the simulated chip instance. All per-cell quantities
	// are pure functions of (Seed, coordinates); different seeds model
	// different physical chips of the same design.
	Seed uint64

	Geometry addr.Geometry

	// SubarraySizes lists subarray row counts from the start of each bank.
	// Their sum must equal Geometry.Rows. The paper's chip has sixteen
	// 832-row and four 768-row subarrays.
	SubarraySizes []int

	Timing  Timing
	Fault   Fault
	Ret     Retention
	TRR     TRR
	ECC     ECC
	Mapping MappingScheme
}

// Timing holds command timing parameters in picoseconds, mirroring the
// JESD235 HBM2 timings the DRAM Bender infrastructure enforces.
type Timing struct {
	TCK     int64 // command clock period (1.66 ns = 600 MHz interface)
	TRCD    int64 // ACT to column command
	TRAS    int64 // ACT to PRE on the same bank
	TRP     int64 // PRE to ACT on the same bank
	TRC     int64 // ACT to ACT on the same bank
	TRFC    int64 // REF to next valid command
	TREFI   int64 // average interval between REF commands
	TWindow int64 // refresh window: every row refreshed once per window (32 ms)
}

// Cycles converts a duration in picoseconds to whole command-clock cycles,
// rounding up.
func (t Timing) Cycles(ps int64) int64 {
	return (ps + t.TCK - 1) / t.TCK
}

// RefsPerWindow returns how many REF commands fall inside one refresh
// window at the nominal tREFI rate.
func (t Timing) RefsPerWindow() int {
	return int(t.TWindow / t.TREFI)
}

// ChannelProfile captures per-channel process variation. Channels sharing
// a die (two per die, per the paper's hypothesis) get near-identical
// profiles, producing the paired grouping visible in Fig. 3.
type ChannelProfile struct {
	// MedianHC is the lognormal median of per-cell RowHammer thresholds,
	// in double-sided hammer units (one hammer = one activation of each
	// of the two aggressor rows).
	MedianHC float64
	// Sigma is the lognormal shape parameter for this channel.
	Sigma float64
	// TrueCellFrac is the fraction of true cells (charged when storing 1).
	// The remainder are anti cells (charged when storing 0). This fraction
	// controls which data patterns are most effective per channel.
	TrueCellFrac float64
}

// Fault parameterizes the RowHammer disturbance model.
type Fault struct {
	// Channels holds one profile per channel; its length must equal
	// Geometry.Channels.
	Channels []ChannelProfile

	// ZFloor truncates the lognormal's normal variate from below,
	// bounding how extreme the weakest cells can be.
	ZFloor float64
	// HCFloor is an absolute lower bound on any cell's threshold,
	// in hammers. The paper's global minimum HCfirst is 14531.
	HCFloor float64

	// RowJitterSigma adds per-row lognormal jitter so rows at the same
	// subarray offset still differ (visible as box heights in Figs. 3-4).
	RowJitterSigma float64

	// EdgeFactor and MidFactor set the threshold multiplier at a
	// subarray's edge rows and centre rows; intermediate offsets are
	// cosine-interpolated. Edge > Mid makes BER peak mid-subarray,
	// reproducing Fig. 5's periodic pattern.
	EdgeFactor float64
	MidFactor  float64

	// LastSubarrayFactor multiplies thresholds in the bank's final
	// subarray, reproducing the weak last-832-rows observation.
	LastSubarrayFactor float64

	// BankJitterSigma adds small per-bank lognormal jitter (Fig. 6
	// scatter within a channel).
	BankJitterSigma float64

	// CouplingBoth, CouplingOne and CouplingNone multiply a cell's
	// threshold depending on how many of its two physical neighbour rows
	// currently store the opposite bit value. Opposite-data aggressors
	// couple most strongly (Table 1's stripe patterns).
	CouplingBoth float64
	CouplingOne  float64
	CouplingNone float64

	// IntraRowAlternating multiplies the threshold when a victim cell's
	// same-row neighbours store the opposite bit (checkered patterns),
	// which the tested chip tolerates slightly better than stripes.
	IntraRowAlternating float64

	// DistanceWeights[d-1] is the disturbance contributed to a victim by
	// one activation of an aggressor at physical distance d. Distance-1
	// weights are 0.5 so that one double-sided hammer (two activations)
	// contributes exactly 1.0 disturbance units.
	DistanceWeights []float64

	// RowPressGain amplifies an activation's disturbance when the
	// aggressor row is held open beyond tRAS, the read-disturb effect
	// RowPress (ISCA'23) characterizes and the paper lists as future
	// work: one activation held open for tRAS+x contributes
	// (1 + RowPressGain*x/tRAS) times its base disturbance, capped at
	// RowPressMaxFactor. Hammering at minimum timing (hold = tRAS) is
	// unaffected, so the Section 4 calibration is independent of these.
	RowPressGain      float64
	RowPressMaxFactor float64

	// TempSlopePerC scales RowHammer thresholds with temperature:
	// threshold multiplier = 1 + TempSlopePerC*(T - 85C). A negative
	// slope makes hotter chips more vulnerable. The paper holds 85C for
	// all experiments and leaves temperature sensitivity to future work.
	TempSlopePerC float64

	// VerticalCoupling is the fraction of an activation's distance-1
	// disturbance that leaks to the same physical row of the vertically
	// adjacent channels (the channels of the die above and below, i.e.
	// channel +/- 2). The paper poses cross-channel interference as an
	// open question; the tested chip shows no such effect, so the
	// default is 0. Setting it nonzero exercises the future-work hook.
	VerticalCoupling float64
}

// BlastRadius returns the maximum aggressor-victim distance with nonzero
// disturbance weight.
func (f Fault) BlastRadius() int { return len(f.DistanceWeights) }

// Retention parameterizes the data-retention fault model used by the
// U-TRR methodology as a side channel.
type Retention struct {
	// MedianSec and Sigma define the per-cell lognormal retention time at
	// the reference temperature.
	MedianSec float64
	Sigma     float64
	// FloorSec bounds retention from below: the standard guarantees no
	// retention failures within the 32 ms refresh window, so the floor
	// sits comfortably above it.
	FloorSec float64
	// RefTempC is the temperature at which MedianSec holds (85 C in all
	// paper experiments: the maximum operating temperature at nominal
	// refresh).
	RefTempC float64
	// HalvingPerC is the temperature increase that halves retention time
	// (Arrhenius-like behaviour, ~10 C per halving in DRAM literature).
	HalvingPerC float64
}

// Scale returns the multiplicative retention factor at temperature tempC.
func (r Retention) Scale(tempC float64) float64 {
	return math.Exp2((r.RefTempC - tempC) / r.HalvingPerC)
}

// TRR parameterizes the proprietary in-DRAM Target Row Refresh mechanism
// the paper uncovers in Section 5.
type TRR struct {
	// Enabled turns the undisclosed mitigation on. The paper's chip has
	// it always on; characterization sidesteps it by never issuing REF.
	Enabled bool
	// RefPeriod is the number of REF commands between victim refreshes.
	// The paper measures one victim refresh every 17 REFs.
	RefPeriod int
	// SamplerSlots is the number of candidate aggressor rows the per-bank
	// sampler tracks. The uncovered mechanism behaves like a single-slot
	// sampler (resembling U-TRR's "Vendor C").
	SamplerSlots int
	// NeighborRadius is how many rows on each side of the sampled
	// aggressor get preventively refreshed.
	NeighborRadius int
}

// ECC parameterizes the on-die single-error-correcting code. The paper
// disables it through a mode register bit before all experiments.
type ECC struct {
	// WordBits is the correction granularity: one flipped bit per
	// WordBits-sized word is corrected when ECC is enabled.
	WordBits int
}

// MappingScheme selects the logical-to-physical row address mapping
// implemented inside the device (Section 3.1 reverse-engineers it).
type MappingScheme int

// Supported row mapping schemes.
const (
	// MappingDirect is the identity mapping.
	MappingDirect MappingScheme = iota + 1
	// MappingXorSwizzle swaps adjacent odd/even pairs within 4-row groups,
	// the scheme observed in the tested chip's address space.
	MappingXorSwizzle
	// MappingMirrored mirrors the low three row bits in odd 8-row groups,
	// as seen in some DDR4 parts.
	MappingMirrored
)

// String implements fmt.Stringer for diagnostics.
func (m MappingScheme) String() string {
	switch m {
	case MappingDirect:
		return "direct"
	case MappingXorSwizzle:
		return "xor-swizzle"
	case MappingMirrored:
		return "mirrored"
	default:
		return fmt.Sprintf("MappingScheme(%d)", int(m))
	}
}

// Validate checks internal consistency of the whole configuration.
func (c *Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	sum := 0
	for i, s := range c.SubarraySizes {
		if s <= 0 {
			return fmt.Errorf("config: subarray %d has non-positive size %d", i, s)
		}
		sum += s
	}
	if sum != c.Geometry.Rows {
		return fmt.Errorf("config: subarray sizes sum to %d, want %d rows", sum, c.Geometry.Rows)
	}
	if len(c.Fault.Channels) != c.Geometry.Channels {
		return fmt.Errorf("config: %d channel profiles for %d channels",
			len(c.Fault.Channels), c.Geometry.Channels)
	}
	for i, p := range c.Fault.Channels {
		if p.MedianHC <= 0 || p.Sigma <= 0 {
			return fmt.Errorf("config: channel %d profile must have positive median and sigma", i)
		}
		if p.TrueCellFrac < 0 || p.TrueCellFrac > 1 {
			return fmt.Errorf("config: channel %d true-cell fraction %v outside [0,1]", i, p.TrueCellFrac)
		}
	}
	if len(c.Fault.DistanceWeights) == 0 {
		return fmt.Errorf("config: at least one distance weight required")
	}
	if c.Timing.TCK <= 0 {
		return fmt.Errorf("config: TCK must be positive")
	}
	if c.TRR.Enabled && c.TRR.RefPeriod <= 0 {
		return fmt.Errorf("config: TRR enabled with non-positive period")
	}
	if c.TRR.Enabled && c.TRR.SamplerSlots <= 0 {
		return fmt.Errorf("config: TRR enabled with non-positive sampler size")
	}
	if c.ECC.WordBits <= 0 || c.Geometry.RowBits()%c.ECC.WordBits != 0 {
		return fmt.Errorf("config: ECC word of %d bits must divide row size %d",
			c.ECC.WordBits, c.Geometry.RowBits())
	}
	switch c.Mapping {
	case MappingDirect, MappingXorSwizzle, MappingMirrored:
	default:
		return fmt.Errorf("config: unknown mapping scheme %v", c.Mapping)
	}
	return nil
}

// Layout materializes the subarray layout. Call only on validated configs.
func (c *Config) Layout() *addr.SubarrayLayout {
	l, err := addr.NewSubarrayLayout(c.SubarraySizes)
	if err != nil {
		panic(fmt.Sprintf("config: invalid subarray layout: %v", err))
	}
	return l
}

// paperChannelProfiles is the calibrated per-channel table. Channels pair
// up per die; channels 6 and 7 sit on the most vulnerable die. Medians and
// sigmas are solved from three paper targets per channel: BER at 256K
// hammers, mean HCfirst, and the global minimum HCfirst (see DESIGN.md §4).
func paperChannelProfiles() []ChannelProfile {
	return []ChannelProfile{
		{MedianHC: 2.52e6, Sigma: 1.088, TrueCellFrac: 0.22}, // ch0: least vulnerable, anti-rich
		{MedianHC: 2.44e6, Sigma: 1.070, TrueCellFrac: 0.24}, // ch1: die 0 twin
		{MedianHC: 1.83e6, Sigma: 0.960, TrueCellFrac: 0.38}, // ch2
		{MedianHC: 1.79e6, Sigma: 0.955, TrueCellFrac: 0.40}, // ch3: die 1 twin
		{MedianHC: 1.73e6, Sigma: 0.975, TrueCellFrac: 0.55}, // ch4
		{MedianHC: 1.70e6, Sigma: 0.982, TrueCellFrac: 0.57}, // ch5: die 2 twin
		{MedianHC: 1.88e6, Sigma: 0.985, TrueCellFrac: 0.80}, // ch6
		{MedianHC: 1.87e6, Sigma: 1.006, TrueCellFrac: 0.85}, // ch7: most vulnerable, true-rich
	}
}

// paperSubarraySizes returns the reverse-engineered bank layout: eight
// 832-row subarrays, four 768-row subarrays (the middle 6.5K-9.5K region),
// then eight more 832-row subarrays; the last 832 rows form the weak SA Z.
func paperSubarraySizes() []int {
	sizes := make([]int, 0, 20)
	for i := 0; i < 8; i++ {
		sizes = append(sizes, 832)
	}
	for i := 0; i < 4; i++ {
		sizes = append(sizes, 768)
	}
	for i := 0; i < 8; i++ {
		sizes = append(sizes, 832)
	}
	return sizes
}

func defaultFault(channels []ChannelProfile) Fault {
	return Fault{
		Channels:            channels,
		ZFloor:              -5.2,
		HCFloor:             14500,
		RowJitterSigma:      0.07,
		EdgeFactor:          1.10,
		MidFactor:           0.90,
		LastSubarrayFactor:  1.46,
		BankJitterSigma:     0.05,
		CouplingBoth:        1.00,
		CouplingOne:         1.40,
		CouplingNone:        2.30,
		IntraRowAlternating: 1.05,
		// One activation at distance 1 contributes 0.5 units, so a
		// double-sided hammer (both neighbours once) contributes 1.0.
		// The steep decay with distance matches DDR4 characterization
		// and gives single-sided adjacency probing a provable window
		// where distance-1 victims flip but distance-2 rows cannot.
		DistanceWeights:   []float64{0.5, 0.03, 0.01},
		RowPressGain:      0.8,
		RowPressMaxFactor: 32,
		TempSlopePerC:     -0.004,
		VerticalCoupling:  0,
	}
}

func defaultTiming() Timing {
	const ns = 1000 // picoseconds
	return Timing{
		TCK:     1666, // 1.66 ns: 600 MHz HBM2 interface clock
		TRCD:    14 * ns,
		TRAS:    33 * ns,
		TRP:     14 * ns,
		TRC:     47 * ns,
		TRFC:    350 * ns,
		TREFI:   3900 * ns,             // 3.9 us
		TWindow: 32 * 1000 * 1000 * ns, // 32 ms refresh window
	}
}

func defaultRetention() Retention {
	return Retention{
		MedianSec:   30,
		Sigma:       1.3,
		FloorSec:    0.128,
		RefTempC:    85,
		HalvingPerC: 10,
	}
}

func defaultTRR() TRR {
	return TRR{
		Enabled:        true,
		RefPeriod:      17,
		SamplerSlots:   1,
		NeighborRadius: 1,
	}
}

// PaperChip returns the configuration of the chip characterized in the
// paper, calibrated to its reported numbers.
func PaperChip() *Config {
	return &Config{
		Seed: 0xD52023, // default chip instance; vary to model other chips
		Geometry: addr.Geometry{
			Channels:       8,
			PseudoChannels: 2,
			Banks:          16,
			Rows:           16384,
			Columns:        32,
			ColumnBytes:    32,
		},
		SubarraySizes: paperSubarraySizes(),
		Timing:        defaultTiming(),
		Fault:         defaultFault(paperChannelProfiles()),
		Ret:           defaultRetention(),
		TRR:           defaultTRR(),
		ECC:           ECC{WordBits: 64},
		Mapping:       MappingXorSwizzle,
	}
}

// SmallChip returns a scaled-down device with the same number of channels
// (channel-level variation is the paper's first-order finding) but far
// fewer banks, rows and columns, for fast tests and examples.
func SmallChip() *Config {
	sizes := make([]int, 0, 14)
	for i := 0; i < 4; i++ {
		sizes = append(sizes, 80)
	}
	for i := 0; i < 6; i++ {
		sizes = append(sizes, 64)
	}
	for i := 0; i < 4; i++ {
		sizes = append(sizes, 80)
	}
	return &Config{
		Seed: 0x5AFA12, // SAFARI-flavoured default chip instance
		Geometry: addr.Geometry{
			Channels:       8,
			PseudoChannels: 2,
			Banks:          4,
			Rows:           1024,
			Columns:        8,
			ColumnBytes:    16,
		},
		SubarraySizes: sizes,
		Timing:        defaultTiming(),
		Fault:         defaultFault(paperChannelProfiles()),
		Ret:           defaultRetention(),
		TRR:           defaultTRR(),
		ECC:           ECC{WordBits: 64},
		Mapping:       MappingXorSwizzle,
	}
}

// Preset returns the configuration a -chip flag names: "paper"
// (PaperChip) or "small" (SmallChip, also the empty name).
func Preset(name string) (*Config, error) {
	switch name {
	case "", "small":
		return SmallChip(), nil
	case "paper":
		return PaperChip(), nil
	}
	return nil, fmt.Errorf("unknown chip preset %q (want paper or small)", name)
}
