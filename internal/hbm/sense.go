package hbm

import (
	"math"
	"slices"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/faultmodel"
)

// SetSenseReference selects this device's sense implementation: the
// reference path when on, the fast path (the default) otherwise. It is a
// hook for the differential equivalence tests and ablation benchmarks —
// both paths are bit-identical by contract (see FuzzSenseEquivalence and
// DESIGN.md §8).
func (d *Device) SetSenseReference(on bool) { d.senseRef = on }

// senseAndRestore models what the sense amplifiers do when a row is
// activated or refreshed at time at: they latch whatever charge remains in
// each cell and drive it back, so any bitflip accumulated since the last
// sense — from charge decay or from RowHammer disturbance — becomes
// permanent data. Afterwards the row is fully charged and its disturbance
// counter is reset. With flips false only that restore happens: the
// caller (an overwrite Activate) guarantees every bit is overwritten before
// anything could observe the latched data.
//
// On-die ECC, when enabled through the mode register, corrects words with
// exactly one flipped bit at sense-out, as the HBM2 single-error-correcting
// code does. Multi-bit words pass through uncorrected (miscorrection is not
// modelled).
//
// Two implementations exist. senseReference is the straightforward
// per-bit scan that defines the semantics. The default fast path visits
// only the bits the profile's threshold ladder admits and uses the
// retention minima to skip rows and words that cannot flip; it is bit-for-bit identical (pinned by differential fuzz and golden
// tests) and allocation-free in steady state.
func (d *Device) senseAndRestore(bank *bankState, physRow int, at int64, flips bool) {
	rs := d.row(bank, physRow)
	disturb := rs.disturb
	elapsedSec := float64(at-rs.lastSense) * 1e-12
	rs.disturb = 0
	rs.lastSense = at
	if !flips {
		return
	}

	// The temperature factors (see SetTemperature) scale retention and
	// the RowHammer thresholds.
	tscale, thrTemp := d.tscale, d.thrTemp
	retPass := d.decays(elapsedSec, tscale)
	distPass := d.disturbs(disturb, thrTemp)
	if !retPass && !distPass {
		return
	}
	if d.senseRef {
		d.senseReference(bank.addr, bank, rs, physRow, disturb, elapsedSec, tscale, thrTemp, retPass, distPass)
		return
	}
	d.senseFast(bank.addr, bank, rs, physRow, disturb, elapsedSec, tscale, thrTemp, retPass, distPass)
}

// decays reports whether elapsedSec since a row's last sense can outlast
// the retention floor at retention scale tscale: the gate of the sense's
// retention pass.
func (d *Device) decays(elapsedSec, tscale float64) bool {
	return elapsedSec > d.cfg.Ret.FloorSec*tscale
}

// disturbs reports whether disturb can flip any cell at threshold
// temperature factor thrTemp: no cell threshold is below HCFloor and no
// data-coupling factor is below CouplingBoth, so lower disturbance cannot
// flip anything. It gates the sense's disturbance pass.
func (d *Device) disturbs(disturb, thrTemp float64) bool {
	return disturb >= d.cfg.Fault.HCFloor*d.cfg.Fault.CouplingBoth*thrTemp
}

// disturbScreen is the disturbance pass's quickThr screen in float32: a
// bit whose threshold exceeds it cannot flip at disturb, and a float32
// threshold passes it exactly when its float64 value is at most quickThr.
func (d *Device) disturbScreen(disturb, thrTemp float64) float32 {
	return floor32(disturb / (d.cfg.Fault.CouplingBoth * thrTemp))
}

// floor32 returns the largest float32 not above x, so that for every
// float32 t, t <= floor32(x) exactly when float64(t) <= x.
func floor32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// neighbours reports which of a row's two physically adjacent rows exist
// electrically: a neighbour beyond the subarray boundary does not.
func (d *Device) neighbours(physRow int) (hasUp, hasDown bool) {
	lo, hi := d.layout.Bounds(physRow)
	return physRow > lo, physRow < hi-1
}

// neighbourData resolves the row images of the two physically adjacent
// rows for coupling evaluation (see neighbours); an unmaterialized
// neighbour holds the power-up pattern (all zeros, the zero image).
func (d *Device) neighbourData(bank *bankState, physRow int) (up, down rowImage, hasUp, hasDown bool) {
	hasUp, hasDown = d.neighbours(physRow)
	if hasUp {
		if nb := bank.rowAt(physRow - 1); nb != nil {
			up = nb.img
		}
	}
	if hasDown {
		if nb := bank.rowAt(physRow + 1); nb != nil {
			down = nb.img
		}
	}
	return up, down, hasUp, hasDown
}

// disturbFlip evaluates the full data-dependent disturbance criterion for
// one bit that already passed the threshold screen: the bit flips when the
// accumulated disturbance reaches its effective threshold. Shared
// verbatim by both sense paths.
func (d *Device) disturbFlip(thr float32, data, up, down rowImage,
	hasUp, hasDown bool, i, bits int, v byte, disturb, thrTemp float64) bool {
	return disturb >= d.effThreshold(thr, data, up, down, hasUp, hasDown, i, bits, v, thrTemp)
}

// effThreshold returns the disturbance at which bit i of a row, holding
// v, flips: its threshold thr scaled by neighbour coupling, intra-row
// pattern, and temperature.
func (d *Device) effThreshold(thr float32, data, up, down rowImage,
	hasUp, hasDown bool, i, bits int, v byte, thrTemp float64) float64 {
	opposite := 0
	if hasUp && up.bit(i) != v {
		opposite++
	}
	if hasDown && down.bit(i) != v {
		opposite++
	}
	alternating := i > 0 && i < bits-1 &&
		data.bit(i-1) != v && data.bit(i+1) != v
	return float64(thr) * d.fm.CouplingFactor(opposite) *
		d.fm.IntraRowFactor(alternating) * thrTemp
}

// senseFast is the production sense path. It exploits two profile
// aggregates, neither of which changes the flip criterion:
//
//   - The threshold ladder (faultmodel.Model.Ladder): the row's bits that
//     pass the quickThr screen, with their exact thresholds. The
//     disturbance pass walks that prefix alone and runs only the charge
//     check and disturbFlip on each rung, with the threshold the ladder
//     cached.
//   - Cached retention times with per-word and per-row minima: when elapsed
//     time cannot reach even the row's weakest cell, the retention pass
//     vanishes; otherwise it skips whole words via their minima and
//     compares cached floats instead of re-deriving lognormal variates.
//
// Candidate bits accumulate into a device-owned scratch buffer, and ECC
// filtering runs on the sorted buffer without a map.
func (d *Device) senseFast(b addr.BankAddr, bank *bankState, rs *rowState, physRow int,
	disturb, elapsedSec, tscale, thrTemp float64, retPass, distPass bool) {
	prof := d.fm.Profile(b, physRow)
	bits := d.cfg.Geometry.RowBits()
	data := rs.img
	flips := d.flipScratch[:0]

	if distPass {
		if rungs := d.fm.Ladder(prof, d.disturbScreen(disturb, thrTemp)); len(rungs) > 0 {
			up, down, hasUp, hasDown := d.neighbourData(bank, physRow)
			for _, r := range rungs {
				i := int(r.Bit)
				v := data.bit(i)
				if !faultmodel.Charged(prof.IsTrue(i), v == 1) {
					continue
				}
				if d.disturbFlip(r.Thr, data, up, down, hasUp, hasDown, i, bits, v, disturb, thrTemp) {
					flips = append(flips, i)
				}
			}
		}
	}

	if retPass {
		if retSec, wordMin, minSec := d.fm.Retention(prof); elapsedSec > minSec*tscale {
			for w := range wordMin {
				if !(elapsedSec > wordMin[w]*tscale) {
					continue // even the word's weakest cell survives
				}
				hi := (w + 1) << 6
				if hi > bits {
					hi = bits
				}
				for i := w << 6; i < hi; i++ {
					if !(elapsedSec > retSec[i]*tscale) {
						continue
					}
					v := data.bit(i)
					if !faultmodel.Charged(prof.IsTrue(i), v == 1) {
						continue
					}
					flips = append(flips, i)
				}
			}
		}
	}

	d.flipScratch = flips
	if len(flips) == 0 {
		return
	}
	// The disturbance pass emits bits in threshold order and the
	// retention pass, which follows it, may claim the same bits again;
	// sort and deduplicate to recover the reference path's ascending
	// unique flip set.
	slices.Sort(flips)
	uniq := flips[:1]
	for _, i := range flips[1:] {
		if i != uniq[len(uniq)-1] {
			uniq = append(uniq, i)
		}
	}
	flips = uniq

	if d.eccEnabled(b.Channel) {
		flips = d.eccFilterSorted(flips)
	}
	if len(flips) == 0 {
		return
	}
	buf := rs.bytes(d)
	for _, i := range flips {
		buf[i>>3] ^= 1 << (uint(i) & 7)
	}
	d.stats.BitflipsCommitted += int64(len(flips))
}

// senseReference is the straightforward per-bit implementation that
// defines sense semantics; the fast path must match it bit for bit. It
// derives each bit's orientation, threshold and retention time from the
// model's definitions (IsTrue, Threshold, RetentionSec) and touches none
// of the aggregates the fast path caches, so the two share no state that
// could hide a bug. It is retained as the oracle for the differential
// fuzz and golden tests and for ablation benchmarks.
func (d *Device) senseReference(b addr.BankAddr, bank *bankState, rs *rowState, physRow int,
	disturb, elapsedSec, tscale, thrTemp float64, retPass, distPass bool) {
	prof := d.fm.Profile(b, physRow)
	bits := d.cfg.Geometry.RowBits()
	data := rs.img

	up, down, hasUp, hasDown := d.neighbourData(bank, physRow)

	var flips []int
	quickThr := disturb / (d.cfg.Fault.CouplingBoth * thrTemp)
	for i := 0; i < bits; i++ {
		v := data.bit(i)
		if !faultmodel.Charged(prof.IsTrue(i), v == 1) {
			continue // discharged cells have no charge to lose
		}
		flipped := false
		if distPass {
			if thr := d.fm.Threshold(prof, i); float64(thr) <= quickThr {
				flipped = d.disturbFlip(thr, data, up, down, hasUp, hasDown, i, bits, v, disturb, thrTemp)
			}
		}
		if !flipped && retPass {
			if elapsedSec > d.fm.RetentionSec(b, physRow, i)*tscale {
				flipped = true
			}
		}
		if flipped {
			flips = append(flips, i)
		}
	}
	if len(flips) == 0 {
		return
	}

	if d.eccEnabled(b.Channel) {
		flips = d.eccFilter(flips)
	}
	buf := rs.bytes(d)
	for _, i := range flips {
		buf[i>>3] ^= 1 << (uint(i) & 7)
	}
	d.stats.BitflipsCommitted += int64(len(flips))
}

// eccFilterSorted drops single-bit-per-word flips (the SEC code corrects
// them) and counts the corrections, like eccFilter, but exploits that
// flips arrive sorted: same-word flips are adjacent, so one run-length
// pass suffices — no per-sense map.
func (d *Device) eccFilterSorted(flips []int) []int {
	word := d.cfg.ECC.WordBits
	kept := flips[:0]
	for s := 0; s < len(flips); {
		e := s + 1
		w := flips[s] / word
		for e < len(flips) && flips[e]/word == w {
			e++
		}
		if e-s == 1 {
			d.stats.ECCCorrections++
		} else {
			kept = append(kept, flips[s:e]...)
		}
		s = e
	}
	return kept
}

// eccFilter drops single-bit-per-word flips (the SEC code corrects them)
// and counts the corrections. Words with two or more flips pass through.
func (d *Device) eccFilter(flips []int) []int {
	word := d.cfg.ECC.WordBits
	counts := make(map[int]int, len(flips))
	for _, i := range flips {
		counts[i/word]++
	}
	kept := flips[:0]
	for _, i := range flips {
		if counts[i/word] == 1 {
			d.stats.ECCCorrections++
			continue
		}
		kept = append(kept, i)
	}
	return kept
}
