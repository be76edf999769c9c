package hbm

import (
	"sort"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/faultmodel"
)

// FirstFlipBurst predicts the smallest double-sided burst count n in
// [1, maxN] at which the read-out sense of an HCfirst probe reports a
// flip in its victim, without touching the device's state. The probe is
// the one the characterization harness runs: physical row victim of bank
// b written with victimFill and its two physical neighbours with
// aggrFill, every row above the victim within the blast radius written
// after it (each a full-row write at minimum timing), n activations of
// the lower then the upper neighbour, each held open for holdPS, and the
// victim read out.
//
// The prediction runs the code the device runs on that probe: the dose
// applyDisturb and hammer add to the victim, the charge check, the
// sense's gate, screen and effective threshold over the row's threshold
// ladder, and the on-die ECC filter of the victim's channel. Flips are
// monotone in the dose and the dose in n, so each ladder bit's first
// flipping count is a binary search over n. ok is false when no count up
// to maxN flips the victim, or when the probe could run long enough for
// charge decay, which the prediction does not model, to flip a cell
// first (probeSpan bounds its duration). It is a prediction, not a
// measurement: a search verifies it with probes.
func (d *Device) FirstFlipBurst(b addr.BankAddr, victim int, victimFill, aggrFill byte, holdPS int64, maxN int) (n int, ok bool) {
	g := d.cfg.Geometry
	if !b.Valid(g) || victim <= 0 || victim >= g.Rows-1 || maxN < 1 || holdPS < d.cfg.Timing.TRAS {
		return 0, false
	}
	// The victim's write restores it; each row written after it disturbs
	// it once on activation and once more on its precharge.
	writeExtra := d.rowPressExtra(d.rowWriteHold())
	residue := 0.0
	for a := victim + 1; a <= victim+d.fm.BlastRadius() && a < g.Rows; a++ {
		residue += d.doseOn(a, victim, 1)
		residue += d.doseOn(a, victim, writeExtra)
	}
	perAct := d.actDose(holdPS)
	wLo, wHi := d.doseOn(victim-1, victim, 1), d.doseOn(victim+1, victim, 1)
	dose := func(n int) float64 {
		s := float64(n) * perAct
		return residue + wLo*s + wHi*s
	}

	thrTemp := d.thrTemp
	top := dose(maxN)
	if !d.disturbs(top, thrTemp) {
		return 0, false
	}
	prof := d.fm.Profile(b, victim)
	rungs := d.fm.Ladder(prof, d.disturbScreen(top, thrTemp))
	data, aggr := rowImage{fill: victimFill}, rowImage{fill: aggrFill}
	hasUp, hasDown := d.neighbours(victim)
	// No effective threshold is below its threshold times the smallest
	// coupling and intra-row factors, and the ladder ascends, so once the
	// dose one count below the best answer cannot reach a rung's lower
	// bound, no later rung can flip before that answer either.
	fm := d.fm
	minFactor := min(fm.CouplingFactor(0), fm.CouplingFactor(1), fm.CouplingFactor(2))
	minIntra := min(fm.IntraRowFactor(false), fm.IntraRowFactor(true))
	ecc := d.eccEnabled(b.Channel)
	words := d.wordFlips(ecc)
	bits := g.RowBits()
	best := maxN + 1
	for _, r := range rungs {
		if best == 1 || dose(best-1) < float64(r.Thr)*minFactor*minIntra*thrTemp {
			break
		}
		i := int(r.Bit)
		v := data.bit(i)
		if !faultmodel.Charged(prof.IsTrue(i), v == 1) {
			continue
		}
		eff := d.effThreshold(r.Thr, data, aggr, aggr, hasUp, hasDown, i, bits, v, thrTemp)
		flips := func(n int) bool {
			x := dose(n)
			return d.disturbs(x, thrTemp) && r.Thr <= d.disturbScreen(x, thrTemp) && x >= eff
		}
		if !flips(best - 1) {
			continue
		}
		at := 1 + sort.Search(best-1, func(k int) bool { return flips(k + 1) })
		if !ecc {
			best = at
			continue
		}
		// ECC corrects a word's lone flip: the word reads out flipped from
		// its second flipping bit on. A bit the filters above skipped
		// flips at best or later, so it cannot bring that on sooner.
		w := i / d.cfg.ECC.WordBits
		if first := words[w]; first > 0 {
			best = min(best, max(first, at))
			at = min(first, at)
		}
		words[w] = at
	}
	if best > maxN {
		return 0, false
	}
	if d.decays(float64(d.probeSpan(holdPS, best))*1e-12, d.tscale) {
		return 0, false
	}
	return best, true
}

// probeLeadRows bounds the rows an HCfirst probe writes after its victim
// (the characterization harness writes eight, out to its pattern
// radius), so probeSpan holds for any layout up to that size.
const probeLeadRows = 16

// probeSpan bounds the simulated picoseconds from an HCfirst probe's
// victim write to its read-out's activation at n bursts held for holdPS:
// probeLeadRows row writes, each a row cycle of rowWriteHold, a
// precharge and tRP, then n bursts of two activations, each held for
// holdPS and followed by tRP, then the read-out's activate.
func (d *Device) probeSpan(holdPS int64, n int) int64 {
	t := &d.cfg.Timing
	write := d.rowWriteHold() + t.TCK + t.TRP
	return probeLeadRows*write + int64(n)*2*(holdPS+t.TRP) + t.TCK
}

// wordFlips returns FirstFlipBurst's per-ECC-word scratch, zeroed: entry
// w holds the smallest flipping count found so far in word w (0 for
// none). It is nil when ECC is off.
func (d *Device) wordFlips(ecc bool) []int {
	if !ecc {
		return nil
	}
	n := d.cfg.Geometry.RowBits() / d.cfg.ECC.WordBits
	if len(d.wordScratch) != n {
		d.wordScratch = make([]int, n)
	}
	clear(d.wordScratch)
	return d.wordScratch
}
