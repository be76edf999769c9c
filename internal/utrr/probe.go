package utrr

import (
	"fmt"

	"github.com/safari-repro/hbmrh/internal/addr"
)

// Deeper probing of the proprietary mechanism, the follow-up the paper
// announces ("we intend to uncover more details of the proprietary TRR
// mechanism as part of future work"): how far around a sampled aggressor
// the victim refresh reaches, and how many distinct aggressors the
// sampler can track between REFs.

// probeIterations is how many six-step iterations a probe runs: two
// generous TRR periods, enough for any period up to 32.
const probeIterations = 64

// InferNeighborRadius determines how many rows on each side of a sampled
// aggressor the mitigation refreshes. It profiles a retention-weak row R
// and repeats the U-TRR loop with the would-be aggressor placed at
// physical distance d = 1, 2, ... maxDistance from R: R is refreshed on
// TRR fires only while d is within the mechanism's radius. It returns
// the largest distance at which refreshes were observed, or 0 if none.
func (e *Experiment) InferNeighborRadius(b addr.BankAddr, startRow, maxDistance int) (int, error) {
	if maxDistance < 1 {
		return 0, fmt.Errorf("utrr: maxDistance %d must be at least 1", maxDistance)
	}
	row, T, err := e.prof.FindRow(b, startRow, e.ScanRows, e.BandLo, e.BandHi)
	if err != nil {
		return 0, fmt.Errorf("utrr: %w", err)
	}
	m := e.h.Device().Mapper()
	pR := m.ToPhysical(row)
	radius := 0
	for d := 1; d <= maxDistance; d++ {
		pAggr := pR + d
		if pAggr >= e.h.Device().Geometry().Rows {
			pAggr = pR - d
			if pAggr < 0 {
				break
			}
		}
		refreshed, err := e.observeFire(b, row, T, m.ToLogical(pAggr))
		if err != nil {
			return 0, err
		}
		if refreshed {
			radius = d
		}
	}
	return radius, nil
}

// observeFire runs enough iterations of the six-step loop to cover one
// full TRR period (estimated pessimistically) and reports whether the
// profiled row was ever refreshed by the mitigation.
func (e *Experiment) observeFire(b addr.BankAddr, row int, T float64, logicalAggr int) (bool, error) {
	prog, err := e.iteration(b, []int{row}, []int{logicalAggr}, int64(T/2*1e12))
	if err != nil {
		return false, err
	}
	for it := 0; it < probeIterations; it++ {
		n, err := e.refreshedRows(prog, 1)
		if err != nil {
			return false, err
		}
		if n == 1 {
			return true, nil
		}
	}
	return false, nil
}

// InferSamplerSlots determines how many distinct aggressors the per-bank
// sampler tracks between REFs. It profiles k retention-weak rows, and in
// every iteration activates each row's neighbour once (k distinct
// would-be aggressors) before the REF. On a fire, the mitigation
// refreshes the victims of every aggressor still held in the sampler: the
// number of probed rows refreshed together equals the sampler depth
// (capped at k). It returns the largest count observed, probing up to
// maxSlots aggressors.
func (e *Experiment) InferSamplerSlots(b addr.BankAddr, startRow, maxSlots int) (int, error) {
	if maxSlots < 1 {
		return 0, fmt.Errorf("utrr: maxSlots %d must be at least 1", maxSlots)
	}
	g := e.h.Device().Geometry()
	m := e.h.Device().Mapper()

	// Find maxSlots retention-weak rows, spaced so their aggressors and
	// victims never overlap.
	var rows, aggrs []int
	// All probes share the two maxT/2 waits, so every probed row must
	// decay within maxT yet survive maxT/2 when refreshed mid-iteration:
	// the retention band must span less than a factor of two.
	bandLo, bandHi := e.BandLo, e.BandLo*1.9
	maxT := 0.0
	next := startRow
	for len(rows) < maxSlots {
		row, T, err := e.prof.FindRow(b, next, e.ScanRows, bandLo, bandHi)
		if err != nil {
			return 0, fmt.Errorf("utrr: only found %d probe rows: %w", len(rows), err)
		}
		pR := m.ToPhysical(row)
		pAggr := pR + 1
		if pAggr >= g.Rows {
			pAggr = pR - 1
		}
		rows = append(rows, row)
		aggrs = append(aggrs, m.ToLogical(pAggr))
		maxT = max(maxT, T)
		next = row + 8 // keep blast radii and victims disjoint
	}

	// Activate each aggressor once per iteration; a depth-s sampler
	// retains the last s distinct rows.
	prog, err := e.iteration(b, rows, aggrs, int64(maxT/2*1e12))
	if err != nil {
		return 0, err
	}
	best := 0
	for it := 0; it < probeIterations; it++ {
		refreshed, err := e.refreshedRows(prog, len(rows))
		if err != nil {
			return 0, err
		}
		best = max(best, refreshed)
	}
	return best, nil
}
