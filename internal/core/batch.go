package core

import (
	"fmt"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
)

// maxProbeBatch bounds how many victim probes one batched program
// carries, so paper-geometry sweeps (thousands of sampled rows per bank)
// cannot build unbounded instruction streams or read arenas. 64 probes
// amortize program validation and dispatch to well under 2% of one
// probe's cost.
const maxProbeBatch = 64

// BERBatch measures BER for a batch of victim rows in one bank under one
// pattern, each at the same hammer count. It is byte-equivalent to
// calling BER per victim in order — per-cell fault quantities are pure
// functions of (seed, coordinates) and every probe rewrites its victim,
// aggressor and outer rows before hammering, so probe concatenation
// cannot change any measured value — but builds and validates a single
// program per maxProbeBatch victims, amortizing program assembly,
// validation, payload interning and dispatch across the batch.
func (h *Harness) BERBatch(ba addr.BankAddr, physVictims []int, p Pattern, hammers int) ([]BERResult, error) {
	return h.BERBatchHold(ba, physVictims, p, hammers, h.dev.Config().Timing.TRAS)
}

// BERBatchHold is BERBatch with a per-activation hold time (RowPress),
// equivalent to calling BERHold per victim in order.
func (h *Harness) BERBatchHold(ba addr.BankAddr, physVictims []int, p Pattern, hammers int, holdPS int64) ([]BERResult, error) {
	out := make([]BERResult, len(physVictims))
	for lo := 0; lo < len(physVictims); lo += maxProbeBatch {
		hi := min(lo+maxProbeBatch, len(physVictims))
		prog, err := h.buildProbes(ba, physVictims[lo:hi], hammers, p, holdPS)
		if err != nil {
			return nil, err
		}
		if err := h.runProbes(prog, p, holdPS, out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildProbes assembles one batched probe program: for each victim, the
// Table 1 init layout, a double-sided hammer of hammers hammers, and a
// victim read-out, with a segment boundary after each probe so elapsed
// time and the refresh budget stay attributable per probe. It leaves the
// boundaries in h.probeBounds and the index of each victim's hammer
// OpLoop in h.probeLoops, so a caller can re-run the program at other
// counts through Program.SetLoopCount. The program aliases the harness's
// builder and is valid until the next buildProbes or measurement.
func (h *Harness) buildProbes(ba addr.BankAddr, victims []int, hammers int, p Pattern, holdPS int64) (*bender.Program, error) {
	rows := h.dev.Geometry().Rows
	for _, v := range victims {
		if v <= 0 || v >= rows-1 {
			return nil, fmt.Errorf("%w: physical row %d", ErrEdgeVictim, v)
		}
	}
	m := h.dev.Mapper()
	minTiming := holdPS <= h.dev.Config().Timing.TRAS
	b := h.builder()
	bounds, loops := h.probeBounds[:0], h.probeLoops[:0]
	for _, phys := range victims {
		la := m.ToLogical(phys - 1)
		lb := m.ToLogical(phys + 1)
		h.initPattern(b, ba, phys, p)
		loops = append(loops, b.Len())
		if minTiming {
			b.HammerDouble(ba, la, lb, int64(hammers))
		} else {
			b.HammerDoubleHold(ba, la, lb, int64(hammers), holdPS)
		}
		b.ReadRowOut(ba, m.ToLogical(phys))
		bounds = append(bounds, b.Len())
	}
	h.probeBounds, h.probeLoops = bounds, loops
	return b.Build()
}

// runProbes runs a program from buildProbes (at whatever loop counts it
// now holds) and stores probe j's measurement in out[j].
func (h *Harness) runProbes(prog *bender.Program, p Pattern, holdPS int64, out []BERResult) error {
	if err := h.cancelled(); err != nil {
		return err
	}
	res, segs, err := h.runner.RunSegments(h.dev, h.dev.Geometry(), prog, h.probeBounds, h.checkCancel)
	if err != nil {
		return err
	}
	minTiming := holdPS <= h.dev.Config().Timing.TRAS
	bits := h.dev.Geometry().RowBits()
	for j := range out {
		seg := segs[j]
		if h.EnforceBudget && minTiming && seg.Elapsed > RefreshBudget {
			return fmt.Errorf("core: experiment took %.2f ms, over the 27 ms refresh budget",
				float64(seg.Elapsed)/1e9)
		}
		out[j] = BERResult{Flips: CountFlips(res.Reads[seg.Reads[0]:seg.Reads[1]], p.Victim), Bits: bits, Elapsed: seg.Elapsed}
	}
	return nil
}

// HCFirstBatch measures HCfirst for a batch of victim rows in one bank
// under one pattern, equivalent to calling HCFirst per victim in order,
// and returns the ceiling probe of each search as its BER at maxHammers
// (the measurement BERBatch at maxHammers would make). Each chunk of up
// to maxProbeBatch victims runs the search breadth-first: the ceiling
// probe for the whole chunk, then each halving round batched across its
// still-active victims. One probe program serves the ceiling and every
// round, with only its hammer-loop counts changed between runs; it is
// rebuilt only when the set of active victims shrinks — after the
// ceiling when some victims do not flip, and when uneven search widths
// make victims converge in different rounds. Every victim sees exactly
// the probe sequence the sequential search would have issued, so results
// are identical.
func (h *Harness) HCFirstBatch(ba addr.BankAddr, physVictims []int, p Pattern, maxHammers int) (hc []int, found []bool, ber []BERResult, err error) {
	return h.HCFirstBatchHold(ba, physVictims, p, maxHammers, h.dev.Config().Timing.TRAS)
}

// HCFirstBatchHold is HCFirstBatch with a per-activation hold time
// (RowPress), equivalent to calling HCFirstHold and BERHold per victim in
// order.
func (h *Harness) HCFirstBatchHold(ba addr.BankAddr, physVictims []int, p Pattern, maxHammers int, holdPS int64) (hc []int, found []bool, ber []BERResult, err error) {
	n := len(physVictims)
	hc = make([]int, n)
	found = make([]bool, n)
	ber = make([]BERResult, n)
	for lo := 0; lo < n; lo += maxProbeBatch {
		hi := min(lo+maxProbeBatch, n)
		if err := h.hcFirstChunk(ba, physVictims[lo:hi], p, maxHammers, holdPS, hc[lo:hi], found[lo:hi], ber[lo:hi]); err != nil {
			return nil, nil, nil, err
		}
	}
	return hc, found, ber, nil
}

// hcFirstChunk runs HCFirstBatchHold's search over at most maxProbeBatch
// victims, writing each victim's HCfirst, found flag and ceiling BER: the
// ceiling probe for the whole chunk, then bisect over the victims that
// flipped, reusing the ceiling program when they all did.
func (h *Harness) hcFirstChunk(ba addr.BankAddr, victims []int, p Pattern, maxHammers int, holdPS int64,
	hc []int, found []bool, ceiling []BERResult) error {
	if len(victims) == 0 {
		return nil
	}
	prog, err := h.buildProbes(ba, victims, maxHammers, p, holdPS)
	if err != nil {
		return err
	}
	if err := h.runProbes(prog, p, holdPS, ceiling); err != nil {
		return err
	}
	var idx, vict, los, his [maxProbeBatch]int
	n := 0
	for j := range victims {
		if ceiling[j].Flips > 0 {
			found[j], hc[j] = true, maxHammers
			idx[n], vict[n], his[n] = j, victims[j], maxHammers
			n++
		}
	}
	if n < len(victims) {
		prog = nil
	}
	if err := h.bisect(ba, vict[:n], p, holdPS, los[:n], his[:n], nil, prog); err != nil {
		return err
	}
	for k, j := range idx[:n] {
		hc[j] = his[k]
	}
	return nil
}

// bisect is the HCfirst binary search, batched over at most
// maxProbeBatch victims under one pattern. Victim k's bracket is
// (lo[k], hi[k]]: lo[k] is known not to flip it and hi[k] to flip it.
// Each round probes every victim whose bracket is still wider than
// HCPrecision at mid = lo+(hi-lo)/2, all in one program, and keeps the
// half holding the first flip, so a bracket ends as the leaf of the one
// search tree every search from (0, maxHammers] walks, and hi[k] as the
// HCfirst. A victim with flipAt non-nil is known to flip at flipAt[k]
// and, flips being monotone in the hammer count, at any count above it:
// a mid at or above flipAt[k] moves hi without a probe. prog, when
// non-nil, is a buildProbes program over exactly victims under p; it
// serves the first round if every victim needs one. A round re-runs the
// round before's program with new loop counts, and the program is
// rebuilt only when the set of searching victims shrinks. Every victim
// sees the probes its own sequential search would issue, minus the
// ones flipAt answers, so the brackets are the sequential ones.
func (h *Harness) bisect(ba addr.BankAddr, victims []int, p Pattern, holdPS int64,
	lo, hi, flipAt []int, prog *bender.Program) error {
	prec := max(h.HCPrecision, 1)
	// searching skips the rounds flipAt answers and reports whether
	// victim k still needs a probe.
	searching := func(k int) bool {
		for hi[k]-lo[k] > prec {
			mid := lo[k] + (hi[k]-lo[k])/2
			if flipAt == nil || mid < flipAt[k] {
				return true
			}
			hi[k] = mid
		}
		return false
	}
	// active lists the victims still searching, in order; while current
	// holds, the program's probe i is victim active[i].
	var activeBuf, mids, vict [maxProbeBatch]int
	var res [maxProbeBatch]BERResult
	active := activeBuf[:0]
	for k := range victims {
		if searching(k) {
			active = append(active, k)
		}
	}
	current := prog != nil && len(active) == len(victims)
	for len(active) > 0 {
		if !current {
			for i, k := range active {
				vict[i] = victims[k]
			}
			var err error
			if prog, err = h.buildProbes(ba, vict[:len(active)], hi[active[0]], p, holdPS); err != nil {
				return err
			}
			current = true
		}
		for i, k := range active {
			mids[i] = lo[k] + (hi[k]-lo[k])/2
			if err := prog.SetLoopCount(h.probeLoops[i], int64(mids[i])); err != nil {
				return err
			}
		}
		if err := h.runProbes(prog, p, holdPS, res[:len(active)]); err != nil {
			return err
		}
		next := active[:0]
		for i, k := range active {
			if res[i].Flips > 0 {
				hi[k] = mids[i]
			} else {
				lo[k] = mids[i]
			}
			if searching(k) {
				next = append(next, k)
			}
		}
		current = len(next) == len(active)
		active = next
	}
	return nil
}
