package core

import (
	"fmt"
	"slices"
	"sync"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
)

// MaxProbeBatch bounds how many victim probes one batched program
// carries, so paper-geometry sweeps (thousands of sampled rows per bank)
// cannot build unbounded instruction streams or read arenas. 64 probes
// amortize program validation and dispatch to well under 2% of one
// probe's cost. Studies that run several patterns over one victim list
// walk it in chunks of this size, every pattern on a chunk before the
// next, so a victim's profile is built once however long the list.
const MaxProbeBatch = 64

// probeProg is one chunk's probe program under one pattern: for each of
// the chunk's victims, in order, the Table 1 init layout, a double-sided
// hammer loop and a victim read-out, with a segment boundary after each
// probe so elapsed time and the refresh budget stay attributable per
// probe. A run sets each probe's hammer count or skips the probe (see
// runProbes), so probe j is always chunk victim j, and a search builds
// the program once per chunk however its set of searching victims
// changes.
type probeProg struct {
	bld  *bender.Builder
	prog *bender.Program
	// timing and geom are the device parameters a pooled slot's bld
	// builds for (see getProbe).
	timing config.Timing
	geom   addr.Geometry
	// bounds[j] is the instruction probe j ends at, loops[j] the index of
	// its hammer OpLoop, and live the mask of the last run.
	bounds []int
	loops  []int
	live   []bool
	// fill is the victim row's fill byte, which flips are counted
	// against; minTiming is false for pressed (RowPress) hammers, which
	// the refresh budget does not cover.
	fill      byte
	minTiming bool
	// ba, victims, aggr and hold are the bank, the victims, the
	// aggressor fill and the hammer hold the program was built over,
	// which a search predicts its victims' first flips for.
	ba      addr.BankAddr
	victims []int
	aggr    byte
	hold    int64
}

// probePool recycles the probe programs of WCDP searches, and with them
// their builders' instruction and payload buffers, across calls and
// harnesses: a fleet scan makes a harness per chip, and growing fresh
// buffers for the four programs of each would dominate its allocation.
var probePool sync.Pool

// getProbe takes a probe program slot for h's device from probePool; the
// caller puts it back once it has consumed the slot's last run.
func (h *Harness) getProbe() *probeProg {
	t, g := h.dev.Config().Timing, h.dev.Geometry()
	if pp, ok := probePool.Get().(*probeProg); ok && pp.timing == t && pp.geom == g {
		return pp
	}
	return &probeProg{bld: bender.NewBuilder(t, g), timing: t, geom: g}
}

// buildProbes assembles pp over victims under p, each probe hammering
// hammers times with each activation held open for holdPS. The program
// aliases pp's builder and is valid until pp is built again.
func (h *Harness) buildProbes(pp *probeProg, ba addr.BankAddr, victims []int, p Pattern, hammers int, holdPS int64) error {
	rows := h.dev.Geometry().Rows
	for _, v := range victims {
		if v <= 0 || v >= rows-1 {
			return fmt.Errorf("%w: physical row %d", ErrEdgeVictim, v)
		}
	}
	m := h.dev.Mapper()
	pp.fill, pp.aggr = p.Victim, p.Aggressor
	pp.ba, pp.hold = ba, holdPS
	pp.victims = append(pp.victims[:0], victims...)
	pp.minTiming = holdPS <= h.dev.Config().Timing.TRAS
	b := pp.bld
	b.Reset()
	pp.bounds, pp.loops = pp.bounds[:0], pp.loops[:0]
	for _, phys := range victims {
		la := m.ToLogical(phys - 1)
		lb := m.ToLogical(phys + 1)
		h.initPattern(b, ba, phys, p)
		pp.loops = append(pp.loops, b.Len())
		if pp.minTiming {
			b.HammerDouble(ba, la, lb, int64(hammers))
		} else {
			b.HammerDoubleHold(ba, la, lb, int64(hammers), holdPS)
		}
		b.ReadRowOut(ba, m.ToLogical(phys))
		pp.bounds = append(pp.bounds, b.Len())
	}
	pp.live = slices.Grow(pp.live[:0], len(victims))[:len(victims)]
	var err error
	pp.prog, err = b.Build()
	return err
}

// runProbes runs pp with probe j at counts[j] hammers, skipping every
// probe whose count is 0, and stores each run probe's measurement in
// out[j]. A skipped probe issues no command; probes are pure (each
// rewrites its rows before it hammers), so the run equals one of a
// program built over the live probes alone.
func (h *Harness) runProbes(pp *probeProg, counts []int, out []BERResult) error {
	if err := h.cancelled(); err != nil {
		return err
	}
	for j, n := range counts {
		pp.live[j] = n > 0
		if n > 0 {
			h.probes.live++
			if err := pp.prog.SetLoopCount(pp.loops[j], int64(n)); err != nil {
				return err
			}
		}
	}
	res, segs, err := h.runner.RunSegments(h.dev, pp.prog, pp.bounds, pp.live, h.checkCancel)
	if err != nil {
		return err
	}
	bits := h.dev.Geometry().RowBits()
	for j, n := range counts {
		if n == 0 {
			continue
		}
		seg := segs[j]
		if h.EnforceBudget && pp.minTiming && seg.Elapsed > RefreshBudget {
			return fmt.Errorf("core: experiment took %.2f ms, over the 27 ms refresh budget",
				float64(seg.Elapsed)/1e9)
		}
		out[j] = BERResult{Flips: CountFlips(res.Reads[seg.Reads[0]:seg.Reads[1]], pp.fill), Bits: bits, Elapsed: seg.Elapsed}
	}
	return nil
}

// BERBatch measures BER for a batch of victim rows in one bank under one
// pattern, each at the same hammer count: what BER measures per victim,
// in order. Per-cell fault quantities are pure functions of (seed,
// coordinates) and every probe rewrites its victim, aggressor and outer
// rows before hammering, so probe concatenation cannot change any
// measured value; one program per MaxProbeBatch victims amortizes
// assembly, validation, payload interning and dispatch across the batch.
func (h *Harness) BERBatch(ba addr.BankAddr, physVictims []int, p Pattern, hammers int) ([]BERResult, error) {
	out := make([]BERResult, len(physVictims))
	if err := h.berBatch(ba, physVictims, p, hammers, out); err != nil {
		return nil, err
	}
	return out, nil
}

// berBatch is BERBatch into out, which BER passes on its stack.
func (h *Harness) berBatch(ba addr.BankAddr, victims []int, p Pattern, hammers int, out []BERResult) error {
	var counts [MaxProbeBatch]int
	pp := &h.probe
	for lo := 0; lo < len(victims); lo += MaxProbeBatch {
		chunk := victims[lo:min(lo+MaxProbeBatch, len(victims))]
		if err := h.buildProbes(pp, ba, chunk, p, hammers, h.dev.Config().Timing.TRAS); err != nil {
			return err
		}
		for j := range chunk {
			counts[j] = hammers
		}
		if err := h.runProbes(pp, counts[:len(chunk)], out[lo:]); err != nil {
			return err
		}
	}
	return nil
}

// HCFirstBatch measures HCfirst for a batch of victim rows in one bank
// under one pattern, what HCFirst measures per victim, and returns the
// ceiling probe of each search as its BER at maxHammers (the measurement
// BERBatch at maxHammers would make). Each chunk of up to MaxProbeBatch
// victims runs the search breadth-first on one program: the ceiling
// probe for the whole chunk, then bisect's hint checks and halving
// rounds over its still-searching victims, with the other probes
// skipped. Every answer is read off probes the device ran, and equals
// what a search of the victim's own would find.
func (h *Harness) HCFirstBatch(ba addr.BankAddr, physVictims []int, p Pattern, maxHammers int) (hc []int, found []bool, ber []BERResult, err error) {
	return h.HCFirstBatchHold(ba, physVictims, p, maxHammers, h.dev.Config().Timing.TRAS)
}

// HCFirstBatchHold is HCFirstBatch with each aggressor activation held
// open for holdPS before its precharge — the RowPress access pattern the
// paper lists as future work. The 27 ms refresh budget is enforced only
// for minimum-timing probes: pressed probes intentionally trade time for
// amplification.
func (h *Harness) HCFirstBatchHold(ba addr.BankAddr, physVictims []int, p Pattern, maxHammers int, holdPS int64) (hc []int, found []bool, ber []BERResult, err error) {
	n := len(physVictims)
	hc = make([]int, n)
	found = make([]bool, n)
	ber = make([]BERResult, n)
	var counts, lo, hi, buf [MaxProbeBatch]int
	pp := &h.probe
	for c := 0; c < n; c += MaxProbeBatch {
		chunk := physVictims[c:min(c+MaxProbeBatch, n)]
		if err := h.buildProbes(pp, ba, chunk, p, maxHammers, holdPS); err != nil {
			return nil, nil, nil, err
		}
		for j := range chunk {
			counts[j] = maxHammers
		}
		h.probes.ceiling += len(chunk)
		if err := h.runProbes(pp, counts[:len(chunk)], ber[c:]); err != nil {
			return nil, nil, nil, err
		}
		active := buf[:0]
		for j := range chunk {
			if r := ber[c+j]; r.Flips > 0 {
				lo[j], hi[j] = 0, maxHammers
				active = append(active, j)
			}
		}
		if err := h.bisect(pp, active, lo[:], hi[:], nil); err != nil {
			return nil, nil, nil, err
		}
		for _, j := range active {
			found[c+j], hc[c+j] = true, hi[j]
		}
	}
	return hc, found, ber, nil
}

// probeCounts counts the probes a harness ran, by kind, so tests can pin
// what a search costs.
type probeCounts struct {
	// live counts every probe runProbes ran, of any kind.
	live int
	// ceiling counts HCFirstBatchHold's probes at its searches' ceiling;
	// hint the probes at the ends of a predicted leaf and fallback the
	// halving-round probes after them, one per victim a round probes,
	// both counted in bisect for every search that runs it. A harness
	// that ran only HCfirst searches has live == ceiling+hint+fallback;
	// WCDPBatch's ceiling and settle probes count as live only.
	ceiling, hint, fallback int
	// searches counts the victims bisect searched: those with a known
	// flip at the ceiling.
	searches int
}

// bisect is the HCfirst binary search on pp, batched over the chunk
// victims in active. Victim j's search starts at the root (lo[j], hi[j]]
// of the one search tree every search from (0, maxHammers] walks, hi[j]
// known to flip it and lo[j] not; flipAt, if non-nil, holds per victim a
// count flipAt[j] also known to flip it. A node (lo, hi] wider than
// HCPrecision halves at mid = lo+(hi-lo)/2 into the half holding the
// first flip, so the search ends at a leaf, which it leaves in (lo[j],
// hi[j]], with hi[j] the HCfirst.
//
// The search first asks the device which count first flips the victim
// (hbm.Device.FirstFlipBurst), walks the tree to the leaf (lo', hi']
// holding that count, and probes the leaf's ends: all victims' hi' in
// one run, then the lo' of those that flipped at hi' in another, with no
// probe for an end whose answer is already known. Every probe only adds
// a fact — a count known to flip the victim, or one known not to — and
// the ordinary bisection then walks the tree from the root through those
// facts: a mid at or above a flipping count moves hi, one at or below a
// count that does not flip moves lo, each without a probe, and any other
// mid is probed in a halving round batched over the chunk. Flips are
// monotone in the hammer count, so a victim that flips at hi' and not at
// lo' walks straight to the predicted leaf, which is then the leaf the
// plain bisection reaches; a wrong prediction costs the rounds its facts
// leave open, never the answer.
func (h *Harness) bisect(pp *probeProg, active []int, lo, hi, flipAt []int) error {
	prec := max(h.HCPrecision, 1)
	// yes[j] is the smallest count known to flip victim j, no[j] the
	// largest known not to; leafLo and leafHi are its predicted leaf.
	var yes, no, leafLo, leafHi, buf, counts [MaxProbeBatch]int
	var res [MaxProbeBatch]BERResult
	for _, j := range active {
		yes[j], no[j] = hi[j], lo[j]
		if flipAt != nil {
			yes[j] = min(yes[j], flipAt[j])
		}
		l, u := lo[j], hi[j]
		if t := h.hint(pp, j, hi[j]); t > 0 {
			for u-l > prec {
				if mid := l + (u-l)/2; t <= mid {
					u = mid
				} else {
					l = mid
				}
			}
		}
		leafLo[j], leafHi[j] = l, u
	}
	h.probes.searches += len(active)
	n := len(pp.loops)
	// run probes each victim of sel at counts[j] and records what the
	// probe shows.
	run := func(sel []int) error {
		if err := h.runProbes(pp, counts[:n], res[:n]); err != nil {
			return err
		}
		for _, j := range sel {
			if res[j].Flips > 0 {
				yes[j] = counts[j]
			} else {
				no[j] = counts[j]
			}
		}
		return nil
	}
	for _, end := range [2]*[MaxProbeBatch]int{&leafHi, &leafLo} {
		clear(counts[:n])
		sel := buf[:0]
		for _, j := range active {
			if c := end[j]; no[j] < c && c < yes[j] {
				counts[j] = c
				sel = append(sel, j)
			}
		}
		if len(sel) == 0 {
			continue
		}
		h.probes.hint += len(sel)
		if err := run(sel); err != nil {
			return err
		}
	}
	// searching walks victim j down the tree as far as its facts reach
	// and reports whether it still needs a probe.
	searching := func(j int) bool {
		for hi[j]-lo[j] > prec {
			switch mid := lo[j] + (hi[j]-lo[j])/2; {
			case mid >= yes[j]:
				hi[j] = mid
			case mid <= no[j]:
				lo[j] = mid
			default:
				return true
			}
		}
		return false
	}
	next := buf[:0]
	for _, j := range active {
		if searching(j) {
			next = append(next, j)
		}
	}
	for len(next) > 0 {
		clear(counts[:n])
		for _, j := range next {
			counts[j] = lo[j] + (hi[j]-lo[j])/2
		}
		h.probes.fallback += len(next)
		if err := run(next); err != nil {
			return err
		}
		still := next[:0]
		for _, j := range next {
			if searching(j) {
				still = append(still, j)
			}
		}
		next = still
	}
	return nil
}

// hint returns the count the device predicts first flips chunk victim j
// of pp, searched up to maxN, or 0 when it predicts none; hintShift moves
// it.
func (h *Harness) hint(pp *probeProg, j, maxN int) int {
	n, ok := h.dev.FirstFlipBurst(pp.ba, pp.victims[j], pp.fill, pp.aggr, pp.hold, maxN)
	if !ok {
		n = 0
	}
	return n + h.hintShift
}
