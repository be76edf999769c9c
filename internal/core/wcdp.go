package core

import (
	"github.com/safari-repro/hbmrh/internal/addr"
)

// WCDPResult reports the worst-case data pattern of one row.
type WCDPResult struct {
	Pattern Pattern
	// HCFirst is the row's minimum hammer count under the worst pattern;
	// Found is false if no pattern flips within maxHammers.
	HCFirst int
	Found   bool
	// BER is the row's bit error rate under the worst pattern at
	// maxHammers hammers.
	BER float64
}

// WCDP determines the worst-case data pattern of a row per the paper's
// definition: the pattern with the smallest HCfirst; ties broken by the
// largest BER at the maximum hammer count. It is a one-row WCDPBatch.
func (h *Harness) WCDP(ba addr.BankAddr, physVictim int, maxHammers int) (WCDPResult, error) {
	out, err := h.WCDPBatch(ba, []int{physVictim}, maxHammers)
	if err != nil {
		return WCDPResult{}, err
	}
	return out[0], nil
}

// numPatterns is len(Table1()), the patterns a WCDP search compares.
const numPatterns = 4

// WCDPBatch determines the worst-case data pattern of each victim row in
// one bank by the paper's rule: the smallest HCfirst, ties broken by the
// largest BER at maxHammers and then by the earliest Table 1 pattern
// (Rowstripe0 when nothing flips). Its results are what four
// HCFirstBatch searches would give, but it does not measure every
// pattern's HCfirst: it bisects one pattern fully and settles each other
// pattern with one or two probes at the ends of that pattern's final
// bracket, then probes the ceilings the BER tie-break needs.
//
// Every HCfirst search from (0, maxHammers] walks the same tree of
// brackets, halving at mid = lo+(hi-lo)/2 until a bracket is no wider
// than HCPrecision, and since flips are monotone in the hammer count
// (which the search itself assumes) a pattern's HCfirst is the right end
// of the leaf holding its first flip. So against an incumbent with leaf
// (lo, hi], a pattern that does not flip at hi has a larger HCfirst; one
// that flips at hi but not at lo (or at hi when lo is 0) shares the leaf
// and ties; one that flips at lo has a strictly smaller HCfirst and
// becomes the incumbent. Probes are pure functions of the probe itself,
// so every answer is one the four full searches would have measured.
//
// Victims are searched maxProbeBatch at a time, every step one run of
// the chunk's program under the step's pattern, built on the chunk's
// first probe under it, with the probes of the victims the step does
// not need skipped. The first pattern each victim tries at the ceiling
// is the previous chunk's last winner (Rowstripe0 for the first chunk);
// the guess changes only how many probes run.
func (h *Harness) WCDPBatch(ba addr.BankAddr, physVictims []int, maxHammers int) ([]WCDPResult, error) {
	out := make([]WCDPResult, len(physVictims))
	s := wcdpSearch{h: h, ba: ba, patterns: Table1(), max: maxHammers, tras: h.dev.Config().Timing.TRAS}
	defer func() {
		for _, pp := range s.progs {
			if pp != nil {
				probePool.Put(pp)
			}
		}
	}()
	for lo := 0; lo < len(physVictims); lo += maxProbeBatch {
		hi := min(lo+maxProbeBatch, len(physVictims))
		if err := s.chunk(physVictims[lo:hi], out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// wcdpRow is one victim's state in a WCDP search. Pattern sets are bit
// masks over Table 1 indexes.
type wcdpRow struct {
	// ceil holds the BER probes at maxHammers of the patterns in known.
	ceil  [numPatterns]BERResult
	known uint8
	// inc is the incumbent pattern, -1 while no pattern has flipped (its
	// HCfirst leaf is the search's (lo, hi]); tied holds the other
	// patterns whose HCfirst equals hi, and lost the ones known to have a
	// larger one (or none): a ceiling that did not flip, or a beaten
	// incumbent.
	inc  int
	tied uint8
	lost uint8
}

// wcdpSearch is WCDPBatch's state across one call's chunks. Every index
// j is a chunk victim's, which is also its probe's in each program.
type wcdpSearch struct {
	h        *Harness
	ba       addr.BankAddr
	patterns []Pattern
	max      int
	tras     int64
	// guess is the pattern the next chunk probes first at the ceiling.
	guess int

	victims []int
	// progs[q] is the program under pattern q, taken from probePool on
	// first use; built holds the patterns whose program is built over
	// this chunk's victims.
	progs [numPatterns]*probeProg
	built uint8
	rows  [maxProbeBatch]wcdpRow
	// lo and hi are victim j's incumbent leaf (lo[j], hi[j]].
	lo, hi [maxProbeBatch]int
	res    [maxProbeBatch]BERResult
}

// program returns the chunk's probe program under pattern q, building
// it on first use.
func (s *wcdpSearch) program(q int) (*probeProg, error) {
	if s.progs[q] == nil {
		s.progs[q] = s.h.getProbe()
	}
	pp := s.progs[q]
	if s.built&(1<<q) == 0 {
		if err := s.h.buildProbes(pp, s.ba, s.victims, s.patterns[q], s.max, s.tras); err != nil {
			return nil, err
		}
		s.built |= 1 << q
	}
	return pp, nil
}

// probe runs pattern q on the chunk victims sel, victim j at count(j),
// skipping the other victims, records the probes at maxHammers as
// ceilings, and returns the measurements, indexed by chunk victim.
func (s *wcdpSearch) probe(sel []int, q int, count func(j int) int) ([]BERResult, error) {
	pp, err := s.program(q)
	if err != nil {
		return nil, err
	}
	var counts [maxProbeBatch]int
	for _, j := range sel {
		counts[j] = count(j)
	}
	n := len(s.victims)
	if err := s.h.runProbes(pp, counts[:n], s.res[:n]); err != nil {
		return nil, err
	}
	for _, j := range sel {
		if counts[j] == s.max {
			s.rows[j].ceil[q] = s.res[j]
			s.rows[j].known |= 1 << q
		}
	}
	return s.res[:n], nil
}

// bisect runs Harness.bisect under pattern q over the chunk victims sel
// from their leaves; flipAt, if non-nil, holds per chunk victim a count
// known to flip it.
func (s *wcdpSearch) bisect(sel []int, q int, flipAt []int) error {
	if len(sel) == 0 {
		return nil
	}
	pp, err := s.program(q)
	if err != nil {
		return err
	}
	return s.h.bisect(pp, sel, s.lo[:], s.hi[:], flipAt)
}

// ceilingOrder is the pattern a victim probes in ceiling round r: the
// guess, then the others in Table 1 order.
func (s *wcdpSearch) ceilingOrder(r int) int {
	if r == 0 {
		return s.guess
	}
	if r-1 >= s.guess {
		return r
	}
	return r - 1
}

// chunk searches at most maxProbeBatch victims, writing their results.
func (s *wcdpSearch) chunk(victims []int, out []WCDPResult) error {
	s.victims, s.built = victims, 0
	atMax := func(int) int { return s.max }
	atHi := func(j int) int { return s.hi[j] }
	atLo := func(j int) int { return s.lo[j] }
	var selBuf, nextBuf, flipAt [maxProbeBatch]int

	// 1. Ceiling probes, until each victim has a pattern that flips: its
	// incumbent, with the whole range as its leaf.
	pending := selBuf[:0]
	for j := range victims {
		s.rows[j] = wcdpRow{inc: -1}
		pending = append(pending, j)
	}
	for r := 0; r < numPatterns && len(pending) > 0; r++ {
		q := s.ceilingOrder(r)
		res, err := s.probe(pending, q, atMax)
		if err != nil {
			return err
		}
		next := pending[:0]
		for _, j := range pending {
			if res[j].Flips > 0 {
				s.rows[j].inc, s.lo[j], s.hi[j] = q, 0, s.max
			} else {
				s.rows[j].lost |= 1 << q
				next = append(next, j)
			}
		}
		pending = next
	}

	// 2. Bisect each incumbent group.
	for q := range numPatterns {
		inc := s.where(selBuf[:0], func(r *wcdpRow) bool { return r.inc == q })
		if err := s.bisect(inc, q, nil); err != nil {
			return err
		}
	}

	// 3. Settle every other pattern against its victim's incumbent leaf.
	for q := range numPatterns {
		bit := uint8(1) << q
		sel := s.where(selBuf[:0], func(r *wcdpRow) bool {
			return r.inc >= 0 && r.inc != q && r.lost&bit == 0
		})
		if len(sel) == 0 {
			continue
		}
		res, err := s.probe(sel, q, atHi)
		if err != nil {
			return err
		}
		inside := nextBuf[:0] // flipped at hi with lo > 0: probe lo
		for _, j := range sel {
			switch {
			case res[j].Flips == 0: // a larger HCfirst: loses
			case s.lo[j] == 0:
				s.rows[j].tied |= bit
			default:
				inside = append(inside, j)
			}
		}
		if len(inside) == 0 {
			continue
		}
		if res, err = s.probe(inside, q, atLo); err != nil {
			return err
		}
		wins := selBuf[:0] // sel is spent; inside is read ahead of wins
		for _, j := range inside {
			r := &s.rows[j]
			if res[j].Flips == 0 {
				r.tied |= bit
				continue
			}
			flipAt[j] = s.lo[j]
			r.lost |= 1 << r.inc
			r.inc, r.tied, s.lo[j], s.hi[j] = q, 0, 0, s.max
			wins = append(wins, j)
		}
		if err := s.bisect(wins, q, flipAt[:]); err != nil {
			return err
		}
	}

	// 4. Probe the ceilings the tie-break still needs, then pick.
	for q := range numPatterns {
		bit := uint8(1) << q
		sel := s.where(selBuf[:0], func(r *wcdpRow) bool {
			return r.inc >= 0 && (r.inc == q || r.tied&bit != 0) && r.known&bit == 0
		})
		if len(sel) == 0 {
			continue
		}
		if _, err := s.probe(sel, q, atMax); err != nil {
			return err
		}
	}
	for j := range victims {
		r := &s.rows[j]
		if r.inc < 0 { // nothing flipped: every ceiling is known
			w := r.pick(1<<numPatterns - 1)
			out[j] = WCDPResult{Pattern: s.patterns[w], BER: r.ceil[w].BER()}
			s.guess = w
			continue
		}
		w := r.pick(r.tied | 1<<r.inc)
		out[j] = WCDPResult{Pattern: s.patterns[w], HCFirst: s.hi[j], Found: true, BER: r.ceil[w].BER()}
		s.guess = w
	}
	return nil
}

// where appends to dst the chunk victims whose rows satisfy keep.
func (s *wcdpSearch) where(dst []int, keep func(*wcdpRow) bool) []int {
	for j := range s.victims {
		if keep(&s.rows[j]) {
			dst = append(dst, j)
		}
	}
	return dst
}

// pick returns the pattern of set with the largest ceiling BER, the
// earliest on equal BER.
func (r *wcdpRow) pick(set uint8) int {
	w := -1
	for q := range numPatterns {
		if set&(1<<q) != 0 && (w < 0 || r.ceil[q].BER() > r.ceil[w].BER()) {
			w = q
		}
	}
	return w
}
