package core

import (
	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
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
// Victims are searched maxProbeBatch at a time, every step batched
// across the chunk as in HCFirstBatch. The first pattern each victim
// tries at the ceiling is the previous chunk's last winner (Rowstripe0
// for the first chunk); the guess changes only how many probes run.
func (h *Harness) WCDPBatch(ba addr.BankAddr, physVictims []int, maxHammers int) ([]WCDPResult, error) {
	out := make([]WCDPResult, len(physVictims))
	s := wcdpSearch{h: h, ba: ba, patterns: Table1(), max: maxHammers, tras: h.dev.Config().Timing.TRAS}
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
	// inc is the incumbent pattern, -1 while no pattern has flipped; its
	// HCfirst leaf is (lo, hi], tied holds the other patterns whose
	// HCfirst equals hi, and lost the ones known to have a larger one (or
	// none): a ceiling that did not flip, or a beaten incumbent.
	inc    int
	lo, hi int
	tied   uint8
	lost   uint8
}

// wcdpSearch is WCDPBatch's state across one call's chunks.
type wcdpSearch struct {
	h        *Harness
	ba       addr.BankAddr
	patterns []Pattern
	max      int
	tras     int64
	// guess is the pattern the next chunk probes first at the ceiling.
	guess int

	victims []int
	rows    [maxProbeBatch]wcdpRow
	vict    [maxProbeBatch]int
	res     [maxProbeBatch]BERResult
}

// probe runs pattern q on the chunk victims sel, victim j at count(j),
// in one program (prog, when non-nil, already probes exactly sel under
// q), records the probes at maxHammers as ceilings, and returns the
// program and the measurements, probe i being victim sel[i].
func (s *wcdpSearch) probe(sel []int, q int, count func(j int) int, prog *bender.Program) (*bender.Program, []BERResult, error) {
	if prog == nil {
		for i, j := range sel {
			s.vict[i] = s.victims[j]
		}
		var err error
		if prog, err = s.h.buildProbes(s.ba, s.vict[:len(sel)], s.max, s.patterns[q], s.tras); err != nil {
			return nil, nil, err
		}
	}
	for i, j := range sel {
		if err := prog.SetLoopCount(s.h.probeLoops[i], int64(count(j))); err != nil {
			return nil, nil, err
		}
	}
	res := s.res[:len(sel)]
	if err := s.h.runProbes(prog, s.patterns[q], s.tras, res); err != nil {
		return nil, nil, err
	}
	for i, j := range sel {
		if count(j) == s.max {
			s.rows[j].ceil[q] = res[i]
			s.rows[j].known |= 1 << q
		}
	}
	return prog, res, nil
}

// bisect runs Harness.bisect under pattern q over the chunk victims sel
// from their rows' brackets; flipAt, if non-nil, holds per victim of sel
// a count known to flip it.
func (s *wcdpSearch) bisect(sel []int, q int, flipAt []int, prog *bender.Program) error {
	var vict, lo, hi [maxProbeBatch]int
	n := len(sel)
	for i, j := range sel {
		vict[i], lo[i], hi[i] = s.victims[j], s.rows[j].lo, s.rows[j].hi
	}
	if err := s.h.bisect(s.ba, vict[:n], s.patterns[q], s.tras, lo[:n], hi[:n], flipAt, prog); err != nil {
		return err
	}
	for i, j := range sel {
		s.rows[j].lo, s.rows[j].hi = lo[i], hi[i]
	}
	return nil
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
	s.victims = victims
	atMax := func(int) int { return s.max }
	atHi := func(j int) int { return s.rows[j].hi }
	atLo := func(j int) int { return s.rows[j].lo }
	var selBuf, nextBuf, flipAt [maxProbeBatch]int

	// 1. Ceiling probes, until each victim has a pattern that flips: its
	// incumbent, with the whole range as its bracket.
	pending := selBuf[:0]
	for j := range victims {
		s.rows[j] = wcdpRow{inc: -1}
		pending = append(pending, j)
	}
	var prog *bender.Program
	reuse := -1 // the pattern whose incumbents are exactly prog's probes
	for r := 0; r < numPatterns && len(pending) > 0; r++ {
		q := s.ceilingOrder(r)
		var res []BERResult
		var err error
		if prog, res, err = s.probe(pending, q, atMax, nil); err != nil {
			return err
		}
		next := pending[:0]
		for i, j := range pending {
			if res[i].Flips > 0 {
				s.rows[j].inc, s.rows[j].hi = q, s.max
			} else {
				s.rows[j].lost |= 1 << q
				next = append(next, j)
			}
		}
		if len(next) == 0 {
			reuse = q
		}
		pending = next
	}

	// 2. Bisect each incumbent group, first the one prog probes.
	incumbents := func(q int) []int {
		return s.where(selBuf[:0], func(r *wcdpRow) bool { return r.inc == q })
	}
	if reuse >= 0 {
		if err := s.bisect(incumbents(reuse), reuse, nil, prog); err != nil {
			return err
		}
	}
	for q := range numPatterns {
		if q == reuse {
			continue
		}
		if err := s.bisect(incumbents(q), q, nil, nil); err != nil {
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
		prog, res, err := s.probe(sel, q, atHi, nil)
		if err != nil {
			return err
		}
		inside := nextBuf[:0] // flipped at hi with lo > 0: probe lo
		for i, j := range sel {
			r := &s.rows[j]
			switch {
			case res[i].Flips == 0: // a larger HCfirst: loses
			case r.lo == 0:
				r.tied |= bit
			default:
				inside = append(inside, j)
			}
		}
		if len(inside) == 0 {
			continue
		}
		if len(inside) != len(sel) {
			prog = nil
		}
		if prog, res, err = s.probe(inside, q, atLo, prog); err != nil {
			return err
		}
		wins := selBuf[:0] // sel is spent; inside is read ahead of wins
		for i, j := range inside {
			r := &s.rows[j]
			if res[i].Flips == 0 {
				r.tied |= bit
				continue
			}
			flipAt[len(wins)] = r.lo
			r.lost |= 1 << r.inc
			r.inc, r.tied, r.lo, r.hi = q, 0, 0, s.max
			wins = append(wins, j)
		}
		if len(wins) != len(inside) {
			prog = nil
		}
		if err := s.bisect(wins, q, flipAt[:len(wins)], prog); err != nil {
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
		if _, _, err := s.probe(sel, q, atMax, nil); err != nil {
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
		out[j] = WCDPResult{Pattern: s.patterns[w], HCFirst: r.hi, Found: true, BER: r.ceil[w].BER()}
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
