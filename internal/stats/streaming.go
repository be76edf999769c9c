package stats

import (
	"fmt"
	"math"
	"sort"
)

// Stream is a mergeable streaming accumulator producing the same Summary a
// batch Summarize would, without retaining the sample once it grows past a
// cutoff. It is the memory backbone of fleet-scale studies: hundreds of
// chip instances feed per-region Streams as they complete, so resident
// memory is O(regions), not O(chips x rows).
//
// Moments come from exact sums (ExactSum): Σx and Σx² are accumulated
// with no rounding error and rounded once when read, so Mean and StdDev
// depend only on the multiset of samples — never on arrival order or on
// how shards were grouped before merging. This is what makes a sharded
// fleet scan byte-identical to a single sequential fold; running-moment
// recurrences (Welford/Chan) are not floating-point associative and
// cannot give that guarantee. Quantiles come from a fixed-marker
// estimator in the spirit of the P² algorithm (Jain & Chlamtac, CACM'85):
// a constant-size set of markers tracks the distribution in one pass.
// Unlike classic P² — whose marker positions depend on arrival order and
// therefore cannot be merged — the markers here are bin boundaries fixed a
// priori over a caller-declared domain, which makes Merge commutative and
// associative in the bin counts: shards can be combined in any order and
// yield identical quantile estimates.
//
// For small samples (N <= the exact cutoff) the Stream keeps the raw
// values and Summary is bit-identical to Summarize; past the cutoff the
// buffer is dropped and quantiles are interpolated from the bins, landing
// within one bin width of the nearest-rank empirical quantile (see
// Quantile for the caveat on sparse/discrete distributions). An exact
// stream holds no bin counts: they are a function of the sample, built
// when the stream sketches (an Add or a Merge past the cutoff) and, into
// pooled scratch, when it encodes. A decoded exact stream is a sample
// and a few scalars, not a sample plus a dense histogram.
//
// A Stream serializes to one versioned JSON form (WriteJSON/ReadStream; see
// codec.go), so shard accumulators can cross process and machine
// boundaries and merge on the other side with the same guarantees.
type Stream struct {
	lo, hi float64
	cutoff int

	n          int64
	sum, sumSq ExactSum
	min, max   float64

	// nbins is the bin count. bins holds the counts only once sketched;
	// while exact they are a function of exact (see histogram) and bins
	// is nil.
	nbins int
	bins  []int64
	// exact holds the raw sample while n <= cutoff; nil once sketched.
	// Insertion order is load-bearing: the codec serializes it verbatim,
	// so shard-merge byte-identity forbids reordering it in place.
	exact    []float64
	sketched bool
	// sortedExact memoizes a sorted copy of exact so quartile render
	// paths sort once per accumulation, not once per Quantile call; nil
	// until built (ensureSorted), invalidated by Add/Merge, never
	// serialized.
	sortedExact []float64
}

// Default sizing of a Stream: the exact-mode cutoff bounds the retained
// sample, and the bin count bounds the sketch-mode quantile error at
// (hi-lo)/DefaultStreamBins.
const (
	DefaultExactCutoff = 1024
	DefaultStreamBins  = 512
)

// NewStream returns a Stream over the quantile domain [lo, hi) with the
// default cutoff and bin count. The domain must be declared up front —
// that is what keeps merging order-independent — and should cover the
// metric's full range (BER: [0,1]; HCfirst: [0, maxHammers]). Values
// outside the domain clamp into the edge bins; Min/Max still report the
// true extrema.
func NewStream(lo, hi float64) *Stream {
	return NewStreamSized(lo, hi, DefaultExactCutoff, DefaultStreamBins)
}

// NewStreamSized is NewStream with an explicit exact-mode cutoff and bin
// count.
func NewStreamSized(lo, hi float64, cutoff, bins int) *Stream {
	if hi <= lo {
		panic("stats: stream domain must be non-empty")
	}
	if cutoff < 0 {
		cutoff = 0
	}
	if bins <= 0 {
		panic("stats: stream needs at least one bin")
	}
	return &Stream{lo: lo, hi: hi, cutoff: cutoff, nbins: bins}
}

// Add folds one sample into the stream.
func (s *Stream) Add(x float64) {
	s.n++
	s.sum.Add(x)
	s.sumSq.Add(x * x)
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	if s.sketched {
		s.bins[s.binOf(x)]++
		return
	}
	s.exact = append(s.exact, x)
	s.sortedExact = nil
	if len(s.exact) > s.cutoff {
		s.sketch()
	}
}

// sketch leaves exact mode: the histogram is built from the sample,
// which is dropped.
func (s *Stream) sketch() {
	s.bins = s.histogram(nil)
	s.exact, s.sortedExact, s.sketched = nil, nil, true
}

// histogram returns the bin counts of the exact sample in dst, reusing
// its capacity when it has nbins.
func (s *Stream) histogram(dst []int64) []int64 {
	if cap(dst) < s.nbins {
		dst = make([]int64, s.nbins)
	} else {
		dst = dst[:s.nbins]
		clear(dst)
	}
	for _, x := range s.exact {
		dst[s.binOf(x)]++
	}
	return dst
}

// binOf returns x's bin. The position is clamped while still a float:
// converting an out-of-range float to int is implementation-defined,
// and would put a huge sample in bin 0, differently on 32- and 64-bit
// platforms.
func (s *Stream) binOf(x float64) int {
	f := (x - s.lo) / (s.hi - s.lo) * float64(s.nbins)
	if !(f >= 0) { // NaN too
		return 0
	}
	if f >= float64(s.nbins) {
		return s.nbins - 1
	}
	return int(f)
}

// CompatibleWith reports whether two streams share the same domain,
// cutoff and bin count — the precondition for Merge. Shards of one
// aggregation always do; artifact-level merging (internal/results) calls
// this to turn a mismatch into an error instead of a panic.
func (s *Stream) CompatibleWith(o *Stream) error {
	if s.lo != o.lo || s.hi != o.hi || s.cutoff != o.cutoff || s.nbins != o.nbins {
		return fmt.Errorf("stats: incompatible streams: [%g,%g)/%d/%d vs [%g,%g)/%d/%d",
			s.lo, s.hi, s.cutoff, s.nbins, o.lo, o.hi, o.cutoff, o.nbins)
	}
	return nil
}

// Merge folds another stream's state into s. Both must share the same
// domain, cutoff and bin count (shards of one aggregation always do; a
// mismatch indicates a harness bug and panics — see CompatibleWith for
// the checked variant). Bin counts, sample count, extrema and the exact
// moment sums all merge exactly, so every Summary field is independent of
// the merge order and grouping.
func (s *Stream) Merge(o *Stream) {
	if err := s.CompatibleWith(o); err != nil {
		panic(err.Error())
	}
	if o.n == 0 {
		return
	}
	s.sum.Merge(&o.sum)
	s.sumSq.Merge(&o.sumSq)
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sortedExact = nil
	if !s.sketched && !o.sketched && len(s.exact)+len(o.exact) <= s.cutoff {
		s.exact = append(s.exact, o.exact...)
		return
	}
	if !s.sketched {
		s.sketch()
	}
	if o.sketched {
		for i, c := range o.bins {
			s.bins[i] += c
		}
		return
	}
	for _, x := range o.exact {
		s.bins[s.binOf(x)]++
	}
}

// Clone returns a deep copy of the stream; mutating the copy never
// affects the original. Coarser aggregation views (internal/results)
// clone fine-axis streams before merging them together.
func (s *Stream) Clone() *Stream {
	c := *s
	c.bins = append([]int64(nil), s.bins...)
	c.exact = append([]float64(nil), s.exact...)
	c.sortedExact = nil
	c.sum = s.sum.clone()
	c.sumSq = s.sumSq.clone()
	return &c
}

// N returns the number of samples folded in so far.
func (s *Stream) N() int { return int(s.n) }

// Mean returns the streaming mean — the exactly-accumulated Σx rounded
// once, then divided by N — or NaN for an empty stream. The result is
// independent of sample arrival order and shard merge grouping.
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.sum.Value() / float64(s.n)
}

// StdDev returns the streaming population standard deviation (the same
// Σx²/N − mean² formula Summarize uses, but over exactly-accumulated
// sums), or NaN for an empty stream. Like Mean, it is independent of
// arrival order and merge grouping.
func (s *Stream) StdDev() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	n := float64(s.n)
	mean := s.sum.Value() / n
	v := s.sumSq.Value()/n - mean*mean
	if v < 0 {
		v = 0 // guard against rounding for near-constant samples
	}
	return math.Sqrt(v)
}

// Min returns the smallest sample seen. It panics on an empty stream.
func (s *Stream) Min() float64 {
	if s.n == 0 {
		panic("stats: Min of empty stream")
	}
	return s.min
}

// Max returns the largest sample seen. It panics on an empty stream.
func (s *Stream) Max() float64 {
	if s.n == 0 {
		panic("stats: Max of empty stream")
	}
	return s.max
}

// Sketched reports whether the stream has outgrown exact mode and dropped
// the raw sample.
func (s *Stream) Sketched() bool { return s.sketched }

// Quantile estimates the q-quantile (q in [0,1]). Exact mode interpolates
// order statistics of the retained sample. Sketch mode locates the bin
// holding the target rank and interpolates within it, returning a value
// within one bin width of the nearest-rank empirical quantile (for
// samples inside the declared domain; out-of-domain values clamp into
// the edge bins). Interpolating quantile definitions — Summarize's Tukey
// hinges, or exact mode's rank interpolation — can differ from the
// nearest-rank quantile by more than that at jumps of sparse or heavily
// discrete distributions, where the true quantile falls between two
// samples many bins apart; on distributions dense at the quartiles the
// definitions agree to within a bin or two (what the equivalence tests
// assert). It panics on an empty stream.
func (s *Stream) Quantile(q float64) float64 {
	if s.n == 0 {
		panic("stats: Quantile of empty stream")
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := q * float64(s.n-1)
	if !s.sketched {
		sorted := s.ensureSorted()
		i := int(rank)
		frac := rank - float64(i)
		if i+1 >= len(sorted) {
			return sorted[len(sorted)-1]
		}
		return sorted[i] + frac*(sorted[i+1]-sorted[i])
	}
	w := (s.hi - s.lo) / float64(s.nbins)
	var cum int64
	for i, c := range s.bins {
		if c == 0 {
			continue
		}
		if rank < float64(cum+c) {
			// Samples in bin i occupy ranks [cum, cum+c); spread them
			// uniformly over the bin. The fraction is capped at 1 so the
			// estimate never leaves the occupied bin (a single-sample bin
			// would otherwise overshoot by half a width), keeping it
			// within one bin width of the nearest-rank order statistic;
			// finally clamp to the observed extrema.
			frac := (rank - float64(cum) + 0.5) / float64(c)
			if frac > 1 {
				frac = 1
			}
			v := s.lo + w*(float64(i)+frac)
			return math.Min(math.Max(v, s.min), s.max)
		}
		cum += c
	}
	return s.max
}

// Summary renders the stream as the paper's box-and-whiskers summary. In
// exact mode it equals Summarize of the sample bit for bit; in sketch mode
// the quartiles carry the estimator's one-bin-width tolerance. It panics
// on an empty stream, which always indicates a harness bug.
func (s *Stream) Summary() Summary {
	if s.n == 0 {
		panic("stats: Summary of empty stream")
	}
	if !s.sketched {
		return summarizeSorted(s.ensureSorted())
	}
	return Summary{
		N:      int(s.n),
		Min:    s.min,
		Q1:     s.Quantile(0.25),
		Median: s.Quantile(0.5),
		Q3:     s.Quantile(0.75),
		Max:    s.max,
		Mean:   s.Mean(),
		StdDev: s.StdDev(),
	}
}

// ensureSorted returns the memoized sorted view of the exact sample,
// building it on first use. The raw buffer keeps its insertion order (the
// codec serializes it verbatim), so only the copy is sorted.
func (s *Stream) ensureSorted() []float64 {
	if s.sortedExact == nil {
		s.sortedExact = make([]float64, len(s.exact))
		copy(s.sortedExact, s.exact)
		sort.Float64s(s.sortedExact)
	}
	return s.sortedExact
}

// Seal pre-builds the sorted view of an exact-mode stream so subsequent
// Quantile and Summary calls are strictly read-only — the precondition
// for handing one stream to many concurrent readers, as the artifact
// store's query service does with merged views. Sketch-mode and empty
// streams have nothing to build; sealing is idempotent, and any later
// Add or Merge simply invalidates the view again.
func (s *Stream) Seal() {
	if !s.sketched && s.n > 0 {
		s.ensureSorted()
	}
}

// QuantileTolerance returns the sketch's resolution: one bin width (zero
// while the stream is still exact). This bounds the error against the
// nearest-rank empirical quantile; see Quantile for why interpolating
// definitions can differ by more on sparse or discrete distributions.
func (s *Stream) QuantileTolerance() float64 {
	if !s.sketched {
		return 0
	}
	return (s.hi - s.lo) / float64(s.nbins)
}
