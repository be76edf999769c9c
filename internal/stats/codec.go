package stats

import (
	"fmt"
	"math"
	"sync"

	"github.com/safari-repro/hbmrh/internal/jsonwire"
)

// Stream codec: one stable, versioned JSON wire form so shard
// accumulators can leave their process (written to artifact files by one
// machine, read and merged by another) without weakening any in-memory
// guarantee. The form captures the full accumulator state (domain, exact
// moment sums, bin counts, extrema, and the raw sample while in exact
// mode), so
//
//	decode(encode(s)) == s          bit for bit, and
//	decode(encode(a)).Merge(decode(encode(b))) == a.Merge(b)
//
// also bit for bit. The form is a JSON object, {"v":1,"lo":...}, that
// artifact files embed (internal/results); it is written and read by the
// non-reflective jsonwire codec, byte-identical to encoding/json's
// encoding of the same fields. It carries an explicit version, and
// payloads from a different version are rejected rather than guessed at.
//
// Values must be finite: JSON cannot represent NaN/Inf, so encoding a
// stream poisoned by non-finite samples fails loudly at the boundary
// instead of silently corrupting a fleet aggregate.

// StreamCodecVersion is the wire-format version of the stream encoding.
// Decoders reject any other version.
const StreamCodecVersion = 1

// WriteJSON writes the stream's wire form to w, failing w on non-finite
// state.
func (s *Stream) WriteJSON(w *jsonwire.Writer) {
	if err := s.checkFinite(); err != nil {
		w.Fail(err)
		return
	}
	w.Open('{')
	w.Key("v")
	w.Int(StreamCodecVersion)
	w.Key("lo")
	w.Float(s.lo)
	w.Key("hi")
	w.Float(s.hi)
	w.Key("cutoff")
	w.Int(int64(s.cutoff))
	w.Key("n")
	w.Int(s.n)
	w.Key("min")
	w.Float(s.min)
	w.Key("max")
	w.Float(s.max)
	w.Key("sum")
	w.Floats(s.sum.partials)
	w.Key("sum_sq")
	w.Floats(s.sumSq.partials)
	w.Key("bins")
	if s.sketched {
		w.Ints(s.bins)
	} else {
		h := histScratch.Get().(*[]int64)
		*h = s.histogram(*h)
		w.Ints(*h)
		histScratch.Put(h)
	}
	w.Key("sketched")
	w.Bool(s.sketched)
	if len(s.exact) > 0 {
		w.Key("exact")
		w.Floats(s.exact)
	}
	w.Close('}')
}

// histScratch holds the histograms exact-mode encodes derive, so writing
// a stream allocates none.
var histScratch = sync.Pool{New: func() any { return new([]int64) }}

// MarshalJSON encodes the stream's compact wire form. float64 fields
// use the shortest representation that parses back to the same bits.
func (s *Stream) MarshalJSON() ([]byte, error) {
	w := jsonwire.NewWriter(nil, false)
	s.WriteJSON(w)
	return w.Bytes(), w.Err()
}

var streamFields = []string{"v", "lo", "hi", "cutoff", "n", "min", "max", "sum", "sum_sq", "bins", "sketched", "exact"}

// ReadStream decodes one stream from r: nil for null, otherwise a stream
// whose version and structural invariants have been checked. Failures
// fail r and return nil. The bins are parsed into r's scratch: a sketched
// stream copies them, an exact one checks them against its sample and
// keeps none.
func ReadStream(r *jsonwire.Reader) *Stream {
	if r.Null() {
		return nil
	}
	var d Stream
	var bins []int64
	v := 0
	r.Object(streamFields, func(field string) {
		switch field {
		case "v":
			v = r.Int()
		case "lo":
			d.lo = r.Float()
		case "hi":
			d.hi = r.Float()
		case "cutoff":
			d.cutoff = r.Int()
		case "n":
			d.n = r.Int64()
		case "min":
			d.min = r.Float()
		case "max":
			d.max = r.Float()
		case "sum":
			d.sum.partials = r.Floats()
		case "sum_sq":
			d.sumSq.partials = r.Floats()
		case "bins":
			bins = r.IntsScratch()
		case "sketched":
			d.sketched = r.Bool()
		case "exact":
			// Empty, the sample is nil, as Add leaves it and as the
			// encoding, which omits it, decodes.
			if d.exact = r.Floats(); len(d.exact) == 0 {
				d.exact = nil
			}
		}
	})
	if r.Err() != nil {
		return nil
	}
	if v != StreamCodecVersion {
		r.Fail(fmt.Errorf("stats: decoding stream JSON: version %d, this build reads version %d", v, StreamCodecVersion))
		return nil
	}
	d.nbins = len(bins)
	if err := d.validate(bins); err != nil {
		r.Fail(err)
		return nil
	}
	if d.sketched {
		d.bins = make([]int64, len(bins))
		copy(d.bins, bins)
	}
	return &d
}

// UnmarshalJSON decodes the wire form with ReadStream's validation. null
// is rejected: a stream value has no empty form.
func (s *Stream) UnmarshalJSON(data []byte) error {
	r := jsonwire.NewReader(data)
	d := ReadStream(r)
	if err := r.Finish(); err != nil {
		return fmt.Errorf("stats: decoding stream JSON: %w", err)
	}
	if d == nil {
		return fmt.Errorf("stats: decoding stream JSON: null is not a stream")
	}
	*s = *d
	return nil
}

// checkFinite rejects non-finite accumulator state before encoding.
func (s *Stream) checkFinite() error {
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if !finite(s.lo, s.hi, s.min, s.max) ||
		!finite(s.sum.partials...) || !finite(s.sumSq.partials...) || !finite(s.exact...) {
		return fmt.Errorf("stats: encoding stream: non-finite state (a non-finite sample was folded in)")
	}
	return nil
}

// validate checks the structural invariants every Stream built by
// Add/Merge satisfies against the decoded bin counts; decoders apply it
// so a corrupt payload cannot materialize an accumulator that later
// panics or silently mis-merges. An exact stream's bins must be its
// sample's histogram: they are subtracted from bins in place.
func (s *Stream) validate(bins []int64) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("stats: decoding stream: invalid state: "+format, args...)
	}
	if err := s.checkFinite(); err != nil {
		return fail("non-finite field")
	}
	if s.hi <= s.lo {
		return fail("domain [%g,%g) is empty", s.lo, s.hi)
	}
	if s.cutoff < 0 {
		return fail("negative cutoff %d", s.cutoff)
	}
	if len(bins) == 0 {
		return fail("no bins")
	}
	if s.n < 0 {
		return fail("negative sample count %d", s.n)
	}
	var total int64
	for i, c := range bins {
		if c < 0 {
			return fail("negative count in bin %d", i)
		}
		total += c
	}
	if total != s.n {
		return fail("bin counts sum to %d, sample count is %d", total, s.n)
	}
	if s.sketched {
		if len(s.exact) != 0 {
			return fail("sketched stream carries a raw sample")
		}
		if s.n <= int64(s.cutoff) {
			return fail("sketched stream with n=%d not past cutoff %d", s.n, s.cutoff)
		}
	} else if int64(len(s.exact)) != s.n {
		return fail("exact-mode sample holds %d values for n=%d", len(s.exact), s.n)
	} else {
		for _, x := range s.exact {
			bins[s.binOf(x)]--
		}
		for i, c := range bins {
			if c != 0 {
				return fail("bin %d holds %d more than the exact-mode sample puts there", i, c)
			}
		}
	}
	if s.n == 0 {
		if s.min != 0 || s.max != 0 || len(s.sum.partials) != 0 || len(s.sumSq.partials) != 0 {
			return fail("empty stream with non-zero aggregate state")
		}
	} else if s.min > s.max {
		return fail("min %g exceeds max %g", s.min, s.max)
	}
	return nil
}
