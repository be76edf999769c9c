package stats

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/safari-repro/hbmrh/internal/jsonwire"
)

// sampleSets returns the shapes the equivalence suite runs over: uniform,
// heavily skewed (lognormal-like, the fault model's shape), and constant.
func sampleSets(n int, rng *rand.Rand) map[string][]float64 {
	uniform := make([]float64, n)
	skewed := make([]float64, n)
	constant := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = rng.Float64()
		skewed[i] = math.Exp(rng.NormFloat64()) / 60 // mass near 0, long tail
		if skewed[i] > 1 {
			skewed[i] = 1
		}
		constant[i] = 0.375
	}
	return map[string][]float64{"uniform": uniform, "skewed": skewed, "constant": constant}
}

func streamOf(xs []float64) *Stream {
	s := NewStream(0, 1)
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestStreamExactModeMatchesSummarizeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 100, DefaultExactCutoff} {
		for name, xs := range sampleSets(n, rng) {
			s := streamOf(xs)
			if s.Sketched() {
				t.Fatalf("%s n=%d: stream sketched below the cutoff", name, n)
			}
			if got, want := s.Summary(), Summarize(xs); got != want {
				t.Errorf("%s n=%d: streaming summary %+v != batch %+v", name, n, got, want)
			}
		}
	}
}

func TestStreamSketchModeWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 6000 // well past the cutoff
	for name, xs := range sampleSets(n, rng) {
		s := streamOf(xs)
		if !s.Sketched() {
			t.Fatalf("%s: stream still exact at n=%d", name, n)
		}
		got, want := s.Summary(), Summarize(xs)
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
			t.Errorf("%s: count/extrema drifted: %+v vs %+v", name, got, want)
		}
		if !closeRel(got.Mean, want.Mean, 1e-9) || !closeAbs(got.StdDev, want.StdDev, 1e-9) {
			t.Errorf("%s: moments drifted: mean %v vs %v, stddev %v vs %v",
				name, got.Mean, want.Mean, got.StdDev, want.StdDev)
		}
		// Quartiles: one bin width from the sketch plus the hinge-vs-rank
		// interpolation gap, which vanishes at this sample size.
		tol := 2 * s.QuantileTolerance()
		for _, q := range []struct{ got, want float64 }{
			{got.Q1, want.Q1}, {got.Median, want.Median}, {got.Q3, want.Q3},
		} {
			if !closeAbs(q.got, q.want, tol) {
				t.Errorf("%s: quartile %v vs %v, outside tolerance %v", name, q.got, q.want, tol)
			}
		}
	}
}

func TestStreamMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{60, 6000} { // exact-mode and sketch-mode aggregates
		for name, xs := range sampleSets(n, rng) {
			// Split into uneven shards and merge in opposite orders.
			shards := [][]float64{xs[:n/5], xs[n/5 : n/2], xs[n/2 : n-n/7], xs[n-n/7:]}
			forward := NewStream(0, 1)
			for _, sh := range shards {
				forward.Merge(streamOf(sh))
			}
			backward := NewStream(0, 1)
			for i := len(shards) - 1; i >= 0; i-- {
				backward.Merge(streamOf(shards[i]))
			}
			if forward.N() != n || backward.N() != n {
				t.Fatalf("%s n=%d: merged counts %d/%d", name, n, forward.N(), backward.N())
			}
			if !reflect.DeepEqual(forward.bins, backward.bins) {
				t.Errorf("%s n=%d: bin counts depend on merge order", name, n)
			}
			if forward.min != backward.min || forward.max != backward.max {
				t.Errorf("%s n=%d: extrema depend on merge order", name, n)
			}
			// Moments are exact sums rounded once, so they must agree bit
			// for bit across merge orders — not merely within tolerance.
			if forward.Mean() != backward.Mean() || forward.StdDev() != backward.StdDev() {
				t.Errorf("%s n=%d: moments depend on merge order: mean %v vs %v, stddev %v vs %v",
					name, n, forward.Mean(), backward.Mean(), forward.StdDev(), backward.StdDev())
			}
			whole2 := streamOf(xs)
			if forward.Mean() != whole2.Mean() || forward.StdDev() != whole2.StdDev() {
				t.Errorf("%s n=%d: sharded moments differ from the sequential fold", name, n)
			}
			// Quantiles depend only on order-independent state (bins, n,
			// extrema in sketch mode; the sorted multiset in exact mode),
			// so they must agree bit for bit.
			for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
				if forward.Quantile(q) != backward.Quantile(q) {
					t.Errorf("%s n=%d: quantile %v depends on merge order: %v vs %v",
						name, n, q, forward.Quantile(q), backward.Quantile(q))
				}
			}
			// And the merged result matches feeding the whole sample into
			// one stream (exact mode: identical summaries).
			whole := streamOf(xs)
			if !forward.Sketched() {
				if forward.Summary() != whole.Summary() {
					t.Errorf("%s n=%d: exact-mode merge diverged from single-stream fold", name, n)
				}
			} else if !reflect.DeepEqual(forward.bins, whole.bins) {
				t.Errorf("%s n=%d: merged bins diverged from single-stream fold", name, n)
			}
		}
	}
}

func TestStreamMergeCrossesExactCutoff(t *testing.T) {
	// Two exact shards whose union exceeds the cutoff must collapse to the
	// sketch on merge, not retain an oversized sample.
	a := NewStreamSized(0, 1, 10, 64)
	b := NewStreamSized(0, 1, 10, 64)
	for i := 0; i < 8; i++ {
		a.Add(float64(i) / 10)
		b.Add(float64(i)/10 + 0.05)
	}
	if a.Sketched() || b.Sketched() {
		t.Fatal("shards sketched below their own cutoff")
	}
	a.Merge(b)
	if !a.Sketched() {
		t.Fatal("merged stream over the cutoff still claims exact mode")
	}
	if a.exact != nil {
		t.Fatal("merged stream retained the raw sample past the cutoff")
	}
	if a.N() != 16 {
		t.Fatalf("merged N = %d, want 16", a.N())
	}
}

// TestStreamExactMergeAcrossCutoffEncodesAsOneStream crosses the
// exact→sketch boundary by merge: two exact shards whose union passes
// the cutoff must encode byte for byte as one stream fed every sample,
// in either merge order and after a decode round trip of the shards.
// The samples are multiples of 1/1024, so every moment sum is exact in
// one partial and the wire form cannot depend on how the sums were
// grouped.
func TestStreamExactMergeAcrossCutoffEncodesAsOneStream(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(1280)-128) / 1024 // out of domain at both ends too
		}
		return xs
	}
	xa, xb := sample(40), sample(30)
	shard := func(xs []float64) *Stream {
		s := NewStreamSized(0, 1, 64, 32)
		for _, x := range xs {
			s.Add(x)
		}
		return s
	}
	whole := shard(append(append([]float64(nil), xa...), xb...))
	if !whole.Sketched() {
		t.Fatal("the whole sample does not pass the cutoff")
	}
	want, err := whole.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(s *Stream) *Stream {
		var d Stream
		if err := d.UnmarshalJSON(mustMarshal(t, s)); err != nil {
			t.Fatal(err)
		}
		return &d
	}
	for _, tc := range []struct {
		name string
		a, b *Stream
	}{
		{"a+b", shard(xa), shard(xb)},
		{"b+a", shard(xb), shard(xa)},
		{"decoded a+b", roundTrip(shard(xa)), roundTrip(shard(xb))},
		{"decoded b+a", roundTrip(shard(xb)), roundTrip(shard(xa))},
	} {
		if tc.a.Sketched() || tc.b.Sketched() {
			t.Fatalf("%s: a shard sketched below its cutoff", tc.name)
		}
		tc.a.Merge(tc.b)
		if got := mustMarshal(t, tc.a); !bytes.Equal(got, want) {
			t.Errorf("%s: merged encoding differs from one stream fed every sample:\n%s\nvs\n%s", tc.name, got, want)
		}
		if got := mustMarshal(t, roundTrip(tc.a)); !bytes.Equal(got, want) {
			t.Errorf("%s: merged stream does not survive a round trip", tc.name)
		}
	}
}

// TestStreamExactHoldsNoBins pins the exact-mode footprint: Add, Clone,
// a Merge that stays under the cutoff and a decode hold no bin array,
// encoding allocates nothing, and the stream pays for its histogram only
// when it sketches.
func TestStreamExactHoldsNoBins(t *testing.T) {
	const nbins = DefaultStreamBins
	binBytes := uint64(nbins * 8)
	// allocated reports the fewest bytes f allocated over several runs,
	// each after a fresh prep. TotalAlloc is process-wide, so one run can
	// also count another goroutine's allocations; the fewest is f's own.
	allocated := func(prep, f func()) uint64 {
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			prep()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	a, b := NewStreamSized(0, 1, 64, nbins), NewStreamSized(0, 1, 64, nbins)
	for i := 0; i < 10; i++ {
		a.Add(float64(i) / 10)
		b.Add(float64(i)/10 + 0.05)
	}
	var c *Stream
	if n := allocated(func() {}, func() { c = a.Clone() }); n >= binBytes || c.bins != nil {
		t.Errorf("Clone of an exact stream allocated %d bytes (bins %v)", n, c.bins != nil)
	}
	if n := allocated(func() { c = a.Clone() }, func() { c.Merge(b) }); n >= binBytes || c.bins != nil {
		t.Errorf("exact Merge allocated %d bytes (bins %v)", n, c.bins != nil)
	}
	var d Stream
	if err := d.UnmarshalJSON(mustMarshal(t, c)); err != nil || d.bins != nil || d.nbins != nbins {
		t.Errorf("decoded exact stream: err %v, holds bins %v, nbins %d", err, d.bins != nil, d.nbins)
	}
	w := jsonwire.NewWriter(make([]byte, 0, 1<<20), false)
	if allocs := testing.AllocsPerRun(100, func() { c.WriteJSON(w) }); allocs != 0 || w.Err() != nil {
		t.Errorf("encoding an exact stream: %.0f allocs/op (err %v), want 0", allocs, w.Err())
	}
	for c.N() <= 64 {
		c.Add(0.5)
	}
	if !c.Sketched() || len(c.bins) != nbins || c.exact != nil {
		t.Errorf("crossing the cutoff: sketched %v, %d bins, exact %v", c.Sketched(), len(c.bins), c.exact != nil)
	}
}

func TestStreamMergeEmptyAndIntoEmpty(t *testing.T) {
	empty := NewStream(0, 1)
	full := streamOf([]float64{0.2, 0.4, 0.6})
	full.Merge(NewStream(0, 1))
	if full.N() != 3 {
		t.Fatalf("merging an empty stream changed N to %d", full.N())
	}
	empty.Merge(full)
	if empty.Summary() != full.Summary() {
		t.Fatalf("merge into empty: %+v != %+v", empty.Summary(), full.Summary())
	}
}

func TestStreamConstantSampleQuantilesExact(t *testing.T) {
	// A constant sample past the cutoff occupies one bin; clamping to the
	// observed extrema must recover the constant exactly.
	s := NewStreamSized(0, 1, 4, 32)
	for i := 0; i < 100; i++ {
		s.Add(0.625)
	}
	sum := s.Summary()
	if sum.Min != 0.625 || sum.Q1 != 0.625 || sum.Median != 0.625 || sum.Q3 != 0.625 || sum.Max != 0.625 {
		t.Fatalf("constant sample summary drifted: %+v", sum)
	}
	if sum.StdDev != 0 {
		t.Fatalf("constant sample stddev = %v", sum.StdDev)
	}
}

func TestStreamOutOfDomainValuesClampIntoEdgeBins(t *testing.T) {
	s := NewStreamSized(0, 1, 2, 16)
	for _, x := range []float64{-0.5, -0.1, 0.5, 1.1, 2.0} {
		s.Add(x)
	}
	if s.Min() != -0.5 || s.Max() != 2.0 {
		t.Fatalf("extrema must report true values: min=%v max=%v", s.Min(), s.Max())
	}
	var total int64
	for _, c := range s.bins {
		total += c
	}
	if total != 5 {
		t.Fatalf("bins hold %d samples, want all 5", total)
	}
	// Quantile extremes follow the true extrema, not the clamped domain.
	if s.Quantile(0) != -0.5 || s.Quantile(1) != 2.0 {
		t.Fatalf("quantile extremes %v/%v", s.Quantile(0), s.Quantile(1))
	}
}

// TestStreamHugeValuesClampIntoTopBin pins binOf past the range of int:
// a sample whose bin position overflows the conversion must land in the
// top bin on every platform, not wherever the conversion wraps.
func TestStreamHugeValuesClampIntoTopBin(t *testing.T) {
	for _, x := range []float64{1 << 40, 1e30, -1e30} {
		s := NewStreamSized(0, 1, 0, 16)
		s.Add(x)
		want := 15
		if x < 0 {
			want = 0
		}
		if s.bins[want] != 1 {
			t.Errorf("sample %g: bins %v, want its count in bin %d", x, s.bins, want)
		}
	}
}

func TestStreamSketchQuantileNearRankGuarantee(t *testing.T) {
	// The sketch's guarantee is against the *nearest-rank* empirical
	// quantile: on a zero-inflated two-point distribution (where
	// interpolating definitions like Tukey hinges jump across the gap),
	// every quantile estimate must still land within one bin width of
	// sorted[floor(rank)].
	s := NewStreamSized(0, 1, 16, 64)
	var sorted []float64
	for i := 0; i < 1500; i++ {
		s.Add(0)
		sorted = append(sorted, 0)
	}
	for i := 0; i < 500; i++ {
		s.Add(0.5)
		sorted = append(sorted, 0.5)
	}
	if !s.Sketched() {
		t.Fatal("stream still exact")
	}
	w := s.QuantileTolerance()
	for _, q := range []float64{0.01, 0.25, 0.5, 0.7499, 0.75, 0.76, 0.9, 0.999} {
		rank := int(q * float64(len(sorted)-1))
		want := sorted[rank]
		got := s.Quantile(q)
		if math.Abs(got-want) > w {
			t.Errorf("q=%v: estimate %v is %v away from nearest-rank quantile %v, over one bin width %v",
				q, got, math.Abs(got-want), want, w)
		}
	}
}

func TestStreamSketchQuantileStaysInOccupiedBin(t *testing.T) {
	// A single-sample bin must not overshoot: when the target rank lands
	// on a lone sample in bin [0.5, 0.6), the uncapped interpolation term
	// (rank-cum+0.5)/c would reach 1.4 bins for this rank, pushing the
	// estimate into the next, empty bin; the cap keeps it inside.
	s := NewStreamSized(0, 1, 2, 10)
	for i := 0; i < 50; i++ {
		s.Add(0.05)
	}
	s.Add(0.55)
	for i := 0; i < 49; i++ {
		s.Add(0.95)
	}
	q := 50.9 / 99 // rank 50.9: inside the lone sample's rank slot [50, 51)
	got := s.Quantile(q)
	if got < 0.5 || got > 0.6+1e-9 { // bin top modulo float rounding
		t.Fatalf("quantile %v escaped the occupied bin [0.5, 0.6]", got)
	}
}

func TestStreamQuantileSortedCacheInvalidation(t *testing.T) {
	// The exact-mode quartile path memoizes a sorted view instead of
	// re-sorting per call; Add and Merge must invalidate it, and the raw
	// buffer must keep its insertion order (the codec serializes it).
	s := NewStream(0, 1)
	for _, x := range []float64{0.9, 0.1, 0.5} {
		s.Add(x)
	}
	if got := s.Quantile(0.5); got != 0.5 {
		t.Fatalf("median %v, want 0.5", got)
	}
	if s.exact[0] != 0.9 {
		t.Fatalf("Quantile reordered the raw sample: %v", s.exact)
	}
	s.Add(0.2) // must invalidate the memoized sorted view
	if got, want := s.Quantile(0.5), Median([]float64{0.9, 0.1, 0.5, 0.2}); got != want {
		t.Fatalf("median after Add %v, want %v", got, want)
	}
	o := NewStream(0, 1)
	o.Add(0.3)
	s.Merge(o) // must invalidate too
	if got, want := s.Quantile(0.5), Median([]float64{0.9, 0.1, 0.5, 0.2, 0.3}); got != want {
		t.Fatalf("median after Merge %v, want %v", got, want)
	}
	if got, want := s.Summary(), Summarize(s.exact); got != want {
		t.Fatalf("Summary %+v diverged from Summarize %+v", got, want)
	}
	// Seal pre-builds the view; subsequent reads must not rebuild it (the
	// read-only contract concurrent render paths rely on).
	s.Seal()
	built := &s.sortedExact[0]
	_ = s.Quantile(0.25)
	_ = s.Summary()
	if built != &s.sortedExact[0] {
		t.Fatal("sealed stream rebuilt its sorted view on read")
	}
}

func TestStreamMismatchedMergePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging incompatible streams did not panic")
		}
	}()
	NewStream(0, 1).Merge(NewStream(0, 2))
}

func closeAbs(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}
