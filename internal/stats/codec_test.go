package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// codecStreams returns accumulators in every interesting state: empty,
// exact-mode, boundary (n == cutoff), sketched, out-of-domain extrema,
// and all-zero samples.
func codecStreams() map[string]*Stream {
	rng := rand.New(rand.NewSource(23))
	empty := NewStream(0, 1)
	exact := NewStreamSized(0, 1, 64, 32)
	for i := 0; i < 10; i++ {
		exact.Add(rng.Float64())
	}
	boundary := NewStreamSized(0, 1, 16, 32)
	for i := 0; i < 16; i++ {
		boundary.Add(rng.Float64())
	}
	sketched := NewStreamSized(0, 1, 8, 32)
	for i := 0; i < 500; i++ {
		sketched.Add(rng.Float64())
	}
	outOfDomain := NewStreamSized(0, 1, 8, 16)
	for _, x := range []float64{-3, 0.5, 7.25} {
		outOfDomain.Add(x)
	}
	zeros := NewStreamSized(0, 1, 4, 8)
	for i := 0; i < 30; i++ {
		zeros.Add(0)
	}
	return map[string]*Stream{
		"empty": empty, "exact": exact, "boundary": boundary,
		"sketched": sketched, "out_of_domain": outOfDomain, "zeros": zeros,
	}
}

// streamJSON mirrors the stream wire form for encoding/json: the
// reference the hand-written codec must match byte for byte, and the
// builder of hand-corrupted payloads.
type streamJSON struct {
	V        int       `json:"v"`
	Lo       float64   `json:"lo"`
	Hi       float64   `json:"hi"`
	Cutoff   int       `json:"cutoff"`
	N        int64     `json:"n"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Sum      []float64 `json:"sum"`
	SumSq    []float64 `json:"sum_sq"`
	Bins     []int64   `json:"bins"`
	Sketched bool      `json:"sketched"`
	Exact    []float64 `json:"exact,omitempty"`
}

// mirrorOf fills the mirror from the stream's state. An exact stream
// holds no bins: the wire form carries its sample's histogram.
func mirrorOf(s *Stream) streamJSON {
	bins := s.bins
	if !s.sketched {
		bins = s.histogram(nil)
	}
	return streamJSON{V: StreamCodecVersion, Lo: s.lo, Hi: s.hi, Cutoff: s.cutoff, N: s.n, Min: s.min, Max: s.max,
		Sum: s.sum.partials, SumSq: s.sumSq.partials, Bins: bins, Sketched: s.sketched, Exact: s.exact}
}

func mustMarshal(t *testing.T, s *Stream) []byte {
	t.Helper()
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamCodecRoundTripIdentity pins decode(encode(s)) == s bit for
// bit, and the encoding to the bytes encoding/json writes for the same
// fields, compact and indented.
func TestStreamCodecRoundTripIdentity(t *testing.T) {
	for name, s := range codecStreams() {
		js := mustMarshal(t, s)
		want, err := json.Marshal(mirrorOf(s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, want) {
			t.Errorf("%s: encoding drifted from encoding/json:\n%s\nvs\n%s", name, js, want)
		}
		indented, err := json.MarshalIndent(struct{ S *Stream }{s}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		wantIndented, err := json.MarshalIndent(struct{ S streamJSON }{mirrorOf(s)}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(indented, wantIndented) {
			t.Errorf("%s: indented encoding drifted from encoding/json", name)
		}
		var dec struct{ S Stream }
		if err := json.Unmarshal(indented, &dec); err != nil {
			t.Fatalf("%s: decoding the indented form: %v", name, err)
		}
		d := dec.S
		if !reflect.DeepEqual(s, &d) {
			t.Errorf("%s: round trip drifted:\n%+v\nvs\n%+v", name, s, &d)
		}
		// A decoded stream must keep working as an accumulator.
		d.Add(0.25)
		if d.N() != s.N()+1 {
			t.Errorf("%s: decoded stream broken: N=%d", name, d.N())
		}
	}
}

// TestStreamCodecMergeAfterDecode pins the shard contract: merging
// decoded shards is bit-identical to merging the originals — encode is
// transparent to aggregation.
func TestStreamCodecMergeAfterDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{5, 40, 3000} { // exact, exact-crossing, sketched
		a := NewStreamSized(0, 1, 64, 128)
		b := NewStreamSized(0, 1, 64, 128)
		for i := 0; i < n; i++ {
			a.Add(rng.Float64())
			b.Add(rng.Float64() * rng.Float64())
		}
		var da, db Stream
		if err := da.UnmarshalJSON(mustMarshal(t, a)); err != nil {
			t.Fatal(err)
		}
		if err := db.UnmarshalJSON(mustMarshal(t, b)); err != nil {
			t.Fatal(err)
		}
		direct := a.Clone()
		direct.Merge(b)
		da.Merge(&db)
		if !reflect.DeepEqual(direct, &da) {
			t.Errorf("n=%d: merge-after-decode != merge-before-encode:\n%+v\nvs\n%+v", n, direct, &da)
		}
	}
}

func TestStreamCodecRejectsTruncation(t *testing.T) {
	for name, s := range codecStreams() {
		full := mustMarshal(t, s)
		for cut := 0; cut < len(full); cut++ {
			var d Stream
			if err := d.UnmarshalJSON(full[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes decoded without error", name, cut, len(full))
			}
		}
		var d Stream
		if err := d.UnmarshalJSON(append(append([]byte{}, full...), '0')); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
}

func TestStreamCodecRejectsVersionSkewAndForeignBytes(t *testing.T) {
	js := mustMarshal(t, codecStreams()["sketched"])
	jsSkew := bytes.Replace(js, []byte(`{"v":1`), []byte(`{"v":2`), 1)
	if bytes.Equal(js, jsSkew) {
		t.Fatal("version field not found in JSON form")
	}
	var d Stream
	if err := d.UnmarshalJSON(jsSkew); err == nil {
		t.Error("version-skewed payload accepted")
	}
	for _, foreign := range []string{"", "null", "[]", `"hbst"`, "{}", "hbst\x01\x00", `{"v":1}`} {
		if err := d.UnmarshalJSON([]byte(foreign)); err == nil {
			t.Errorf("foreign payload %q accepted", foreign)
		}
	}
}

func TestStreamCodecRejectsCorruptState(t *testing.T) {
	base := func() streamJSON {
		return streamJSON{V: 1, Lo: 0, Hi: 1, Cutoff: 4, N: 2, Min: 0.1, Max: 0.9,
			Sum: []float64{1}, SumSq: []float64{0.82}, Bins: []int64{1, 1}, Exact: []float64{0.1, 0.9}}
	}
	cases := map[string]func(*streamJSON){
		"empty domain":     func(j *streamJSON) { j.Hi = j.Lo },
		"no bins":          func(j *streamJSON) { j.Bins = nil },
		"negative bin":     func(j *streamJSON) { j.Bins = []int64{3, -1} },
		"bin sum mismatch": func(j *streamJSON) { j.Bins = []int64{1, 2} },
		// Σbins == N, but the counts are not the sample's histogram.
		"bins disagree with sample": func(j *streamJSON) { j.Bins = []int64{2, 0} },
		"negative n":                func(j *streamJSON) { j.N = -1; j.Bins = []int64{0, 0}; j.Exact = nil },
		"exact len mismatch":        func(j *streamJSON) { j.Exact = j.Exact[:1] },
		"sketched with raw sample": func(j *streamJSON) {
			j.Sketched = true
		},
		"sketched below cutoff": func(j *streamJSON) { j.Sketched = true; j.Exact = nil },
		"min above max":         func(j *streamJSON) { j.Min = 2 },
		"nonzero empty": func(j *streamJSON) {
			j.N = 0
			j.Bins = []int64{0, 0}
			j.Exact = nil
		},
	}
	for name, corrupt := range cases {
		j := base()
		corrupt(&j)
		raw, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		var d Stream
		if err := json.Unmarshal(raw, &d); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
}

func TestStreamCodecRejectsNonFiniteState(t *testing.T) {
	s := NewStream(0, 1)
	s.Add(math.NaN())
	if _, err := s.MarshalJSON(); err == nil {
		t.Error("encode of NaN-poisoned stream succeeded")
	}
	if _, err := json.Marshal(s); err == nil {
		t.Error("encoding/json encode of NaN-poisoned stream succeeded")
	}
}

// FuzzStreamCodec throws arbitrary bytes at the stream decoder. It must
// never panic; anything it accepts encoding/json must accept into the
// mirror too, the re-encoding must be the mirror's json.Marshal bytes,
// the re-encoding must decode back to the same stream, and the decoded
// stream must work as an accumulator.
func FuzzStreamCodec(f *testing.F) {
	for _, s := range codecStreams() {
		b, err := s.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("null"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Stream
		if err := d.UnmarshalJSON(data); err != nil {
			return
		}
		var ref streamJSON
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("decoder accepted what encoding/json rejects: %v", err)
		}
		re, err := d.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, want) {
			t.Fatalf("re-encoding differs from encoding/json:\n%s\nvs\n%s", re, want)
		}
		var again Stream
		if err := again.UnmarshalJSON(re); err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if !reflect.DeepEqual(&d, &again) {
			t.Fatalf("canonical re-encoding decodes to a different stream:\n%+v\nvs\n%+v", &d, &again)
		}
		d.Add(0.5)
		if d.N() < 1 {
			t.Fatal("decoded stream lost its count")
		}
		if d.N() > 1 {
			_ = d.Quantile(0.5)
			_ = d.Summary()
		}
	})
}

func TestExactSumMatchesNaiveOnSimpleData(t *testing.T) {
	var e ExactSum
	want := 0.0
	for i := 1; i <= 100; i++ {
		e.Add(float64(i))
		want += float64(i)
	}
	if got := e.Value(); got != want {
		t.Fatalf("exact sum of integers %v != %v", got, want)
	}
}

// TestExactSumOrderAndGroupingIndependent is the associativity property
// the shard-merge guarantee rests on: any permutation, any grouping, same
// bits.
func TestExactSumOrderAndGroupingIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*8) * (float64(i%3) - 1) // wild magnitudes, mixed signs
	}
	var seq ExactSum
	for _, x := range xs {
		seq.Add(x)
	}
	ref := seq.Value()

	perm := rng.Perm(len(xs))
	var shuffled ExactSum
	for _, i := range perm {
		shuffled.Add(xs[i])
	}
	if shuffled.Value() != ref {
		t.Fatalf("sum depends on order: %v vs %v", shuffled.Value(), ref)
	}

	for _, shards := range []int{2, 3, 7} {
		parts := make([]ExactSum, shards)
		for i, x := range xs {
			parts[i%shards].Add(x)
		}
		var merged ExactSum
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if merged.Value() != ref {
			t.Fatalf("%d-way sharded sum %v != sequential %v", shards, merged.Value(), ref)
		}
	}
}

func TestExactSumCancellation(t *testing.T) {
	// 1e16 + 1 - 1e16 loses the 1 in naive float64 addition; the exact
	// sum must keep it.
	var e ExactSum
	e.Add(1e16)
	e.Add(1)
	e.Add(-1e16)
	if got := e.Value(); got != 1 {
		t.Fatalf("cancellation lost precision: %v", got)
	}
}
