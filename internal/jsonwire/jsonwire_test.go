package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"slices"
	"testing"
)

// TestWriterScalarsMatchEncodingJSON pins the float format and the
// string escaping to encoding/json's at their edges.
func TestWriterScalarsMatchEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e20, 1e21, 123456789e15,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300, 3.933333333333333, 1 << 53}
	for _, f := range floats {
		w := NewWriter(nil, false)
		w.Float(f)
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(w.Bytes()); got != string(want) {
			t.Errorf("Float(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
	strs := []string{"", "plain", `q"b\s`, "<a>&", "\b\f\n\r\t\x00\x1f\x7f", "caf\u00e9 \U0001f600",
		"\u2028\u2029", "bad \xff\xfe utf8", "trunc \xe2\x80"}
	for _, s := range strs {
		w := NewWriter(nil, false)
		w.String(s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(w.Bytes()); got != string(want) {
			t.Errorf("String(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := NewWriter(nil, false)
		w.Floats([]float64{1, bad})
		if w.Err() == nil {
			t.Errorf("Floats with %v did not fail", bad)
		}
	}
}

// numberArray matches a non-empty array of numbers as
// json.MarshalIndent lays it out, one element a line. (It would also
// match inside a string; the values below have no such strings.)
var numberArray = regexp.MustCompile(`\[[\s0-9eE+.,-]+\]`)

// TestWriterLayoutMatchesMarshalIndent pins nesting, empty containers
// and null slices, indented and compact. The indented reference is
// json.MarshalIndent's output with each array of numbers joined onto
// one line; a string array keeps one element a line.
func TestWriterLayoutMatchesMarshalIndent(t *testing.T) {
	type inner struct {
		A []int64   `json:"a"`
		B []float64 `json:"b"`
		C []string  `json:"c"`
		D struct{}  `json:"d"`
	}
	v := []inner{{A: []int64{1, -2}, B: []float64{}, C: nil}, {A: []int64{}, B: []float64{0.5, 1e-7, 3}, C: []string{"x", "y"}}, {}}
	write := func(w *Writer) {
		w.Open('[')
		for _, x := range v {
			w.Next()
			w.Open('{')
			w.Key("a")
			w.Ints(x.A)
			w.Key("b")
			w.Floats(x.B)
			w.Key("c")
			if x.C == nil {
				w.Null()
			} else {
				w.Open('[')
				for _, c := range x.C {
					w.Next()
					w.String(c)
				}
				w.Close(']')
			}
			w.Key("d")
			w.Open('{')
			w.Close('}')
			w.Close('}')
		}
		w.Close(']')
	}
	for _, indent := range []bool{false, true} {
		w := NewWriter(nil, indent)
		write(w)
		want, err := json.Marshal(v)
		if indent {
			want, err = json.MarshalIndent(v, "", "  ")
			want = numberArray.ReplaceAllFunc(want, func(a []byte) []byte { return bytes.Join(bytes.Fields(a), nil) })
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := string(w.Bytes()); got != string(want) {
			t.Errorf("indent=%v:\n%s\nencoding/json writes\n%s", indent, got, want)
		}
	}
}

// TestWriterIntsZeroRunsMatchEncodingJSON pins Ints' copied zero runs
// to encoding/json: runs shorter and longer than one copy, at the start,
// between other values and at the end, and an array of zeros alone.
func TestWriterIntsZeroRunsMatchEncodingJSON(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 128, 200} {
		for _, xs := range [][]int64{
			make([]int64, n),
			append(make([]int64, n), 7),
			append([]int64{-3}, make([]int64, n)...),
			append(append([]int64{12}, make([]int64, n)...), 0, 5, 0),
		} {
			w := NewWriter(nil, true)
			w.Ints(xs)
			want, err := json.Marshal(xs)
			if err != nil {
				t.Fatal(err)
			}
			if got := string(w.Bytes()); got != string(want) {
				t.Errorf("Ints(%v) = %s, encoding/json writes %s", xs, got, want)
			}
		}
	}
}

// TestReaderNumbersMatchEncodingJSON checks the number grammar and the
// integer and range rules against encoding/json for each target type.
func TestReaderNumbersMatchEncodingJSON(t *testing.T) {
	inputs := []string{"0", "-0", "1", "-1", "01", "+1", ".5", "1.", "1.5", "-1.5e3", "1E+2", "1e", "1e+", "-",
		"inf", "NaN", "0x10", "1e400", "1e-400", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "18446744073709551615", "18446744073709551616",
		"123456789012345678", "1234567890123456789", "null", "true", `"1"`, "[1]", "1 2", " 7 "}
	for _, in := range inputs {
		var f float64
		fErr := json.Unmarshal([]byte(in), &f)
		r := NewReader([]byte(in))
		gotF := r.Float()
		if err := r.Finish(); (err == nil) != (fErr == nil) || err == nil && math.Float64bits(gotF) != math.Float64bits(f) {
			t.Errorf("Float(%s) = %v, %v; encoding/json: %v, %v", in, gotF, err, f, fErr)
		}
		var i int64
		iErr := json.Unmarshal([]byte(in), &i)
		r = NewReader([]byte(in))
		gotI := r.Int64()
		if err := r.Finish(); (err == nil) != (iErr == nil) || err == nil && gotI != i {
			t.Errorf("Int64(%s) = %v, %v; encoding/json: %v, %v", in, gotI, err, i, iErr)
		}
		var u uint64
		uErr := json.Unmarshal([]byte(in), &u)
		r = NewReader([]byte(in))
		gotU := r.Uint64()
		if err := r.Finish(); (err == nil) != (uErr == nil) || err == nil && gotU != u {
			t.Errorf("Uint64(%s) = %v, %v; encoding/json: %v, %v", in, gotU, err, u, uErr)
		}
	}
}

// TestReaderStringsMatchEncodingJSON checks string validation and
// unescaping, and that a decoded string does not share the input.
func TestReaderStringsMatchEncodingJSON(t *testing.T) {
	inputs := []string{`""`, `"abc"`, `"a\"b\\c\/d\b\f\n\r\t"`, `"\u00e9\u2028"`, `"\ud83d\ude00"`, `"\ud800"`,
		`"\udc00x"`, "\"\xff\"", "\"caf\xc3\xa9\"", `"\x"`, `"\u12"`, `"\u12g4"`, "\"a\x01\"", `"abc`, `"\`, `null`, `1`}
	for _, in := range inputs {
		var s string
		wantErr := json.Unmarshal([]byte(in), &s)
		data := []byte(in)
		r := NewReader(data)
		got := r.String()
		if err := r.Finish(); (err == nil) != (wantErr == nil) || err == nil && got != s {
			t.Errorf("String(%s) = %q, %v; encoding/json: %q, %v", in, got, err, s, wantErr)
		}
		for i := range data {
			data[i] = 'X'
		}
		if got != s {
			t.Errorf("String(%s) aliases its input", in)
		}
	}
}

// FuzzReaderInts holds IntsScratch, its tight loop and the per-element
// path behind it, to encoding/json: both accept or both reject each
// input, and an accepted input decodes to the same values, over a fresh
// scratch and over one left dirty by an earlier, longer array. The seeds
// are stream bins as an artifact lays them out, on one line and one a
// line as earlier builds did, and every element shape the tight loop
// hands over.
func FuzzReaderInts(f *testing.F) {
	bins := make([]int64, 40)
	bins[3], bins[17], bins[39] = 7, 123456, 10
	indented, err := json.MarshalIndent(bins, "          ", "  ")
	if err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal(bins)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indented)
	f.Add(compact)
	for _, s := range []string{"[01]", "[-0]", "[1,]", "[,1]", "[1 2]", "[1e2]", "[1.0]", "[1234567890123456789]",
		"[123456789012345678]", "[1,null]", "[0,0,0,0,0]", "[1,0,0,0,0]", "[1,0,0,0,0,0,0,0,0,2]", "[1,0,0,0,01]",
		"[1,0,0,0,0 ]", "[1,0,0,0,0.5]", "[1,0,0,0,0", "[1,0,0,0,0,]", "[\n\t 1 ,\t\n2\r\n,  3 ]", "[\n  1,\n  2,\n   3,\n 4\n]", "null", "[]", " [ ] "} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []int64
		wantErr := json.Unmarshal(data, &want)
		for _, dirty := range []bool{false, true} {
			r := NewReader(data)
			if dirty {
				r.ints = []int64{-1, -2, -3, -4, -5, -6, -7, -8}[:3]
			}
			got := r.IntsScratch()
			err := r.Finish()
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("IntsScratch(%q), dirty scratch %v: error %v; encoding/json: %v", data, dirty, err, wantErr)
			}
			if err == nil && !slices.Equal(got, want) {
				t.Fatalf("IntsScratch(%q), dirty scratch %v: %#v; encoding/json: %#v", data, dirty, got, want)
			}
		}
	})
}
