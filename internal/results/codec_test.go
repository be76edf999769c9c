package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/stats"
)

// The reference codec: encoding/json over mirrors of the schema whose
// streams are plain structs, so nothing in the reference runs the
// hand-written codec. Meta, the records and Key carry no JSON methods and
// are used as they are: their struct tags define the format.
type artifactRef struct {
	Meta   Meta         `json:"meta"`
	Chips  []ChipRecord `json:"chips,omitempty"`
	Rows   []RowRecord  `json:"rows,omitempty"`
	Banks  []BankRecord `json:"banks,omitempty"`
	TRR    []TRRRecord  `json:"trr,omitempty"`
	Groups []groupRef   `json:"groups"`
}

type groupRef struct {
	Key     Key         `json:"key"`
	Metrics []metricRef `json:"metrics"`
}

type metricRef struct {
	Name   string     `json:"name"`
	Stream *streamRef `json:"stream"`
}

type streamRef struct {
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

// trrArtifact is a trrstudy-shaped artifact carrying TRR records, one
// with no iterations.
func trrArtifact() *Artifact {
	a := pointArtifact([]string{"utrr"}, 0, 1)
	a.TRR = []TRRRecord{
		{Channel: 2, PseudoChannel: 1, Bank: 1, Row: 256, Aggressor: 257, RetentionSec: 0.8312,
			Refreshed: []bool{false, true, false}},
		{Row: 0, Aggressor: 1, RetentionSec: 1e-7},
	}
	return a
}

// recordArtifact is a sweep-shaped artifact carrying row records and a
// fig6-shaped one carrying bank records, one bank without a CV.
func recordArtifacts() (sweep, fig6 *Artifact) {
	sweep = pointArtifact([]string{"ch0", "ch1"}, 0, 2)
	sweep.Rows = []RowRecord{
		{Channel: 0, PhysRow: 1, Region: "first", BER: []float64{0, 1e-7, 0.03125, 1},
			HCFirst: []int{0, 65536, 14500, 1}, Found: []bool{false, true, true, true}, WCDP: 3,
			Subarray: 0, SubarrayOffset: 1, SubarraySize: 832},
		{Channel: 1, PhysRow: 16383, Region: "la\"st", BER: []float64{0.5}, HCFirst: []int{7}, Found: []bool{true},
			Subarray: 19, SubarrayOffset: 831, SubarraySize: 832, LastSubarray: true},
	}
	fig6 = pointArtifact([]string{"ch0.pc0.ba0", "ch0.pc0.ba1"}, 0, 2)
	fig6.Banks = []BankRecord{
		{Channel: 0, PseudoChannel: 1, Bank: 15, MeanBER: 1.25, CV: 0.3},
		{Channel: 7, MeanBER: 0},
	}
	return sweep, fig6
}

// codecArtifacts returns artifacts covering every optional part of the
// schema: chips, row and bank records, params, job provenance, point
// keys, empty and sketched streams, and strings that need escaping.
func codecArtifacts() map[string]*Artifact {
	sketched := fineArtifact(3, 1)
	for i := 0; i < 2000; i++ {
		sketched.Groups[0].Metrics[0].Stream.Add(float64(i%97) / 97)
	}
	escaped := fineArtifact(0, 1)
	escaped.Meta.Tool = "a<b>&\"c\"\\\n\t\x01\u2028\u2029\xff\u00e9"
	escaped.Meta.Params["k\x7f<"] = "tiny 1e-7"
	escaped.Chips[0].WCDPRatio = 1e-7
	escaped.Chips = append(escaped.Chips, ChipRecord{Seed: 1<<64 - 1, MinHCFirst: -5, WCDPRatio: 1e21})
	bare := &Artifact{Meta: Meta{Format: FormatVersion, GroupBy: "point"}}
	empty := &Artifact{Meta: Meta{Format: FormatVersion, GroupBy: "point"}, Groups: []Group{
		{Key: Key{Channel: NoChannel, Point: "p"}, Metrics: []Metric{}},
		{Key: Key{Channel: NoChannel, Point: "q"}, Metrics: []Metric{{Name: "m", Stream: stats.NewStream(-1, 1)}}},
	}}
	rows, banks := recordArtifacts()
	return map[string]*Artifact{
		"rows":     rows,
		"banks":    banks,
		"trr":      trrArtifact(),
		"fine":     fineArtifact(0, 3),
		"point":    pointArtifact([]string{"a", "b", "c"}, 1, 3),
		"sketched": sketched,
		"escaped":  escaped,
		"bare":     bare,
		"empty":    empty,
	}
}

// refMarshal is the artifact file form as encoding/json writes it.
func refMarshal(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// TestArtifactCodecMatchesEncodingJSON pins the writer to
// json.MarshalIndent of the artifact (streams through their MarshalJSON,
// which the stats tests pin to encoding/json), and decode-then-encode to
// encoding/json's decode-then-encode of the same bytes.
func TestArtifactCodecMatchesEncodingJSON(t *testing.T) {
	for name, a := range codecArtifacts() {
		got, err := a.MarshalIndented()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refMarshal(t, a); !bytes.Equal(got, want) {
			t.Errorf("%s: encoding differs from encoding/json:\n%s\nvs\n%s", name, got, want)
		}
		var ref artifactRef
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatalf("%s: encoding/json rejects the encoding: %v", name, err)
		}
		back, err := Decode(got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := back.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		if want := refMarshal(t, ref); !bytes.Equal(again, want) {
			t.Errorf("%s: decode/encode differs from encoding/json's:\n%s\nvs\n%s", name, again, want)
		}
	}
}

// checkCompactForm pins AppendCompact to the file form of a decoded
// artifact: json.Indent of the compact bytes plus a newline is the
// artifact's AppendIndented, and the compact bytes decode to an artifact
// that re-encodes to those same file bytes. The fleet journal seals
// chunks compact and writes shards in the file form, so this is the
// round trip a resumed worker rests on. (An artifact built in memory
// with invalid UTF-8 in a string does not round-trip in either form:
// the encoders write U+FFFD for it.)
func checkCompactForm(t *testing.T, a *Artifact) {
	t.Helper()
	file, err := a.AppendIndented(nil)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := a.AppendCompact(nil)
	if err != nil {
		t.Fatalf("compact encoding: %v", err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		t.Fatalf("compact encoding is not JSON: %v", err)
	}
	indented.WriteByte('\n')
	if !bytes.Equal(indented.Bytes(), file) {
		t.Fatalf("indented compact encoding differs from the file form:\n%s\nvs\n%s", indented.Bytes(), file)
	}
	back, err := Decode(compact)
	if err != nil {
		t.Fatalf("decoding the compact encoding: %v", err)
	}
	again, err := back.AppendIndented(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, file) {
		t.Fatal("the compact encoding decodes to an artifact whose file form differs")
	}
}

// TestArtifactCompactForm holds AppendCompact to json.Marshal of the
// artifact, and checkCompactForm to the decoded codec artifacts and to
// the committed one-seed multichip shard, whose compact bytes must also
// re-encode unchanged.
func TestArtifactCompactForm(t *testing.T) {
	for name, a := range codecArtifacts() {
		want, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := a.AppendCompact(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: compact encoding differs from json.Marshal:\n%s\nvs\n%s", name, got, want)
		}
		file, err := a.AppendIndented(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := Decode(file)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { checkCompactForm(t, back) })
	}
	data, err := os.ReadFile(filepath.Join("..", "store", "testdata", "shard-1of2.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if compact, err := a.AppendCompact(nil); err != nil || !bytes.Equal(compact, bytes.TrimSuffix(data, []byte("\n"))) {
		t.Errorf("the committed compact shard does not re-encode to its own bytes (err %v)", err)
	}
	t.Run("shard-1of2", func(t *testing.T) { checkCompactForm(t, a) })
}

// TestArtifactDecodeAcceptsWhatEncodingJSONAccepts covers the lenient
// corners of encoding/json's struct decoding that Decode must keep, and
// the one place it is stricter.
func TestArtifactDecodeAcceptsWhatEncodingJSONAccepts(t *testing.T) {
	good, err := pointArtifact([]string{"a", "b"}, 0, 2).MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	compact := new(bytes.Buffer)
	if err := json.Compact(compact, good); err != nil {
		t.Fatal(err)
	}
	c := compact.String()
	accept := map[string]string{
		"folded keys":       strings.Replace(c, `"meta"`, `"META"`, 1),
		"kelvin sign key":   strings.Replace(c, `"key"`, `"\u212aey"`, 1),
		"escaped key":       strings.Replace(c, `"format"`, `"for\u006dat"`, 1),
		"unknown member":    strings.Replace(c, `{"meta":`, `{"extra":[{"x":[1,-2.5e3,true,null,"\ud83d\ude00"]}],"meta":`, 1),
		"null members":      strings.Replace(c, `"shard":0`, `"shard":null,"chips":null,"extra":null`, 1),
		"whitespace":        " \t\r\n" + c + " \n",
		"deep at the limit": strings.Replace(c, `{"meta":`, `{"extra":`+strings.Repeat("[", 9999)+strings.Repeat("]", 9999)+`,"meta":`, 1),
	}
	for name, in := range accept {
		if in == c && name != "whitespace" {
			t.Fatalf("%s: mutation did not apply", name)
		}
		var ref artifactRef
		if err := json.Unmarshal([]byte(in), &ref); err != nil {
			t.Fatalf("%s: encoding/json rejects the case: %v", name, err)
		}
		a, err := Decode([]byte(in))
		if err != nil {
			t.Errorf("%s: Decode rejects what encoding/json accepts: %v", name, err)
			continue
		}
		got, err := a.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		if want := refMarshal(t, ref); !bytes.Equal(got, want) {
			t.Errorf("%s: decoded artifact differs from encoding/json's", name)
		}
	}
	format := fmt.Sprintf(`"format":%d`, FormatVersion)
	reject := map[string]string{
		"duplicate member":     strings.Replace(c, `"tool":`, `"tool":"x","TOOL":`, 1),
		"duplicate param":      strings.Replace(c, `"meta":{`, `"meta":{"params":{"a":"1","a":"2"},`, 1),
		"float in int field":   strings.Replace(c, format, format+".0", 1),
		"exponent in int":      strings.Replace(c, format, format+"e0", 1),
		"negative seed":        strings.Replace(c, `"seed_first":`, `"seed_first":-`, 1),
		"int overflow":         strings.Replace(c, `"shard":0`, `"shard":9223372036854775808`, 1),
		"float overflow":       strings.Replace(c, `"lo":0`, `"lo":1e999`, 1),
		"plus sign":            strings.Replace(c, `"lo":0`, `"lo":+1`, 1),
		"leading zero":         strings.Replace(c, `"shard":0`, `"shard":01`, 1),
		"bare fraction":        strings.Replace(c, `"lo":0`, `"lo":.5`, 1),
		"NaN":                  strings.Replace(c, `"lo":0`, `"lo":NaN`, 1),
		"hex float":            strings.Replace(c, `"lo":0`, `"lo":0x1p-2`, 1),
		"bad escape":           strings.Replace(c, `"tool":"`, `"tool":"\x`, 1),
		"control character":    strings.Replace(c, `"tool":"`, "\"tool\":\"\x01", 1),
		"string into int":      strings.Replace(c, format, fmt.Sprintf(`"format":"%d"`, FormatVersion), 1),
		"trailing comma":       strings.Replace(c, `"shard":0,`, `"shard":0,,`, 1),
		"trailing data":        c + "{}",
		"bad syntax in skip":   strings.Replace(c, `{"meta":`, `{"extra":[1,],"meta":`, 1),
		"too deep in skip":     strings.Replace(c, `{"meta":`, `{"extra":`+strings.Repeat("[", 10000)+strings.Repeat("]", 10000)+`,"meta":`, 1),
		"stream not an object": strings.Replace(c, `"stream":{`, `"stream":[{`, 1),
	}
	for name, in := range reject {
		if in == c {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("%s: Decode accepted", name)
		}
	}
}

// TestArtifactDecodeRejectsBadRecords pins the record validation: row
// and bank records arrive from disk and over ingest, and a record the
// figure renderers could index out of range with, or plot a non-finite
// or out-of-range value from, is malformed.
func TestArtifactDecodeRejectsBadRecords(t *testing.T) {
	sweep, fig6 := recordArtifacts()
	rowCases := map[string]func(r *RowRecord){
		"short hc_first":   func(r *RowRecord) { r.HCFirst = r.HCFirst[:1] },
		"short found":      func(r *RowRecord) { r.Found = nil },
		"no patterns":      func(r *RowRecord) { r.BER, r.HCFirst, r.Found, r.WCDP = []float64{}, []int{}, []bool{}, 0 },
		"wcdp past end":    func(r *RowRecord) { r.WCDP = len(r.BER) },
		"negative wcdp":    func(r *RowRecord) { r.WCDP = -1 },
		"negative row":     func(r *RowRecord) { r.PhysRow = -1 },
		"negative channel": func(r *RowRecord) { r.Channel = -1 },
		"BER above one":    func(r *RowRecord) { r.BER[2] = 1.5 },
		"negative BER":     func(r *RowRecord) { r.BER[2] = -0.25 },
		"negative HCfirst": func(r *RowRecord) { r.HCFirst[1] = -3 },
		"offset past size": func(r *RowRecord) { r.SubarrayOffset = r.SubarraySize },
	}
	for name, mutate := range rowCases {
		a := sweep.Clone()
		r := a.Rows[0]
		r.BER = append([]float64(nil), r.BER...)
		r.HCFirst = append([]int(nil), r.HCFirst...)
		r.Found = append([]bool(nil), r.Found...)
		mutate(&r)
		a.Rows[0] = r
		data, err := a.MarshalIndented()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "row record 0") {
			t.Errorf("%s: Decode = %v, want a row record error", name, err)
		}
	}
	bankCases := map[string]func(b *BankRecord){
		"negative bank":    func(b *BankRecord) { b.Bank = -1 },
		"negative channel": func(b *BankRecord) { b.Channel = -1 },
		"mean above 100%":  func(b *BankRecord) { b.MeanBER = 101 },
		"negative CV":      func(b *BankRecord) { b.CV = -0.5 },
	}
	for name, mutate := range bankCases {
		a := fig6.Clone()
		mutate(&a.Banks[0])
		data, err := a.MarshalIndented()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "bank record 0") {
			t.Errorf("%s: Decode = %v, want a bank record error", name, err)
		}
	}
	trrCases := map[string]func(r *TRRRecord){
		"negative channel":   func(r *TRRRecord) { r.Channel = -1 },
		"negative pc":        func(r *TRRRecord) { r.PseudoChannel = -1 },
		"negative bank":      func(r *TRRRecord) { r.Bank = -1 },
		"negative row":       func(r *TRRRecord) { r.Row = -1 },
		"negative aggressor": func(r *TRRRecord) { r.Aggressor = -1 },
		"negative retention": func(r *TRRRecord) { r.RetentionSec = -0.5 },
	}
	for name, mutate := range trrCases {
		a := trrArtifact()
		mutate(&a.TRR[0])
		data, err := a.MarshalIndented()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "TRR record 0") {
			t.Errorf("%s: Decode = %v, want a TRR record error", name, err)
		}
	}
	// JSON has no NaN or infinity, and a BER or retention time past the
	// float64 range is a syntax-level rejection.
	trr, err := trrArtifact().MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	if huge := bytes.Replace(trr, []byte("0.8312"), []byte("1e999"), 1); bytes.Equal(huge, trr) {
		t.Fatal("mutation did not apply")
	} else if _, err := Decode(huge); err == nil {
		t.Error("Decode accepted an infinite retention time")
	}
	if _, err := (&Artifact{Meta: sweep.Meta, TRR: []TRRRecord{{RetentionSec: math.Inf(1)}}}).MarshalIndented(); err == nil {
		t.Error("an infinite retention time encoded")
	}
	good, err := sweep.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	huge := bytes.Replace(good, []byte("0.03125"), []byte("1e999"), 1)
	if bytes.Equal(huge, good) {
		t.Fatal("mutation did not apply")
	}
	if _, err := Decode(huge); err == nil {
		t.Error("Decode accepted an infinite BER")
	}
	if _, err := (&Artifact{Meta: sweep.Meta, Banks: []BankRecord{{CV: math.NaN(), MeanBER: 1}}}).MarshalIndented(); err == nil {
		t.Error("a NaN CV encoded")
	}
}

// FuzzArtifactCodec is the differential fuzzer of the artifact codec
// against encoding/json over the reference mirrors: whatever Decode
// accepts, encoding/json accepts too, MarshalIndented reproduces
// json.MarshalIndent of encoding/json's decode byte for byte, and the
// compact form indents to and decodes back to those bytes
// (checkCompactForm); whatever
// encoding/json accepts and Decode rejects either fails Decode's
// validation (the canonical re-encoding is rejected as well) or repeats
// a member name, the one thing Decode is stricter about. Seeds live in
// testdata/fuzz/FuzzArtifactCodec.
func FuzzArtifactCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		var ref artifactRef
		refErr := json.Unmarshal(data, &ref)
		if err == nil {
			if refErr != nil {
				t.Fatalf("Decode accepted what encoding/json rejects: %v", refErr)
			}
			got, err := a.MarshalIndented()
			if err != nil {
				t.Fatalf("re-encoding an accepted artifact: %v", err)
			}
			if want := refMarshal(t, ref); !bytes.Equal(got, want) {
				t.Fatalf("re-encoding differs from encoding/json's:\n%s\nvs\n%s", got, want)
			}
			checkCompactForm(t, a)
			return
		}
		if refErr != nil {
			return
		}
		canon, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if _, cerr := Decode(canon); cerr == nil && !hasDuplicateKey(data) {
			t.Fatalf("Decode rejects (%v) an input encoding/json accepts, with no duplicate member", err)
		}
	})
}

// hasDuplicateKey reports whether any object in the valid JSON data
// names two members alike under case folding.
func hasDuplicateKey(data []byte) bool {
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			stack = stack[:len(stack)-1]
			continue
		}
		if top != nil && top.object {
			if top.wantKey {
				key := tok.(string)
				for _, k := range top.keys {
					if strings.EqualFold(k, key) {
						return true
					}
				}
				top.keys = append(top.keys, key)
				top.wantKey = false
				continue
			}
			top.wantKey = true
		}
		if d, ok := tok.(json.Delim); ok {
			stack = append(stack, &frame{object: d == '{', wantKey: d == '{'})
		}
	}
}
