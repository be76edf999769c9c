package results

import (
	"fmt"
	"math"
	"sort"

	"github.com/safari-repro/hbmrh/internal/jsonwire"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// The artifact file format is the indented JSON encoding/json's
// MarshalIndent(a, "", "  ") produces for the struct tags in results.go,
// with each array of numbers or bools on one line in compact form, plus
// a trailing newline. Shard files, fleet journal chunks, merged artifacts
// and store objects all use it, and store objects are addressed by its
// SHA-256. Objects keep MarshalIndent's layout, so the files stay
// readable; the number arrays (stream bins, samples and sums, row BERs
// and HCfirsts) are most of an artifact's values, and one line each
// keeps a one-seed multichip shard at 71 KB where one bin a line took
// 443 KB. Row records' found and TRR records' refreshed flags go on one
// line too, so a row record takes one line per member. The codec below
// writes and reads the schema directly through jsonwire instead of
// reflecting over the structs, and FuzzArtifactCodec holds it to
// encoding/json in both directions. Decode accepts any whitespace, so
// the same artifact laid out one number a line decodes to the same
// value; it refuses every other format version, so a file an earlier
// build wrote (format 4 or below) is refused whatever its layout.

// MarshalIndented renders the artifact in the artifact file format:
// deterministic indented JSON, each array of numbers or bools on one
// line, with a
// trailing newline. Fields come in struct order, omitempty fields are
// left out when empty, nil slices are null, map keys sorted, streams in
// their versioned wire form. It fails only on non-finite values, which
// JSON cannot represent.
func (a *Artifact) MarshalIndented() ([]byte, error) { return a.AppendIndented(nil) }

// AppendIndented appends the artifact file form (see MarshalIndented) to
// dst and returns the extended buffer, so a caller that encodes many
// artifacts can reuse one. On failure it returns dst unextended.
func (a *Artifact) AppendIndented(dst []byte) ([]byte, error) {
	w := jsonwire.NewWriter(dst, true)
	a.write(w)
	if err := w.Err(); err != nil {
		return dst, fmt.Errorf("results: encoding artifact: %w", err)
	}
	return append(w.Bytes(), '\n'), nil
}

func (a *Artifact) write(w *jsonwire.Writer) {
	w.Open('{')
	w.Key("meta")
	a.Meta.write(w)
	if len(a.Chips) > 0 {
		w.Key("chips")
		writeList(w, a.Chips, func(c ChipRecord) { c.write(w) })
	}
	if len(a.Rows) > 0 {
		w.Key("rows")
		writeList(w, a.Rows, func(r RowRecord) { r.write(w) })
	}
	if len(a.Banks) > 0 {
		w.Key("banks")
		writeList(w, a.Banks, func(b BankRecord) { b.write(w) })
	}
	if len(a.TRR) > 0 {
		w.Key("trr")
		writeList(w, a.TRR, func(r TRRRecord) { r.write(w) })
	}
	w.Key("groups")
	writeList(w, a.Groups, func(g Group) { g.write(w) })
	w.Close('}')
}

func (m *Meta) write(w *jsonwire.Writer) {
	w.Open('{')
	w.Key("format")
	w.Int(int64(m.Format))
	w.Key("tool")
	w.String(m.Tool)
	w.Key("code_version")
	w.String(m.CodeVersion)
	w.Key("config_hash")
	w.String(m.ConfigHash)
	w.Key("group_by")
	w.String(m.GroupBy)
	w.Key("shard")
	w.Int(int64(m.Shard))
	w.Key("shard_count")
	w.Int(int64(m.ShardCount))
	if m.JobAxis != "" {
		w.Key("job_axis")
		w.String(m.JobAxis)
	}
	if m.JobFirst != 0 {
		w.Key("job_first")
		w.Int(int64(m.JobFirst))
	}
	if m.JobCount != 0 {
		w.Key("job_count")
		w.Int(int64(m.JobCount))
	}
	if len(m.JobKeys) > 0 {
		w.Key("job_keys")
		writeList(w, m.JobKeys, w.String)
	}
	if len(m.Params) > 0 {
		w.Key("params")
		keys := make([]string, 0, len(m.Params))
		for k := range m.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Open('{')
		for _, k := range keys {
			w.Key(k)
			w.String(m.Params[k])
		}
		w.Close('}')
	}
	w.Close('}')
}

func (c *ChipRecord) write(w *jsonwire.Writer) {
	w.Open('{')
	w.Key("seed")
	w.Uint(c.Seed)
	w.Key("min_hc_first")
	w.Int(int64(c.MinHCFirst))
	w.Key("wcdp_ratio")
	w.Float(c.WCDPRatio)
	w.Key("worst_channel")
	w.Int(int64(c.WorstChannel))
	w.Key("trr_period")
	w.Int(int64(c.TRRPeriod))
	w.Close('}')
}

func (r *RowRecord) write(w *jsonwire.Writer) {
	w.Open('{')
	w.Key("channel")
	w.Int(int64(r.Channel))
	w.Key("phys_row")
	w.Int(int64(r.PhysRow))
	w.Key("region")
	w.String(r.Region)
	w.Key("ber")
	w.Floats(r.BER)
	w.Key("hc_first")
	if r.HCFirst == nil {
		w.Null()
	} else {
		w.OpenLine('[')
		for _, v := range r.HCFirst {
			w.Next()
			w.Int(int64(v))
		}
		w.Close(']')
	}
	w.Key("found")
	w.Bools(r.Found)
	w.Key("wcdp")
	w.Int(int64(r.WCDP))
	w.Key("subarray")
	w.Int(int64(r.Subarray))
	w.Key("subarray_offset")
	w.Int(int64(r.SubarrayOffset))
	w.Key("subarray_size")
	w.Int(int64(r.SubarraySize))
	w.Key("last_subarray")
	w.Bool(r.LastSubarray)
	w.Close('}')
}

func (b *BankRecord) write(w *jsonwire.Writer) {
	w.Open('{')
	w.Key("channel")
	w.Int(int64(b.Channel))
	w.Key("pseudo_channel")
	w.Int(int64(b.PseudoChannel))
	w.Key("bank")
	w.Int(int64(b.Bank))
	w.Key("mean_ber_pct")
	w.Float(b.MeanBER)
	if b.CV != 0 {
		w.Key("cv")
		w.Float(b.CV)
	}
	w.Close('}')
}

func (r *TRRRecord) write(w *jsonwire.Writer) {
	w.Open('{')
	w.Key("channel")
	w.Int(int64(r.Channel))
	w.Key("pseudo_channel")
	w.Int(int64(r.PseudoChannel))
	w.Key("bank")
	w.Int(int64(r.Bank))
	w.Key("row")
	w.Int(int64(r.Row))
	w.Key("aggressor")
	w.Int(int64(r.Aggressor))
	w.Key("retention_s")
	w.Float(r.RetentionSec)
	w.Key("refreshed")
	w.Bools(r.Refreshed)
	w.Close('}')
}

// writeList writes xs element by element; a nil slice is null.
func writeList[T any](w *jsonwire.Writer, xs []T, write func(T)) {
	if xs == nil {
		w.Null()
		return
	}
	w.Open('[')
	for _, x := range xs {
		w.Next()
		write(x)
	}
	w.Close(']')
}

func (g *Group) write(w *jsonwire.Writer) {
	w.Open('{')
	w.Key("key")
	w.Open('{')
	if g.Key.Region != "" {
		w.Key("region")
		w.String(g.Key.Region)
	}
	w.Key("channel")
	w.Int(int64(g.Key.Channel))
	if g.Key.Point != "" {
		w.Key("point")
		w.String(g.Key.Point)
	}
	w.Close('}')
	w.Key("metrics")
	writeList(w, g.Metrics, func(m Metric) {
		w.Open('{')
		w.Key("name")
		w.String(m.Name)
		w.Key("stream")
		if m.Stream == nil {
			w.Null()
		} else {
			m.Stream.WriteJSON(w)
		}
		w.Close('}')
	})
	w.Close('}')
}

// Decode parses an artifact file and validates its format version, its
// stored axis, every stream and every row, bank and TRR record (see
// RowRecord.validate), so that no report drawn from a decoded artifact
// can index out of range or plot a non-finite value.
//
// It accepts what json.Unmarshal would accept into the Artifact schema
// (any whitespace and member order, unknown members, member names
// matched case-insensitively, null for any value) with one exception:
// a member that appears twice in one object (member names compared
// case-insensitively, params keys exactly) is an error, which the store
// classes as ErrMalformed, where encoding/json would keep the last. It
// rejects everything
// json.Unmarshal rejects, including syntax errors anywhere in the input,
// fractions or exponents in integer fields, and out-of-range numbers.
// The decoded artifact shares no memory with data.
func Decode(data []byte) (*Artifact, error) {
	r := jsonwire.NewReader(data)
	var a Artifact
	a.read(r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("results: decoding artifact: %w", err)
	}
	if a.Meta.Format != FormatVersion {
		return nil, fmt.Errorf("results: artifact format version %d, this build reads version %d", a.Meta.Format, FormatVersion)
	}
	if _, err := ParseGroupBy(a.Meta.GroupBy); err != nil {
		return nil, err
	}
	for _, g := range a.Groups {
		for _, m := range g.Metrics {
			if m.Stream == nil {
				return nil, fmt.Errorf("results: group %v metric %q has no stream", g.Key, m.Name)
			}
		}
	}
	for i := range a.Rows {
		if err := a.Rows[i].validate(); err != nil {
			return nil, fmt.Errorf("results: row record %d: %w", i, err)
		}
	}
	for i := range a.Banks {
		if err := a.Banks[i].validate(); err != nil {
			return nil, fmt.Errorf("results: bank record %d: %w", i, err)
		}
	}
	for i := range a.TRR {
		if err := a.TRR[i].validate(); err != nil {
			return nil, fmt.Errorf("results: TRR record %d: %w", i, err)
		}
	}
	return &a, nil
}

// validate checks what the figure renderers rely on: per-pattern slices
// of one length with the WCDP index inside them, no negative coordinate
// or hammer count, every BER a fraction, and an offset inside its
// subarray.
func (r *RowRecord) validate() error {
	n := len(r.BER)
	switch {
	case r.Channel < 0 || r.PhysRow < 0 || r.Subarray < 0 || r.SubarrayOffset < 0 || r.SubarrayOffset >= r.SubarraySize:
		return fmt.Errorf("channel %d row %d at subarray %d offset %d of %d: out of range",
			r.Channel, r.PhysRow, r.Subarray, r.SubarrayOffset, r.SubarraySize)
	case len(r.HCFirst) != n || len(r.Found) != n || r.WCDP < 0 || r.WCDP >= n:
		return fmt.Errorf("%d BER, %d HCfirst and %d found patterns with wcdp %d", n, len(r.HCFirst), len(r.Found), r.WCDP)
	}
	for i, b := range r.BER {
		if !(b >= 0 && b <= 1) || r.HCFirst[i] < 0 {
			return fmt.Errorf("pattern %d: BER %v outside [0, 1] or HCfirst %d negative", i, b, r.HCFirst[i])
		}
	}
	return nil
}

// validate checks a bank record: non-negative coordinates, a mean BER
// percentage and a finite, non-negative CV.
func (b *BankRecord) validate() error {
	switch {
	case b.Channel < 0 || b.PseudoChannel < 0 || b.Bank < 0:
		return fmt.Errorf("negative bank address %d.%d.%d", b.Channel, b.PseudoChannel, b.Bank)
	case !(b.MeanBER >= 0 && b.MeanBER <= 100):
		return fmt.Errorf("mean BER %v%% outside [0, 100]", b.MeanBER)
	case !(b.CV >= 0 && b.CV <= math.MaxFloat64):
		return fmt.Errorf("CV %v is negative or not finite", b.CV)
	}
	return nil
}

// validate checks a TRR record: non-negative coordinates and a finite,
// non-negative retention time.
func (r *TRRRecord) validate() error {
	switch {
	case r.Channel < 0 || r.PseudoChannel < 0 || r.Bank < 0 || r.Row < 0 || r.Aggressor < 0:
		return fmt.Errorf("bank %d.%d.%d row %d aggressor %d: negative coordinate",
			r.Channel, r.PseudoChannel, r.Bank, r.Row, r.Aggressor)
	case !(r.RetentionSec >= 0 && r.RetentionSec <= math.MaxFloat64):
		return fmt.Errorf("retention %v s is negative or not finite", r.RetentionSec)
	}
	return nil
}

// readArray decodes an array whose elements read decodes: nil for null,
// non-nil for [].
func readArray[T any](r *jsonwire.Reader, read func(*T)) []T {
	if r.Null() {
		return nil
	}
	out := []T{}
	r.Array(func() {
		var v T
		read(&v)
		out = append(out, v)
	})
	return out
}

var (
	artifactFields = []string{"meta", "chips", "rows", "banks", "trr", "groups"}
	metaFields     = []string{"format", "tool", "code_version", "config_hash", "group_by",
		"shard", "shard_count",
		"job_axis", "job_first", "job_count", "job_keys", "params"}
	chipFields = []string{"seed", "min_hc_first", "wcdp_ratio", "worst_channel", "trr_period"}
	rowFields  = []string{"channel", "phys_row", "region", "ber", "hc_first", "found", "wcdp",
		"subarray", "subarray_offset", "subarray_size", "last_subarray"}
	bankFields   = []string{"channel", "pseudo_channel", "bank", "mean_ber_pct", "cv"}
	trrFields    = []string{"channel", "pseudo_channel", "bank", "row", "aggressor", "retention_s", "refreshed"}
	groupFields  = []string{"key", "metrics"}
	keyFields    = []string{"region", "channel", "point"}
	metricFields = []string{"name", "stream"}
)

func (a *Artifact) read(r *jsonwire.Reader) {
	r.Object(artifactFields, func(field string) {
		switch field {
		case "meta":
			a.Meta.read(r)
		case "chips":
			a.Chips = readArray(r, func(c *ChipRecord) { c.read(r) })
		case "rows":
			a.Rows = readArray(r, func(row *RowRecord) { row.read(r) })
		case "banks":
			a.Banks = readArray(r, func(b *BankRecord) { b.read(r) })
		case "trr":
			a.TRR = readArray(r, func(t *TRRRecord) { t.read(r) })
		case "groups":
			a.Groups = readArray(r, func(g *Group) { g.read(r) })
		}
	})
}

func (m *Meta) read(r *jsonwire.Reader) {
	r.Object(metaFields, func(field string) {
		switch field {
		case "format":
			m.Format = r.Int()
		case "tool":
			m.Tool = r.String()
		case "code_version":
			m.CodeVersion = r.String()
		case "config_hash":
			m.ConfigHash = r.String()
		case "group_by":
			m.GroupBy = r.String()
		case "shard":
			m.Shard = r.Int()
		case "shard_count":
			m.ShardCount = r.Int()
		case "job_axis":
			m.JobAxis = r.String()
		case "job_first":
			m.JobFirst = r.Int()
		case "job_count":
			m.JobCount = r.Int()
		case "job_keys":
			m.JobKeys = readArray(r, func(k *string) { *k = r.String() })
		case "params":
			if r.Null() {
				return
			}
			m.Params = map[string]string{}
			r.Map(func(k string) {
				if _, dup := m.Params[k]; dup {
					r.Fail(fmt.Errorf("results: duplicate params key %q", k))
					return
				}
				m.Params[k] = r.String()
			})
		}
	})
}

func (c *ChipRecord) read(r *jsonwire.Reader) {
	r.Object(chipFields, func(field string) {
		switch field {
		case "seed":
			c.Seed = r.Uint64()
		case "min_hc_first":
			c.MinHCFirst = r.Int()
		case "wcdp_ratio":
			c.WCDPRatio = r.Float()
		case "worst_channel":
			c.WorstChannel = r.Int()
		case "trr_period":
			c.TRRPeriod = r.Int()
		}
	})
}

func (row *RowRecord) read(r *jsonwire.Reader) {
	r.Object(rowFields, func(field string) {
		switch field {
		case "channel":
			row.Channel = r.Int()
		case "phys_row":
			row.PhysRow = r.Int()
		case "region":
			row.Region = r.String()
		case "ber":
			row.BER = r.Floats()
		case "hc_first":
			row.HCFirst = readArray(r, func(v *int) { *v = r.Int() })
		case "found":
			row.Found = readArray(r, func(v *bool) { *v = r.Bool() })
		case "wcdp":
			row.WCDP = r.Int()
		case "subarray":
			row.Subarray = r.Int()
		case "subarray_offset":
			row.SubarrayOffset = r.Int()
		case "subarray_size":
			row.SubarraySize = r.Int()
		case "last_subarray":
			row.LastSubarray = r.Bool()
		}
	})
}

func (b *BankRecord) read(r *jsonwire.Reader) {
	r.Object(bankFields, func(field string) {
		switch field {
		case "channel":
			b.Channel = r.Int()
		case "pseudo_channel":
			b.PseudoChannel = r.Int()
		case "bank":
			b.Bank = r.Int()
		case "mean_ber_pct":
			b.MeanBER = r.Float()
		case "cv":
			b.CV = r.Float()
		}
	})
}

func (t *TRRRecord) read(r *jsonwire.Reader) {
	r.Object(trrFields, func(field string) {
		switch field {
		case "channel":
			t.Channel = r.Int()
		case "pseudo_channel":
			t.PseudoChannel = r.Int()
		case "bank":
			t.Bank = r.Int()
		case "row":
			t.Row = r.Int()
		case "aggressor":
			t.Aggressor = r.Int()
		case "retention_s":
			t.RetentionSec = r.Float()
		case "refreshed":
			t.Refreshed = readArray(r, func(v *bool) { *v = r.Bool() })
		}
	})
}

func (g *Group) read(r *jsonwire.Reader) {
	r.Object(groupFields, func(field string) {
		switch field {
		case "key":
			r.Object(keyFields, func(field string) {
				switch field {
				case "region":
					g.Key.Region = r.String()
				case "channel":
					g.Key.Channel = r.Int()
				case "point":
					g.Key.Point = r.String()
				}
			})
		case "metrics":
			g.Metrics = readArray(r, func(m *Metric) {
				r.Object(metricFields, func(field string) {
					switch field {
					case "name":
						m.Name = r.String()
					case "stream":
						m.Stream = stats.ReadStream(r)
					}
				})
			})
		}
	})
}
