package results

import (
	"fmt"
	"sort"

	"github.com/safari-repro/hbmrh/internal/jsonwire"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// The artifact file format is the indented JSON encoding/json's
// MarshalIndent(a, "", "  ") produces for the struct tags in results.go,
// plus a trailing newline. Shard files, fleet chunks and store objects
// all use it, and store objects are addressed by its SHA-256, so these
// bytes must never drift: the codec below writes and reads the schema
// directly through jsonwire instead of reflecting over the structs, and
// FuzzArtifactCodec holds it to encoding/json in both directions.

// MarshalIndented renders the artifact as deterministic indented JSON
// with a trailing newline: the artifact file format. The bytes are
// exactly json.MarshalIndent(a, "", "  ") plus "\n": fields in struct
// order, omitempty fields left out when empty, nil slices as null, map
// keys sorted, streams in their versioned wire form. It fails only on
// non-finite values, which JSON cannot represent.
func (a *Artifact) MarshalIndented() ([]byte, error) {
	w := jsonwire.NewWriter(nil, true)
	a.write(w)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("results: encoding artifact: %w", err)
	}
	return append(w.Bytes(), '\n'), nil
}

func (a *Artifact) write(w *jsonwire.Writer) {
	w.Open('{')
	w.Key("meta")
	a.Meta.write(w)
	if len(a.Chips) > 0 {
		w.Key("chips")
		w.Open('[')
		for i := range a.Chips {
			w.Next()
			a.Chips[i].write(w)
		}
		w.Close(']')
	}
	w.Key("groups")
	if a.Groups == nil {
		w.Null()
	} else {
		w.Open('[')
		for i := range a.Groups {
			w.Next()
			a.Groups[i].write(w)
		}
		w.Close(']')
	}
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
	w.Key("seed_first")
	w.Uint(m.SeedFirst)
	w.Key("seed_count")
	w.Int(int64(m.SeedCount))
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
		w.Strings(m.JobKeys)
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
	if g.Metrics == nil {
		w.Null()
	} else {
		w.Open('[')
		for _, m := range g.Metrics {
			w.Next()
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
		}
		w.Close(']')
	}
	w.Close('}')
}

// Decode parses an artifact file and validates its format version, its
// stored axis and every stream.
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
	return &a, nil
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
	artifactFields = []string{"meta", "chips", "groups"}
	metaFields     = []string{"format", "tool", "code_version", "config_hash", "group_by",
		"seed_first", "seed_count", "shard", "shard_count",
		"job_axis", "job_first", "job_count", "job_keys", "params"}
	chipFields   = []string{"seed", "min_hc_first", "wcdp_ratio", "worst_channel", "trr_period"}
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
		case "seed_first":
			m.SeedFirst = r.Uint64()
		case "seed_count":
			m.SeedCount = r.Int()
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
