// Package results is the unified results layer of the study drivers: a
// typed, serializable artifact schema for aggregated distributions.
//
// An Artifact names its aggregation axis (per region, per channel, or
// region×channel — the paper's first-order axis is per channel), carries
// the provenance that makes merging safe (config hash, seed range, code
// version, format version), and holds one streaming accumulator
// (stats.Stream) per group and metric. Because the accumulators merge
// order-independently bit for bit, N shard artifacts produced on N
// machines and merged with Merge render byte-identical summaries to a
// single-process run over the union of their seed ranges — the property
// that turns the multichip scan into a distributable fleet tool.
//
// The schema is deliberately driver-agnostic: the multi-chip study emits
// its fleet aggregates through it, and the figure studies (the Figs. 3-5
// sweep, the Fig. 6 bank scatter) emit the same shape, so every summary
// export in the repo shares one CSV/JSON renderer and one merge path.
// Beside the groups, an artifact carries the fixed-size records its
// study's report draws: one ChipRecord per chip, one RowRecord per swept
// row, one BankRecord per Fig. 6 bank. Merge appends them in job order,
// so a merged or store-held artifact renders what a single process
// renders.
//
// Sharding has two regimes (DESIGN.md §7, §9): seed-axis artifacts
// carry contiguous seed-range provenance, while every other axis
// carries its job-slice provenance (JobAxis/JobFirst/JobCount/JobKeys)
// with contiguity and disjoint-key checks. ShardRange computes the
// canonical contiguous partition all processes agree on, and
// MergeShards folds shard files in canonical order — the merge path
// under `characterize merge` and the fleet coordinator alike.
//
// Artifacts have one serialized form, the indented JSON file format that
// shard files, fleet chunks and store objects share (codec.go):
// MarshalIndented writes it and Decode reads it through the
// non-reflective jsonwire codec, byte for byte what encoding/json would
// write for the struct tags below.
package results

import (
	"fmt"
	"runtime/debug"

	"github.com/safari-repro/hbmrh/internal/stats"
)

// FormatVersion is the artifact schema version. Merge refuses artifacts
// of a different version; bump it on any incompatible schema change.
// Version 2 added the planning-axis provenance (Meta.JobAxis/JobFirst/
// JobCount/JobKeys, Key.Point) and its merge conflict checks; version 3
// added the sweep's row records and fig6's bank records.
const FormatVersion = 3

// AxisSeed is the Meta.JobAxis value of fleet scans sharded by chip
// seed, where SeedFirst/SeedCount carry the provenance and merges check
// seed-range contiguity instead of job slices.
const AxisSeed = "seed"

// GroupBy selects an aggregation axis.
type GroupBy int

const (
	// ByRegion groups by paper region (first/middle/last), the seed
	// state's only axis.
	ByRegion GroupBy = iota
	// ByChannel groups by HBM2 channel, the paper's first-order
	// vulnerability axis.
	ByChannel
	// ByRegionChannel is the finest axis: one group per region×channel
	// cell. Artifacts store this axis; coarser views derive from it.
	ByRegionChannel
	// ByPoint groups by sweep point: the axis of experiments whose unit
	// is not a spatial cell — a temperature setpoint, a hold-time
	// multiplier, a TRR probe arm. Point artifacts support no other view.
	ByPoint
)

// String returns the canonical flag spelling of the axis.
func (g GroupBy) String() string {
	switch g {
	case ByRegion:
		return "region"
	case ByChannel:
		return "channel"
	case ByRegionChannel:
		return "region-channel"
	case ByPoint:
		return "point"
	}
	return fmt.Sprintf("groupby(%d)", int(g))
}

// ParseGroupBy parses the flag spelling produced by String.
func ParseGroupBy(s string) (GroupBy, error) {
	switch s {
	case "region":
		return ByRegion, nil
	case "channel":
		return ByChannel, nil
	case "region-channel":
		return ByRegionChannel, nil
	case "point":
		return ByPoint, nil
	}
	return 0, fmt.Errorf("results: unknown group-by axis %q (want region, channel, region-channel or point)", s)
}

// Key identifies one aggregation group. Region is "" when the axis has no
// region component; Channel is -1 when it has no channel component; Point
// is "" except on the point axis, where it names the sweep point and the
// other components are empty.
type Key struct {
	Region  string `json:"region,omitempty"`
	Channel int    `json:"channel"`
	Point   string `json:"point,omitempty"`
}

// NoChannel is the Key.Channel sentinel for axes without a channel
// component.
const NoChannel = -1

// Label renders the key for reports ("region first", "channel 3",
// "region first ch3", or the point name verbatim).
func (k Key) Label() string {
	switch {
	case k.Point != "":
		return k.Point
	case k.Region != "" && k.Channel != NoChannel:
		return fmt.Sprintf("region %s ch%d", k.Region, k.Channel)
	case k.Region != "":
		return "region " + k.Region
	default:
		return fmt.Sprintf("channel %d", k.Channel)
	}
}

// Metric is one named distribution of a group.
type Metric struct {
	Name   string        `json:"name"`
	Stream *stats.Stream `json:"stream"`
}

// Group is one aggregation cell: a key plus its metric accumulators in a
// fixed order.
type Group struct {
	Key     Key      `json:"key"`
	Metrics []Metric `json:"metrics"`
}

// ChipRecord is one chip instance's fixed-size headline numbers, carried
// through shard artifacts so a merged fleet report lists every chip.
type ChipRecord struct {
	Seed uint64 `json:"seed"`
	// MinHCFirst is the chip's global minimum HCfirst.
	MinHCFirst int `json:"min_hc_first"`
	// WCDPRatio is the most/least vulnerable channel BER ratio.
	WCDPRatio float64 `json:"wcdp_ratio"`
	// WorstChannel is the channel with the highest mean WCDP BER.
	WorstChannel int `json:"worst_channel"`
	// TRRPeriod is the uncovered mitigation period (0 if aperiodic).
	TRRPeriod int `json:"trr_period"`
}

// RowRecord is one victim row of the Figs. 3-5 sweep: everything the
// figures draw about it, so they render from any sweep artifact.
type RowRecord struct {
	Channel int    `json:"channel"`
	PhysRow int    `json:"phys_row"`
	Region  string `json:"region"`
	// BER, HCFirst and Found are per data pattern, indexed like
	// core.Table1(); Found is false where the pattern never flipped the
	// row within the hammer budget.
	BER     []float64 `json:"ber"`
	HCFirst []int     `json:"hc_first"`
	Found   []bool    `json:"found"`
	// WCDP is the index of the row's worst-case data pattern.
	WCDP int `json:"wcdp"`
	// Subarray is the index of the row's subarray in its bank,
	// SubarrayOffset the row's offset in it and SubarraySize its row
	// count; LastSubarray marks the bank's final subarray, the weak one
	// of Fig. 5.
	Subarray       int  `json:"subarray"`
	SubarrayOffset int  `json:"subarray_offset"`
	SubarraySize   int  `json:"subarray_size"`
	LastSubarray   bool `json:"last_subarray"`
}

// WCDPBER returns the row's BER under its worst-case pattern.
func (r *RowRecord) WCDPBER() float64 { return r.BER[r.WCDP] }

// WCDPHCFirst returns the row's HCfirst under its worst-case pattern and
// whether any pattern flipped at all.
func (r *RowRecord) WCDPHCFirst() (int, bool) { return r.HCFirst[r.WCDP], r.Found[r.WCDP] }

// BankRecord is one bank's marker in the Fig. 6 scatter: the mean and
// the coefficient of variation of its per-row BER distribution.
type BankRecord struct {
	Channel       int `json:"channel"`
	PseudoChannel int `json:"pseudo_channel"`
	Bank          int `json:"bank"`
	// MeanBER is the bank's mean per-row BER, in percent.
	MeanBER float64 `json:"mean_ber_pct"`
	// CV is the coefficient of variation of the bank's per-row BER. A
	// bank whose sampled rows never flip has none (see HasCV): CV is 0
	// and left out of the encoding.
	CV float64 `json:"cv,omitempty"`
}

// HasCV reports whether the bank has a coefficient of variation: a bank
// with a zero mean BER never flipped, and its CV is undefined.
func (b *BankRecord) HasCV() bool { return b.MeanBER > 0 }

// Meta is an artifact's provenance: everything Merge must check before
// two artifacts may be combined, plus the seed-range bookkeeping that
// keeps shard unions canonical.
type Meta struct {
	// Format is the schema version (FormatVersion at write time).
	Format int `json:"format"`
	// Tool names the producing experiment ("multichip", "sweep", "fig6");
	// artifacts from different drivers never merge.
	Tool string `json:"tool"`
	// CodeVersion identifies the producing build; shards measured by
	// different code must not merge (the fault model or methodology may
	// have changed between builds).
	CodeVersion string `json:"code_version"`
	// ConfigHash fingerprints the base chip configuration
	// (config.Config.Hash, hex). Shards of one fleet scan share it.
	ConfigHash string `json:"config_hash"`
	// GroupBy is the stored aggregation axis (coarser views derive at
	// render time).
	GroupBy string `json:"group_by"`
	// SeedFirst/SeedCount describe the contiguous seed range this
	// artifact covers. Merge requires ranges to be contiguous and
	// ascending, which makes the merged artifact independent of how the
	// range was sharded.
	SeedFirst uint64 `json:"seed_first"`
	SeedCount int    `json:"seed_count"`
	// Shard/ShardCount record which slice of a sharded run this artifact
	// is (0/1 for unsharded and merged artifacts).
	Shard      int `json:"shard"`
	ShardCount int `json:"shard_count"`
	// JobAxis names the experiment's planning axis — the unit a shard
	// slices: "seed" for fleet scans, "channel"/"bank" for spatial
	// studies, "point" for setpoint sweeps. On the seed axis the
	// SeedFirst/SeedCount range above is the whole provenance and the
	// job fields below stay zero; every other axis shards a study of ONE
	// chip, so merging requires identical seed ranges and contiguous,
	// non-overlapping job slices instead.
	JobAxis string `json:"job_axis,omitempty"`
	// JobFirst/JobCount describe the contiguous job-index slice of the
	// experiment plan this artifact covers (zero on the seed axis).
	JobFirst int `json:"job_first,omitempty"`
	JobCount int `json:"job_count,omitempty"`
	// JobKeys names the covered jobs in index order (the temperature
	// points, hold multipliers, channels...). Merge refuses artifacts
	// whose key sets overlap, which is what catches merging the same
	// shard twice — streams would otherwise double-count silently.
	JobKeys []string `json:"job_keys,omitempty"`
	// Params pins the remaining knobs that must match for a merge to be
	// meaningful (sampling density, hammer count, ...). Keys marshal
	// sorted, so the JSON form is deterministic.
	Params map[string]string `json:"params,omitempty"`
}

// Artifact is one serializable results payload: provenance, the records
// of the study's unit (chips, sweep rows or banks, each empty for the
// other studies) and the aggregation groups.
type Artifact struct {
	Meta   Meta         `json:"meta"`
	Chips  []ChipRecord `json:"chips,omitempty"`
	Rows   []RowRecord  `json:"rows,omitempty"`
	Banks  []BankRecord `json:"banks,omitempty"`
	Groups []Group      `json:"groups"`
}

// CodeVersion returns the identifier recorded in Meta.CodeVersion: the
// main module's version (with VCS revision when the build stamps one),
// or "dev" for unstamped builds (`go test`, and `go run` without VCS
// stamping). The code-version merge gate is therefore only as strong as
// the build pipeline: distributed fleets should ship a `go build`
// binary, where the VCS revision is stamped and divergent checkouts are
// refused; two unstamped "dev" builds are indistinguishable and merge on
// config-hash/params compatibility alone.
func CodeVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	v := bi.Main.Version
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			v += "+" + s.Value
		}
	}
	if v == "" || v == "(devel)" {
		return "dev"
	}
	return v
}

// CompatibleWith reports, as an error, the first reason b cannot merge
// into a: format/tool/code/config/axis/params skew, or structurally
// misaligned groups.
func (a *Artifact) CompatibleWith(b *Artifact) error {
	am, bm := &a.Meta, &b.Meta
	switch {
	case am.Format != bm.Format:
		return fmt.Errorf("results: format version %d vs %d", am.Format, bm.Format)
	case am.Tool != bm.Tool:
		return fmt.Errorf("results: artifacts from different tools: %q vs %q", am.Tool, bm.Tool)
	case am.CodeVersion != bm.CodeVersion:
		return fmt.Errorf("results: artifacts from different builds: %q vs %q", am.CodeVersion, bm.CodeVersion)
	case am.ConfigHash != bm.ConfigHash:
		return fmt.Errorf("results: artifacts of different chip configs: %s vs %s", am.ConfigHash, bm.ConfigHash)
	case am.GroupBy != bm.GroupBy:
		return fmt.Errorf("results: artifacts on different axes: %q vs %q", am.GroupBy, bm.GroupBy)
	case am.JobAxis != bm.JobAxis:
		return fmt.Errorf("results: artifacts on different planning axes: %q vs %q", am.JobAxis, bm.JobAxis)
	}
	if len(am.Params) != len(bm.Params) {
		return fmt.Errorf("results: artifacts with different parameter sets")
	}
	for k, v := range am.Params {
		if bv, ok := bm.Params[k]; !ok || bv != v {
			return fmt.Errorf("results: parameter %q: %q vs %q", k, v, bm.Params[k])
		}
	}
	if len(a.Groups) != len(b.Groups) {
		return fmt.Errorf("results: %d groups vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		ga, gb := &a.Groups[i], &b.Groups[i]
		if ga.Key != gb.Key {
			return fmt.Errorf("results: group %d keys differ: %v vs %v", i, ga.Key, gb.Key)
		}
		if len(ga.Metrics) != len(gb.Metrics) {
			return fmt.Errorf("results: group %v metric counts differ", ga.Key)
		}
		for j := range ga.Metrics {
			ma, mb := &ga.Metrics[j], &gb.Metrics[j]
			if ma.Name != mb.Name {
				return fmt.Errorf("results: group %v metric %d: %q vs %q", ga.Key, j, ma.Name, mb.Name)
			}
			if err := ma.Stream.CompatibleWith(mb.Stream); err != nil {
				return fmt.Errorf("results: group %v metric %q: %w", ga.Key, ma.Name, err)
			}
		}
	}
	return nil
}

// Merge folds b into a after verifying compatibility and slice
// provenance. On the seed axis (fleet scans; also artifacts predating
// job provenance) shards must cover contiguous ascending seed ranges
// with no chip appearing twice. On every other planning axis shards
// slice one study of one chip: seed ranges must be identical and the
// job-index slices contiguous with disjoint job keys. The merged
// artifact covers the union and is normalized to an unsharded view
// (Shard 0/1), so merging all shards of a run reproduces the
// single-process artifact's metadata. On error a is left unmodified.
func Merge(a, b *Artifact) error {
	if err := a.CompatibleWith(b); err != nil {
		return err
	}
	am, bm := &a.Meta, &b.Meta
	jobSliced := am.JobCount > 0 || bm.JobCount > 0
	if jobSliced && am.JobAxis == AxisSeed {
		return fmt.Errorf("results: seed-axis artifacts must carry seed-range provenance, not job slices")
	}
	if jobSliced {
		if am.SeedFirst != bm.SeedFirst || am.SeedCount != bm.SeedCount {
			return fmt.Errorf("results: %s-axis shards of different seed ranges: [%d,+%d) vs [%d,+%d)",
				am.JobAxis, am.SeedFirst, am.SeedCount, bm.SeedFirst, bm.SeedCount)
		}
		keys := make(map[string]bool, len(am.JobKeys))
		for _, k := range am.JobKeys {
			keys[k] = true
		}
		for _, k := range bm.JobKeys {
			if keys[k] {
				return fmt.Errorf("results: job %q present in both artifacts (same shard merged twice?)", k)
			}
		}
		if bm.JobFirst != am.JobFirst+am.JobCount {
			return fmt.Errorf("results: job slices not contiguous: [%d,+%d) then [%d,+%d) — merge shards in ascending job order with no gaps",
				am.JobFirst, am.JobCount, bm.JobFirst, bm.JobCount)
		}
	} else if bm.SeedFirst != am.SeedFirst+uint64(am.SeedCount) {
		return fmt.Errorf("results: seed ranges not contiguous: [%d,+%d) then [%d,+%d) — merge shards in ascending seed order with no gaps",
			am.SeedFirst, am.SeedCount, bm.SeedFirst, bm.SeedCount)
	}
	seen := make(map[uint64]bool, len(a.Chips))
	for _, c := range a.Chips {
		seen[c.Seed] = true
	}
	for _, c := range b.Chips {
		if seen[c.Seed] {
			return fmt.Errorf("results: chip seed %#x present in both artifacts", c.Seed)
		}
	}
	for i := range a.Groups {
		for j := range a.Groups[i].Metrics {
			a.Groups[i].Metrics[j].Stream.Merge(b.Groups[i].Metrics[j].Stream)
		}
	}
	a.Chips = append(a.Chips, b.Chips...)
	a.Rows = append(a.Rows, b.Rows...)
	a.Banks = append(a.Banks, b.Banks...)
	if jobSliced {
		am.JobCount += bm.JobCount
		am.JobKeys = append(am.JobKeys, bm.JobKeys...)
	} else {
		am.SeedCount += bm.SeedCount
	}
	am.Shard, am.ShardCount = 0, 1
	return nil
}

// MergeGroups folds src's streams into dst without metadata checks; the
// group structures must align (the in-process fold of one study, where
// every per-chip group set comes from the same allocator). It panics on
// structural mismatch, like stats.Stream.Merge.
func MergeGroups(dst, src []Group) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("results: merging misaligned group sets: %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		if dst[i].Key != src[i].Key || len(dst[i].Metrics) != len(src[i].Metrics) {
			panic(fmt.Sprintf("results: merging misaligned group %d: %v vs %v", i, dst[i].Key, src[i].Key))
		}
		for j := range dst[i].Metrics {
			dst[i].Metrics[j].Stream.Merge(src[i].Metrics[j].Stream)
		}
	}
}

// View derives the artifact's groups at the requested axis. The stored
// axis is returned as-is; coarser axes merge the stored region×channel
// streams in canonical order (regions in stored order, channels
// ascending), so a view is as deterministic as the artifact itself.
func (a *Artifact) View(gb GroupBy) ([]Group, error) {
	stored, err := ParseGroupBy(a.Meta.GroupBy)
	if err != nil {
		return nil, err
	}
	if gb == stored {
		return a.Groups, nil
	}
	if stored != ByRegionChannel {
		return nil, fmt.Errorf("results: artifact stores axis %q; only region-channel artifacts support other views", a.Meta.GroupBy)
	}
	var coarse func(Key) Key
	switch gb {
	case ByRegion:
		coarse = func(k Key) Key { return Key{Region: k.Region, Channel: NoChannel} }
	case ByChannel:
		coarse = func(k Key) Key { return Key{Channel: k.Channel} }
	default:
		return nil, fmt.Errorf("results: cannot derive view %v", gb)
	}
	idx := map[Key]int{}
	var out []Group
	for _, g := range a.Groups {
		key := coarse(g.Key)
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			ms := make([]Metric, len(g.Metrics))
			for j, m := range g.Metrics {
				ms[j] = Metric{Name: m.Name, Stream: m.Stream.Clone()}
			}
			out = append(out, Group{Key: key, Metrics: ms})
			continue
		}
		if len(out[i].Metrics) != len(g.Metrics) {
			return nil, fmt.Errorf("results: group %v metric sets differ across cells", key)
		}
		for j, m := range g.Metrics {
			if out[i].Metrics[j].Name != m.Name {
				return nil, fmt.Errorf("results: group %v metric order differs across cells", key)
			}
			out[i].Metrics[j].Stream.Merge(m.Stream)
		}
	}
	return out, nil
}

// Clone returns a deep copy of the artifact: mutating the copy (further
// Merge folds) never affects the original or anything reachable from it.
// The artifact store's incremental merge clones the published sealed view
// before folding the next shard in, so readers still holding the old
// pointer are never disturbed.
func (a *Artifact) Clone() *Artifact {
	c := &Artifact{Meta: a.Meta}
	c.Meta.JobKeys = append([]string(nil), a.Meta.JobKeys...)
	if a.Meta.Params != nil {
		c.Meta.Params = make(map[string]string, len(a.Meta.Params))
		for k, v := range a.Meta.Params {
			c.Meta.Params[k] = v
		}
	}
	c.Chips = append([]ChipRecord(nil), a.Chips...)
	// Records are never modified once folded, only appended to, so the
	// copies share their per-pattern slices.
	c.Rows = append([]RowRecord(nil), a.Rows...)
	c.Banks = append([]BankRecord(nil), a.Banks...)
	c.Groups = make([]Group, len(a.Groups))
	for i, g := range a.Groups {
		ms := make([]Metric, len(g.Metrics))
		for j, m := range g.Metrics {
			ms[j] = Metric{Name: m.Name, Stream: m.Stream.Clone()}
		}
		c.Groups[i] = Group{Key: g.Key, Metrics: ms}
	}
	return c
}

// Seal pre-builds every stream's sorted quantile view so subsequent
// renders (SummaryCSV/SummaryJSON and the View they derive) are strictly
// read-only on the streams. The artifact store seals merged views before
// publishing them to concurrent query readers.
func (a *Artifact) Seal() {
	for i := range a.Groups {
		for j := range a.Groups[i].Metrics {
			a.Groups[i].Metrics[j].Stream.Seal()
		}
	}
}

// ShardRange partitions n items into `of` contiguous shards and returns
// shard's half-open index range [lo, hi). Every item lands in exactly one
// shard and shard sizes differ by at most one; the partition depends only
// on (n, of), so independently launched shard processes agree on it.
//
// Degenerate inputs never panic or return out-of-range slices: a
// non-positive shard count, an out-of-range shard index, or a negative n
// all yield the empty range [0, 0). When n < of, the formula leaves the
// excess shards empty (still covering [0, n) exactly once across the
// valid indexes); callers that consider an empty shard an error must
// check lo == hi themselves.
func ShardRange(n, shard, of int) (lo, hi int) {
	if n < 0 {
		n = 0
	}
	if of < 1 || shard < 0 || shard >= of {
		return 0, 0
	}
	return n * shard / of, n * (shard + 1) / of
}
