package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// fleetStudy runs a small multichip registry scan over the contiguous
// seeds [first, first+count) with the given chip-level parallelism.
func fleetStudy(t testing.TB, parallel int, first uint64, count int) *results.Artifact {
	t.Helper()
	cfg := *config.SmallChip()
	cfg.Seed = first
	a, err := Run("multichip", Options{Cfg: &cfg, Seeds: count, Rows: 3, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// regionView returns the study's aggregates at the region axis, keyed by
// region name and metric.
func regionView(t *testing.T, a *results.Artifact) map[string]map[string]*stats.Stream {
	t.Helper()
	groups, err := a.View(results.ByRegion)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]*stats.Stream{}
	for _, g := range groups {
		ms := map[string]*stats.Stream{}
		for _, m := range g.Metrics {
			ms[m.Name] = m.Stream
		}
		out[g.Key.Region] = ms
	}
	return out
}

// TestMultiChipStreamingMatchesBatch is the streaming-vs-batch
// equivalence check at the study level: the aggregates that the multichip
// scan streams per region and channel must equal batch summaries of the same
// rows recomputed from independent per-seed sweeps. The fleet is small
// enough that the streams stay in exact mode, so equality is bitwise.
func TestMultiChipStreamingMatchesBatch(t *testing.T) {
	seeds := []uint64{5, 6, 7}
	s := fleetStudy(t, 2, seeds[0], len(seeds))

	batchBER := map[results.Key][]float64{}
	batchHC := map[results.Key][]float64{}
	for _, seed := range seeds {
		cfg := *config.SmallChip()
		cfg.Seed = seed
		sweep, err := Run("sweep", Options{Cfg: &cfg, Rows: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sweep.Rows {
			k := results.Key{Region: r.Region, Channel: r.Channel}
			batchBER[k] = append(batchBER[k], r.WCDPBER())
			if hc, found := r.WCDPHCFirst(); found {
				batchHC[k] = append(batchHC[k], float64(hc))
			}
		}
	}

	channels := config.SmallChip().Geometry.Channels
	if want := 3 * channels; len(s.Groups) != want {
		t.Fatalf("%d fine groups, want %d", len(s.Groups), want)
	}
	for _, g := range s.Groups {
		ber, hc := g.Metrics[0].Stream, g.Metrics[1].Stream
		if ber.Sketched() {
			t.Fatalf("group %v: stream sketched on a tiny fleet", g.Key)
		}
		wantBER := stats.Summarize(batchBER[g.Key])
		if got := ber.Summary(); got != wantBER {
			t.Errorf("group %v: streamed BER %+v != batch %+v", g.Key, got, wantBER)
		}
		if vals := batchHC[g.Key]; len(vals) > 0 {
			wantHC := stats.Summarize(vals)
			if got := hc.Summary(); got != wantHC {
				t.Errorf("group %v: streamed HCfirst %+v != batch %+v", g.Key, got, wantHC)
			}
		} else if hc.N() != 0 {
			t.Errorf("group %v: stream holds %d HCfirst samples, batch found none", g.Key, hc.N())
		}
	}

	// The derived region view must aggregate exactly the union of its
	// channels' samples.
	regions := regionView(t, s)
	if len(regions) != 3 {
		t.Fatalf("%d region groups, want 3", len(regions))
	}
	for region, ms := range regions {
		var all []float64
		for ch := 0; ch < channels; ch++ {
			all = append(all, batchBER[results.Key{Region: region, Channel: ch}]...)
		}
		if got, want := ms[metricBER].Summary(), stats.Summarize(all); got != want {
			t.Errorf("region %s: derived view %+v != batch %+v", region, got, want)
		}
	}
}

// TestMultiChipDeterministicAcrossChipWorkers is the fleet determinism
// regression: chip-parallel scans must produce byte-identical aggregated
// output — render, CSV and JSON on every axis — for the same seed set at
// any worker count, because the streaming fold runs in seed-index order.
func TestMultiChipDeterministicAcrossChipWorkers(t *testing.T) {
	serial := fleetStudy(t, 1, 40, 6)
	parallel := fleetStudy(t, 8, 40, 6)

	if !reflect.DeepEqual(serial.Chips, parallel.Chips) {
		t.Fatalf("chip summaries differ across worker counts:\n%+v\nvs\n%+v",
			serial.Chips, parallel.Chips)
	}
	if a, b := Render(serial), Render(parallel); a != b {
		t.Fatalf("rendered output differs across worker counts:\n%s\nvs\n%s", a, b)
	}
	for _, gb := range []results.GroupBy{results.ByRegion, results.ByChannel, results.ByRegionChannel} {
		ha, ra, err := serial.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		hb, rb, err := parallel.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ha, hb) || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%v: aggregate CSV differs across worker counts:\n%v\nvs\n%v", gb, ra, rb)
		}
		ja, err := serial.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := parallel.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%v: aggregate JSON differs across worker counts:\n%s\nvs\n%s", gb, ja, jb)
		}
	}
}

// TestMultiChipShardMergeMatchesSingleProcess pins the fleet-sharding
// contract end to end: 32 seeds measured in one process versus four
// contiguous job-slice shards — each serialized to an artifact file, as
// on four machines — loaded back and merged must render byte-identical
// CSV and JSON on every axis.
func TestMultiChipShardMergeMatchesSingleProcess(t *testing.T) {
	const chips, shards = 32, 4
	run := func(shard, shardCount int) *results.Artifact {
		a, err := Run("multichip", Options{
			Cfg:        config.SmallChip(),
			Seeds:      chips,
			Rows:       2,
			Parallel:   2,
			Shard:      shard,
			ShardCount: shardCount,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	single := run(0, 0)

	dir := t.TempDir()
	paths := make([]string, shards)
	for i := 0; i < shards; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		if err := run(i, shards).WriteFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}

	merged, err := results.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths[1:] {
		next, err := results.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := results.Merge(merged, next); err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(single.Meta, merged.Meta) {
		t.Fatalf("merged meta differs from single-process run:\n%+v\nvs\n%+v",
			single.Meta, merged.Meta)
	}
	if !reflect.DeepEqual(single.Chips, merged.Chips) {
		t.Fatal("merged chip records differ from single-process run")
	}
	for _, gb := range []results.GroupBy{results.ByRegion, results.ByChannel, results.ByRegionChannel} {
		hs, rs, err := single.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		hm, rm, err := merged.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hs, hm) || !reflect.DeepEqual(rs, rm) {
			t.Fatalf("%v: sharded CSV differs from single-process run:\n%v\nvs\n%v", gb, rs, rm)
		}
		js, err := single.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		jm, err := merged.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, jm) {
			t.Fatalf("%v: sharded JSON differs from single-process run:\n%s\nvs\n%s", gb, js, jm)
		}
	}
	// The merged artifact renders like the original.
	if a, b := Render(single), Render(merged); a != b {
		t.Fatalf("merged render differs:\n%s\nvs\n%s", a, b)
	}
}

func TestMultiChipRetainsNoSampleSlices(t *testing.T) {
	// The fleet contract: the study keeps fixed-size chip summaries and
	// O(regions x channels) accumulators, never per-chip sample slices.
	// results.ChipRecord staying slice-free is what the reflection walk
	// pins down.
	var c results.ChipRecord
	ty := reflect.TypeOf(c)
	for i := 0; i < ty.NumField(); i++ {
		if k := ty.Field(i).Type.Kind(); k == reflect.Slice || k == reflect.Map || k == reflect.Ptr {
			t.Errorf("ChipRecord.%s is a %s; per-chip summaries must stay fixed-size",
				ty.Field(i).Name, k)
		}
	}
	a := fleetStudy(t, 2, 9, 2)
	channels := config.SmallChip().Geometry.Channels
	if want := 3 * channels; len(a.Groups) != want {
		t.Fatalf("%d fine groups, want %d", len(a.Groups), want)
	}
}

func TestMultiChipRenderIncludesFleetAggregates(t *testing.T) {
	a := fleetStudy(t, 1, 3, 2)
	out := Render(a)
	for _, want := range []string{"chip-to-chip", "fleet aggregate", "by region", "first", "middle", "last", "BER%", "HCfirst"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The report is drawn by region; the same aggregates still view and
	// render at the channel axis.
	groups, err := a.View(results.ByChannel)
	if err != nil {
		t.Fatal(err)
	}
	if out := results.RenderGroups(groups, metricLabel, metricScale); !strings.Contains(out, "channel 0") {
		t.Errorf("channel-axis render missing channel groups:\n%s", out)
	}
}

func TestMultiChipAggregateExports(t *testing.T) {
	a := fleetStudy(t, 1, 3, 2)
	headers, rows, err := a.SummaryCSV(results.ByRegion)
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 10 {
		t.Fatalf("%d CSV headers", len(headers))
	}
	if len(rows) == 0 || len(rows) > 6 {
		t.Fatalf("%d CSV rows for 3 regions x 2 metrics", len(rows))
	}
	for _, r := range rows {
		if len(r) != len(headers) {
			t.Fatalf("CSV row %v arity mismatch", r)
		}
	}
	// The channel axis widens the export to one row per channel/metric.
	chHeaders, chRows, err := a.SummaryCSV(results.ByRegionChannel)
	if err != nil {
		t.Fatal(err)
	}
	if len(chHeaders) != 11 {
		t.Fatalf("%d CSV headers on the region-channel axis", len(chHeaders))
	}
	if len(chRows) <= len(rows) {
		t.Fatalf("region-channel export has %d rows, region export %d", len(chRows), len(rows))
	}

	js, err := a.SummaryJSON(results.ByRegion)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"meta"`, `"config_hash"`, `"chips"`, `"groups"`, `"wcdp_ber"`, `"seed"`, `"median"`, `"stddev"`} {
		if !bytes.Contains(js, []byte(want)) {
			t.Errorf("aggregate JSON missing %s:\n%s", want, js)
		}
	}
	// The schema is snake_case throughout: no Go-cased Summary keys.
	if bytes.Contains(js, []byte(`"Median"`)) || bytes.Contains(js, []byte(`"StdDev"`)) {
		t.Errorf("aggregate JSON leaks Go-cased summary keys:\n%s", js)
	}
}

// TestRecordsRefoldToArtifactGroups pins that the records the sweep and
// fig6 artifacts carry are the payloads their groups were folded from:
// refolding an artifact's records the way the registry folds them gives
// groups byte-identical to the artifact's own, and there is one record
// per swept row and per bank.
func TestRecordsRefoldToArtifactGroups(t *testing.T) {
	o := Options{Cfg: config.SmallChip(), Rows: 2, Parallel: 3}
	sameGroups := func(a *results.Artifact, groups []results.Group) {
		t.Helper()
		got := &results.Artifact{Meta: a.Meta, Groups: groups}
		want := &results.Artifact{Meta: a.Meta, Groups: a.Groups}
		if !bytes.Equal(marshal(t, got), marshal(t, want)) {
			t.Fatalf("%s: refolded records differ from the artifact's groups", a.Meta.Tool)
		}
	}

	sweep, err := Run("sweep", o)
	if err != nil {
		t.Fatal(err)
	}
	groups := newFineGroups(o.Cfg)
	foldSweepRows(o.Cfg, groups, sweep.Rows)
	folded := 0
	for _, g := range groups {
		folded += g.Metrics[0].Stream.N()
	}
	if len(sweep.Rows) == 0 || folded != len(sweep.Rows) {
		t.Fatalf("sweep: %d BER samples folded for %d rows", folded, len(sweep.Rows))
	}
	sameGroups(sweep, groups)

	f6, err := Run("fig6", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Banks) != o.Cfg.Geometry.TotalBanks() {
		t.Fatalf("fig6: %d bank records, want one per bank", len(f6.Banks))
	}
	groups = newFig6Groups(o.Cfg)
	for _, b := range f6.Banks {
		addFig6Point(groups, b)
	}
	sameGroups(f6, groups)
}

// TestMultiChipDefaultSeedsStartAtTheChip pins the default seed jobs:
// Seeds 0 scans the same three chips as Seeds 3, starting at the chip's
// own seed.
func TestMultiChipDefaultSeedsStartAtTheChip(t *testing.T) {
	o := Options{Cfg: config.SmallChip(), Rows: 1}
	def, err := Run("multichip", o)
	if err != nil {
		t.Fatal(err)
	}
	o.Seeds = 3
	three, err := Run("multichip", o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, def), marshal(t, three)) {
		t.Fatal("Seeds 0 and Seeds 3 scan different chips")
	}
	seed := config.SmallChip().Seed
	want := []string{fmt.Sprintf("seed:%#x", seed), fmt.Sprintf("seed:%#x", seed+1), fmt.Sprintf("seed:%#x", seed+2)}
	if def.Meta.JobAxis != results.AxisSeed || def.Meta.JobFirst != 0 || def.Meta.JobCount != 3 ||
		!slices.Equal(def.Meta.JobKeys, want) {
		t.Fatalf("default scan covers %s jobs [%d,+%d) %v, want seed jobs [0,+3) %v",
			def.Meta.JobAxis, def.Meta.JobFirst, def.Meta.JobCount, def.Meta.JobKeys, want)
	}
}

// TestMultiChipHonoursHammerCeiling pins that the per-chip sweep searches
// HCfirst under Options.Hammers: no chip reports a first flip above the
// ceiling, and some chip still flips under it, so the check is not
// vacuous.
func TestMultiChipHonoursHammerCeiling(t *testing.T) {
	const ceiling = 26000
	a, err := Run("multichip", Options{Cfg: config.SmallChip(), Rows: 1, Seeds: 2, Hammers: ceiling})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Meta.Params["hammers"]; got != fmt.Sprint(ceiling) {
		t.Errorf("params hammers = %q, want %d", got, ceiling)
	}
	flipped := false
	for _, c := range a.Chips {
		if c.MinHCFirst > ceiling {
			t.Errorf("chip %#x min HCfirst %d above the %d ceiling", c.Seed, c.MinHCFirst, ceiling)
		}
		flipped = flipped || c.MinHCFirst > 0
	}
	if !flipped {
		t.Fatalf("no chip flipped under %d hammers: %+v", ceiling, a.Chips)
	}
}

// TestMultiChipNoFlipChipReadsNone is the repro of a chip with no flip
// under the ceiling: its row reads "none" where it printed a 0 HCfirst,
// and the across-chip line streams only the chip that flipped (it read
// "0 .. 23663 (mean 11832)"). The chip record keeps its 0.
func TestMultiChipNoFlipChipReadsNone(t *testing.T) {
	a, err := Run("multichip", Options{Cfg: config.SmallChip(), Rows: 1, Seeds: 2, Hammers: 26000})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Chips) != 2 || a.Chips[0].MinHCFirst == 0 || a.Chips[1].MinHCFirst != 0 {
		t.Fatalf("want one chip that flips and one that does not: %+v", a.Chips)
	}
	out := renderMultichip(a)
	noFlip := fmt.Sprintf("%#-12x  %11s", a.Chips[1].Seed, "none")
	if !strings.Contains(out, noFlip) {
		t.Errorf("the chip without a flip does not read none:\n%s", out)
	}
	hc := a.Chips[0].MinHCFirst
	if want := fmt.Sprintf("min HCfirst across chips: %d .. %d (mean %d)\n", hc, hc, hc); !strings.Contains(out, want) {
		t.Errorf("across-chip line is not %q:\n%s", want, out)
	}
	none := []results.ChipRecord{{Seed: 1, WCDPRatio: 2}, {Seed: 2, WCDPRatio: 2}}
	if out := renderMultichip(&results.Artifact{Chips: none}); !strings.Contains(out, "min HCfirst across chips: none\n") {
		t.Errorf("no chip flipped, yet the across-chip line is not none:\n%s", out)
	}
}

// TestMultiChipUndefinedWorstChannelReadsNone is the repro of chips whose
// worst channel is undefined (a BER ratio of 0): their ratio and worst
// channel read "none", and the stability epilogue no longer reports the
// channel-0 fallbacks as a stable worst channel.
func TestMultiChipUndefinedWorstChannelReadsNone(t *testing.T) {
	a, err := Run("multichip", Options{Cfg: config.SmallChip(), Rows: 1, Seeds: 3, Hammers: 20000})
	if err != nil {
		t.Fatal(err)
	}
	out := renderMultichip(a)
	for _, c := range a.Chips {
		if c.WCDPRatio != 0 {
			t.Fatalf("chip %#x has a BER ratio %v; the repro needs none", c.Seed, c.WCDPRatio)
		}
		if row := fmt.Sprintf("%#-12x  %11s  %9s  %8s", c.Seed, "none", "none", "none"); !strings.Contains(out, row) {
			t.Errorf("chip %#x row does not read none:\n%s", c.Seed, out)
		}
	}
	if !strings.Contains(out, "worst channel = false") {
		t.Errorf("undefined worst channels reported stable:\n%s", out)
	}
	for _, tc := range []struct {
		name  string
		chips []results.ChipRecord
		want  bool
	}{
		{"one defined", []results.ChipRecord{{WCDPRatio: 2, WorstChannel: 7}, {WorstChannel: 0}}, false},
		{"two agree, one undefined", []results.ChipRecord{{WorstChannel: 0}, {WCDPRatio: 2, WorstChannel: 7}, {WCDPRatio: 3, WorstChannel: 7}}, true},
		{"two disagree", []results.ChipRecord{{WCDPRatio: 2, WorstChannel: 7}, {WCDPRatio: 3, WorstChannel: 6}}, false},
	} {
		if got, _ := stableObservations(tc.chips); got != tc.want {
			t.Errorf("%s: worst channel stable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMultiChipGroupsMatchSweep pins the pruned per-chip scan to the
// sweep: a one-seed multichip artifact's groups, which it folds from
// WCDP-only row records, re-encode byte for byte like the sweep
// artifact's groups for that seed, folded from every pattern's search.
func TestMultiChipGroupsMatchSweep(t *testing.T) {
	for _, c := range []struct {
		seed          uint64
		rows, hammers int
	}{{11, 3, 0}, {12, 2, 90_001}} {
		cfg := *config.SmallChip()
		cfg.Seed = c.seed
		chip, err := Run("multichip", Options{Cfg: &cfg, Seeds: 1, Rows: c.rows, Hammers: c.hammers})
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := Run("sweep", Options{Cfg: &cfg, Rows: c.rows, Hammers: c.hammers})
		if err != nil {
			t.Fatal(err)
		}
		encode := func(a *results.Artifact) []byte {
			b, err := (&results.Artifact{Meta: results.Meta{GroupBy: a.Meta.GroupBy}, Groups: a.Groups}).MarshalIndented()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if got, want := encode(chip), encode(sweep); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: multichip groups (%d bytes) differ from the sweep's (%d bytes)", c.seed, len(got), len(want))
		}
	}
}

// TestMultiChipReadsAtMostHalfTheSweep pins the saving of the pruned
// search: on the same chip, the per-channel jobs multichip runs read out
// at most six rows per victim, half the twelve the sweep's four full
// searches read for a victim every pattern flips (each search its
// ceiling and the two ends of its predicted leaf). The pruned search
// reads the winner's ceiling and its leaf's two ends, and settles each
// other pattern with one read-out at that leaf; a second read-out per
// pattern, or a third, comes only from a tie or a predicted winner that
// another pattern beats.
func TestMultiChipReadsAtMostHalfTheSweep(t *testing.T) {
	cfg := config.SmallChip()
	var reads, victims int64
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		h, err := core.NewHarnessFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := h.Device().Stats().Reads
		recs, err := wcdpChannel(h, cfg.Geometry, 8, core.DefaultHammers, ch)
		if err != nil {
			t.Fatal(err)
		}
		reads += h.Device().Stats().Reads - before
		victims += int64(len(recs))
	}
	rows := reads / int64(cfg.Geometry.Columns)
	t.Logf("victim read-outs: multichip %d over %d victims", rows, victims)
	if rows > 6*victims {
		t.Fatalf("multichip read %d victim rows, more than six for each of its %d victims", rows, victims)
	}
}
