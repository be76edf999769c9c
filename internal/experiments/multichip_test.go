package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// fleetStudy runs a small multichip registry scan over the contiguous
// seeds [first, first+count) with the given chip-level parallelism.
func fleetStudy(t testing.TB, parallel int, first uint64, count int) *MultiChipStudy {
	t.Helper()
	cfg := *config.SmallChip()
	cfg.Seed = first
	a, err := Run("multichip", Options{Cfg: &cfg, Seeds: count, Rows: 3, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return StudyFromArtifact(a, results.ByRegion)
}

// regionView returns the study's aggregates at the region axis, keyed by
// region name and metric.
func regionView(t *testing.T, s *MultiChipStudy) map[string]map[string]*stats.Stream {
	t.Helper()
	groups, err := s.Artifact.View(results.ByRegion)
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
	if want := 3 * channels; len(s.Artifact.Groups) != want {
		t.Fatalf("%d fine groups, want %d", len(s.Artifact.Groups), want)
	}
	for _, g := range s.Artifact.Groups {
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
	if a, b := serial.Render(), parallel.Render(); a != b {
		t.Fatalf("rendered output differs across worker counts:\n%s\nvs\n%s", a, b)
	}
	for _, gb := range []results.GroupBy{results.ByRegion, results.ByChannel, results.ByRegionChannel} {
		ha, ra, err := serial.Artifact.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		hb, rb, err := parallel.Artifact.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ha, hb) || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%v: aggregate CSV differs across worker counts:\n%v\nvs\n%v", gb, ra, rb)
		}
		ja, err := serial.Artifact.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := parallel.Artifact.SummaryJSON(gb)
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
// contiguous seed-range shards — each serialized to an artifact file, as
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
	// ChipSummary staying slice-free is what the reflection walk pins
	// down.
	var c ChipSummary
	ty := reflect.TypeOf(c)
	for i := 0; i < ty.NumField(); i++ {
		if k := ty.Field(i).Type.Kind(); k == reflect.Slice || k == reflect.Map || k == reflect.Ptr {
			t.Errorf("ChipSummary.%s is a %s; per-chip summaries must stay fixed-size",
				ty.Field(i).Name, k)
		}
	}
	s := fleetStudy(t, 2, 9, 2)
	channels := config.SmallChip().Geometry.Channels
	if want := 3 * channels; len(s.Artifact.Groups) != want {
		t.Fatalf("%d fine groups, want %d", len(s.Artifact.Groups), want)
	}
}

func TestMultiChipRenderIncludesFleetAggregates(t *testing.T) {
	s := fleetStudy(t, 1, 3, 2)
	out := s.Render()
	for _, want := range []string{"chip-to-chip", "fleet aggregate", "first", "middle", "last", "BER%", "HCfirst"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	s.GroupBy = results.ByChannel
	out = s.Render()
	if !strings.Contains(out, "by channel") || !strings.Contains(out, "channel 0") {
		t.Errorf("channel-axis render missing channel groups:\n%s", out)
	}
}

func TestMultiChipAggregateExports(t *testing.T) {
	a := fleetStudy(t, 1, 3, 2).Artifact
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

// TestTypedDriversMatchRegistryArtifacts pins that the records the
// sweep and fig6 artifacts carry are the payloads their groups were
// folded from: refolding an artifact's records the way the registry
// folds them gives groups byte-identical to the artifact's own, and
// there is one record per swept row and per bank.
func TestTypedDriversMatchRegistryArtifacts(t *testing.T) {
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
