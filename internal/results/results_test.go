package results

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/stats"
)

// fineArtifact builds a region×channel artifact over the given seed range
// with deterministic pseudo-samples, shaped like a multichip shard.
func fineArtifact(seedFirst uint64, seedCount int) *Artifact {
	regions := []string{"first", "middle", "last"}
	const channels = 4
	a := &Artifact{
		Meta: Meta{
			Format:      FormatVersion,
			Tool:        "test",
			CodeVersion: "test-build",
			ConfigHash:  "deadbeef",
			GroupBy:     ByRegionChannel.String(),
			SeedFirst:   seedFirst,
			SeedCount:   seedCount,
			ShardCount:  1,
			Params:      map[string]string{"rows": "4"},
		},
	}
	for _, r := range regions {
		for ch := 0; ch < channels; ch++ {
			a.Groups = append(a.Groups, Group{
				Key: Key{Region: r, Channel: ch},
				Metrics: []Metric{
					{Name: "ber", Stream: stats.NewStream(0, 1)},
					{Name: "hc", Stream: stats.NewStream(0, 1000)},
				},
			})
		}
	}
	for s := seedFirst; s < seedFirst+uint64(seedCount); s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		for gi := range a.Groups {
			for k := 0; k < 5; k++ {
				a.Groups[gi].Metrics[0].Stream.Add(rng.Float64())
				a.Groups[gi].Metrics[1].Stream.Add(rng.Float64() * 1000)
			}
		}
		a.Chips = append(a.Chips, ChipRecord{Seed: s, MinHCFirst: int(s * 7), WCDPRatio: 1.5})
	}
	return a
}

func TestArtifactMergeEqualsSingleRun(t *testing.T) {
	single := fineArtifact(10, 8)
	merged := fineArtifact(10, 2)
	for _, shard := range []*Artifact{fineArtifact(12, 3), fineArtifact(15, 3)} {
		if err := Merge(merged, shard); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Meta.SeedFirst != 10 || merged.Meta.SeedCount != 8 {
		t.Fatalf("merged range [%d,+%d)", merged.Meta.SeedFirst, merged.Meta.SeedCount)
	}
	if merged.Meta.Shard != 0 || merged.Meta.ShardCount != 1 {
		t.Fatalf("merged artifact not normalized: shard %d/%d", merged.Meta.Shard, merged.Meta.ShardCount)
	}
	for _, gb := range []GroupBy{ByRegion, ByChannel, ByRegionChannel} {
		hs, rs, err := single.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		hm, rm, err := merged.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hs, hm) || !reflect.DeepEqual(rs, rm) {
			t.Errorf("%v: merged CSV differs from single run:\n%v\nvs\n%v", gb, rs, rm)
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
			t.Errorf("%v: merged JSON differs from single run:\n%s\nvs\n%s", gb, js, jm)
		}
	}
}

func TestArtifactMergeConflicts(t *testing.T) {
	base := func() *Artifact { return fineArtifact(0, 2) }
	next := func() *Artifact { return fineArtifact(2, 2) }
	cases := map[string]func(a, b *Artifact){
		"format skew":     func(a, b *Artifact) { b.Meta.Format = FormatVersion + 1 },
		"tool mismatch":   func(a, b *Artifact) { b.Meta.Tool = "other" },
		"code mismatch":   func(a, b *Artifact) { b.Meta.CodeVersion = "other-build" },
		"config mismatch": func(a, b *Artifact) { b.Meta.ConfigHash = "feedface" },
		"axis mismatch":   func(a, b *Artifact) { b.Meta.GroupBy = ByRegion.String() },
		"param mismatch":  func(a, b *Artifact) { b.Meta.Params["rows"] = "8" },
		"param missing":   func(a, b *Artifact) { delete(b.Meta.Params, "rows") },
		"seed gap":        func(a, b *Artifact) { b.Meta.SeedFirst = 5 },
		"seed overlap": func(a, b *Artifact) {
			b.Meta.SeedFirst = 1
			b.Chips[0].Seed = 1
		},
		"group key skew": func(a, b *Artifact) { b.Groups[0].Key.Channel = 9 },
		"metric skew":    func(a, b *Artifact) { b.Groups[0].Metrics[0].Name = "other" },
		"stream domain skew": func(a, b *Artifact) {
			b.Groups[0].Metrics[0].Stream = stats.NewStream(0, 2)
		},
	}
	for name, corrupt := range cases {
		a, b := base(), next()
		corrupt(a, b)
		if err := Merge(a, b); err == nil {
			t.Errorf("%s: merge succeeded", name)
		}
	}
	// Control: the uncorrupted pair merges.
	if err := Merge(base(), next()); err != nil {
		t.Fatalf("control merge failed: %v", err)
	}
}

func TestArtifactViewsDeriveFromFineAxis(t *testing.T) {
	a := fineArtifact(3, 4)
	region, err := a.View(ByRegion)
	if err != nil {
		t.Fatal(err)
	}
	if len(region) != 3 {
		t.Fatalf("%d region groups", len(region))
	}
	if region[0].Key != (Key{Region: "first", Channel: NoChannel}) {
		t.Fatalf("region view key %v", region[0].Key)
	}
	channel, err := a.View(ByChannel)
	if err != nil {
		t.Fatal(err)
	}
	if len(channel) != 4 {
		t.Fatalf("%d channel groups", len(channel))
	}
	if channel[2].Key != (Key{Channel: 2}) {
		t.Fatalf("channel view key %v", channel[2].Key)
	}
	fine, err := a.View(ByRegionChannel)
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) != 12 {
		t.Fatalf("%d fine groups", len(fine))
	}
	// Conservation: every view accounts for every sample.
	total := 0
	for _, g := range fine {
		total += g.Metrics[0].Stream.N()
	}
	for _, view := range [][]Group{region, channel} {
		n := 0
		for _, g := range view {
			n += g.Metrics[0].Stream.N()
		}
		if n != total {
			t.Fatalf("view lost samples: %d vs %d", n, total)
		}
	}
	// Views clone: mutating a view must not corrupt the artifact.
	region[0].Metrics[0].Stream.Add(0.5)
	region2, err := a.View(ByRegion)
	if err != nil {
		t.Fatal(err)
	}
	if region2[0].Metrics[0].Stream.N() == region[0].Metrics[0].Stream.N() {
		t.Fatal("view aliases artifact streams")
	}
}

func TestArtifactFileRoundTrip(t *testing.T) {
	a := fineArtifact(1, 3)
	path := filepath.Join(t.TempDir(), "shard.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("artifact file round trip drifted:\n%+v\nvs\n%+v", a, b)
	}
	// Merging decoded artifacts must behave like merging the originals.
	c := fineArtifact(4, 3)
	if err := Merge(b, c); err != nil {
		t.Fatal(err)
	}
	direct := fineArtifact(1, 3)
	if err := Merge(direct, fineArtifact(4, 3)); err != nil {
		t.Fatal(err)
	}
	js1, err := b.SummaryJSON(ByRegionChannel)
	if err != nil {
		t.Fatal(err)
	}
	js2, err := direct.SummaryJSON(ByRegionChannel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("merge-after-decode diverged from direct merge")
	}
}

func TestArtifactDecodeRejectsBadPayloads(t *testing.T) {
	a := fineArtifact(0, 1)
	good, err := a.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"not json":     []byte("not json"),
		"format skew":  bytes.Replace(good, []byte(fmt.Sprintf(`"format": %d`, FormatVersion)), []byte(`"format": 99`), 1),
		"bad axis":     bytes.Replace(good, []byte(`"group_by": "region-channel"`), []byte(`"group_by": "bank"`), 1),
		"stream skew":  bytes.Replace(good, []byte(`"v": 1`), []byte(`"v": 9`), 1),
		"truncated":    good[:len(good)/2],
		"empty object": []byte("{}"),
	} {
		if bytes.Equal(data, good) {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
}

func TestShardRangeCoversAllSeedsExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, of int }{{32, 4}, {33, 4}, {5, 8}, {1, 1}, {100, 7}} {
		covered := make([]int, tc.n)
		prevHi := 0
		for s := 0; s < tc.of; s++ {
			lo, hi := ShardRange(tc.n, s, tc.of)
			if lo != prevHi {
				t.Fatalf("n=%d of=%d: shard %d starts at %d, previous ended at %d", tc.n, tc.of, s, lo, prevHi)
			}
			prevHi = hi
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}
		if prevHi != tc.n {
			t.Fatalf("n=%d of=%d: shards end at %d", tc.n, tc.of, prevHi)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d of=%d: seed %d covered %d times", tc.n, tc.of, i, c)
			}
		}
	}
}

func TestGroupByParseRoundTrip(t *testing.T) {
	for _, gb := range []GroupBy{ByRegion, ByChannel, ByRegionChannel, ByPoint} {
		got, err := ParseGroupBy(gb.String())
		if err != nil || got != gb {
			t.Errorf("ParseGroupBy(%q) = %v, %v", gb.String(), got, err)
		}
	}
	if _, err := ParseGroupBy("bank"); err == nil {
		t.Error("unknown axis accepted")
	}
}

// FuzzParseGroupBy pins the -group-by trust boundary (flags and the
// stored Meta.GroupBy of every decoded artifact): ParseGroupBy never
// panics, and an accepted spelling is the canonical one — it is exactly
// what the parsed axis prints as, and that parses back to the same axis.
func FuzzParseGroupBy(f *testing.F) {
	for _, gb := range []GroupBy{ByRegion, ByChannel, ByRegionChannel, ByPoint} {
		f.Add(gb.String())
	}
	for _, s := range []string{"", "Region", "region ", "region-", "groupby(1)", "bank"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		gb, err := ParseGroupBy(s)
		if err != nil {
			return
		}
		if gb.String() != s {
			t.Fatalf("%q accepted as %v, which prints as %q", s, gb, gb.String())
		}
		if again, err := ParseGroupBy(gb.String()); err != nil || again != gb {
			t.Fatalf("%q: round trip gave %v, %v", s, again, err)
		}
	})
}

func TestKeyLabels(t *testing.T) {
	for _, tc := range []struct {
		key  Key
		want string
	}{
		{Key{Region: "first", Channel: NoChannel}, "region first"},
		{Key{Channel: 3}, "channel 3"},
		{Key{Region: "last", Channel: 7}, "region last ch7"},
		{Key{Channel: NoChannel, Point: "t=55C"}, "t=55C"},
	} {
		if got := tc.key.Label(); got != tc.want {
			t.Errorf("Label(%v) = %q, want %q", tc.key, got, tc.want)
		}
	}
}

func TestRenderGroupsScalesAndSkipsEmpty(t *testing.T) {
	g := []Group{{
		Key: Key{Region: "first", Channel: NoChannel},
		Metrics: []Metric{
			{Name: "ber", Stream: stats.NewStream(0, 1)},
			{Name: "hc", Stream: stats.NewStream(0, 10)},
		},
	}}
	g[0].Metrics[0].Stream.Add(0.5)
	out := RenderGroups(g,
		func(name string) string { return strings.ToUpper(name) },
		func(name string) float64 {
			if name == "ber" {
				return 100
			}
			return 1
		})
	if !strings.Contains(out, "BER") || !strings.Contains(out, "mean=50") {
		t.Fatalf("render missing scaled metric:\n%s", out)
	}
	if strings.Contains(out, "HC") {
		t.Fatalf("render includes empty metric:\n%s", out)
	}
}
