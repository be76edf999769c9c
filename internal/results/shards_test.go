package results

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/stats"
)

// pointArtifact builds a point-axis artifact over every point in points,
// with samples only for the job slice [lo, hi) — the shape a sharded
// setpoint study (tempsweep, rowpress) emits: the full group set with
// unmeasured groups left empty.
func pointArtifact(points []string, lo, hi int) *Artifact {
	a := &Artifact{
		Meta: Meta{
			Format:      FormatVersion,
			Tool:        "test-points",
			CodeVersion: "test-build",
			ConfigHash:  "deadbeef",
			GroupBy:     ByPoint.String(),
			ShardCount:  1,
			JobAxis:     "point",
			JobFirst:    lo,
			JobCount:    hi - lo,
			JobKeys:     append([]string{}, points[lo:hi]...),
			Params:      map[string]string{"rows": "4"},
		},
	}
	for _, p := range points {
		a.Groups = append(a.Groups, Group{
			Key:     Key{Channel: NoChannel, Point: p},
			Metrics: []Metric{{Name: "value", Stream: stats.NewStream(0, 100)}},
		})
	}
	for i := lo; i < hi; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		for k := 0; k < 4; k++ {
			a.Groups[i].Metrics[0].Stream.Add(rng.Float64() * 100)
		}
	}
	return a
}

var testPoints = []string{"t=55C", "t=65C", "t=75C", "t=85C", "t=95C"}

func TestPointShardMergeEqualsSingleRun(t *testing.T) {
	single := pointArtifact(testPoints, 0, 5)
	merged := pointArtifact(testPoints, 0, 2)
	for _, shard := range []*Artifact{pointArtifact(testPoints, 2, 3), pointArtifact(testPoints, 3, 5)} {
		if err := Merge(merged, shard); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Meta.JobFirst != 0 || merged.Meta.JobCount != 5 {
		t.Fatalf("merged job slice [%d,+%d)", merged.Meta.JobFirst, merged.Meta.JobCount)
	}
	if !reflect.DeepEqual(merged.Meta.JobKeys, testPoints) {
		t.Fatalf("merged job keys %v", merged.Meta.JobKeys)
	}
	if merged.Meta.Shard != 0 || merged.Meta.ShardCount != 1 {
		t.Fatalf("merged artifact not normalized: shard %d/%d", merged.Meta.Shard, merged.Meta.ShardCount)
	}
	js, err := single.SummaryJSON(ByPoint)
	if err != nil {
		t.Fatal(err)
	}
	jm, err := merged.SummaryJSON(ByPoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jm) {
		t.Fatalf("merged JSON differs from single run:\n%s\nvs\n%s", js, jm)
	}
	hs, rs, err := single.SummaryCSV(ByPoint)
	if err != nil {
		t.Fatal(err)
	}
	hm, rm, err := merged.SummaryCSV(ByPoint)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hs, hm) || !reflect.DeepEqual(rs, rm) {
		t.Fatalf("merged CSV differs from single run")
	}
	if hs[0] != "point" {
		t.Fatalf("point CSV key column %q", hs[0])
	}
}

func TestPointShardMergeConflicts(t *testing.T) {
	cases := map[string]struct {
		a, b    *Artifact
		wantErr string
	}{
		"same shard twice": {
			a: pointArtifact(testPoints, 0, 2), b: pointArtifact(testPoints, 0, 2),
			wantErr: "present in both",
		},
		"job gap": {
			a: pointArtifact(testPoints, 0, 2), b: pointArtifact(testPoints, 3, 5),
			wantErr: "not contiguous",
		},
		"descending order": {
			a: pointArtifact(testPoints, 2, 5), b: pointArtifact(testPoints, 0, 2),
			wantErr: "not contiguous",
		},
		"different chip": {
			a: pointArtifact(testPoints, 0, 2),
			b: func() *Artifact {
				b := pointArtifact(testPoints, 2, 5)
				b.Meta.ConfigHash = "cafef00d" // the seed is part of the config
				return b
			}(),
			wantErr: "different chip configs",
		},
		"axis skew": {
			a: pointArtifact(testPoints, 0, 2),
			b: func() *Artifact {
				b := pointArtifact(testPoints, 2, 5)
				b.Meta.JobAxis = "temp"
				return b
			}(),
			wantErr: "planning axes",
		},
	}
	for name, tc := range cases {
		err := Merge(tc.a, tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", name, err, tc.wantErr)
		}
	}
}

func TestExpandShardArgs(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"s1.json", "s0.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Directory: every .json inside, sorted.
	paths, err := ExpandShardArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("dir expansion %v, want %v", paths, want)
	}
	// Glob: matches sorted.
	paths, err = ExpandShardArgs([]string{filepath.Join(dir, "s*.json")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("glob expansion %v, want %v", paths, want)
	}
	// Literal path passes through untouched (even if missing; the reader
	// reports it with the file name).
	paths, err = ExpandShardArgs([]string{"missing.json"})
	if err != nil || !reflect.DeepEqual(paths, []string{"missing.json"}) {
		t.Fatalf("literal expansion %v, %v", paths, err)
	}
	// A glob matching nothing is an error naming the pattern.
	if _, err := ExpandShardArgs([]string{filepath.Join(dir, "z*.json")}); err == nil || !strings.Contains(err.Error(), "z*.json") {
		t.Fatalf("empty glob: %v", err)
	}
	// A directory with no artifacts is an error naming the directory.
	empty := t.TempDir()
	if _, err := ExpandShardArgs([]string{empty}); err == nil || !strings.Contains(err.Error(), empty) {
		t.Fatalf("empty dir: %v", err)
	}
}

func TestReadShardsNamesOffendingFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := pointArtifact(testPoints, 0, 2).WriteFile(good); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadShards([]string{good, bad}); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("want error naming bad.json, got %v", err)
	}
}

func TestMergeShardsOrderIndependent(t *testing.T) {
	write := func(dir string, lo, hi int, name string) string {
		path := filepath.Join(dir, name)
		if err := pointArtifact(testPoints, lo, hi).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dir := t.TempDir()
	p0 := write(dir, 0, 2, "a.json")
	p1 := write(dir, 2, 3, "b.json")
	p2 := write(dir, 3, 5, "c.json")
	// Shuffled argument order must not matter: MergeShards sorts by slice.
	shards, paths, err := ReadShards([]string{p2, p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeShards(shards, paths)
	if err != nil {
		t.Fatal(err)
	}
	single := pointArtifact(testPoints, 0, 5)
	js, _ := single.SummaryJSON(ByPoint)
	jm, err := merged.SummaryJSON(ByPoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jm) {
		t.Fatal("shuffled merge diverged from single run")
	}
	// A conflicting set names the offending file.
	shards, paths, err = ReadShards([]string{p0, p0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(shards, paths); err == nil || !strings.Contains(err.Error(), "a.json") {
		t.Fatalf("want error naming a.json, got %v", err)
	}
}

// FuzzShardRange pins the partition invariants for arbitrary inputs:
// valid (n, of) pairs cover [0, n) contiguously and disjointly with
// shard sizes differing by at most one, and degenerate inputs yield the
// empty range instead of panicking or escaping [0, n).
func FuzzShardRange(f *testing.F) {
	f.Add(32, 4)
	f.Add(5, 8) // n < of: some shards empty
	f.Add(0, 3)
	f.Add(-4, 2)
	f.Add(7, 0)
	f.Add(1, 1)
	f.Fuzz(func(t *testing.T, n, of int) {
		// Bound the work (and the n*of products) without losing shape
		// coverage.
		if n > 1<<12 {
			n = n % (1 << 12)
		}
		if of > 1<<8 {
			of = of % (1 << 8)
		}
		// Out-of-range shard indexes are empty, never panics.
		for _, s := range []int{-1, of, of + 3} {
			if lo, hi := ShardRange(n, s, of); lo != 0 || hi != 0 {
				t.Fatalf("ShardRange(%d, %d, %d) = [%d,%d), want empty", n, s, of, lo, hi)
			}
		}
		if of < 1 || n < 0 {
			if lo, hi := ShardRange(n, 0, of); lo != 0 || hi != 0 {
				t.Fatalf("degenerate ShardRange(%d, 0, %d) = [%d,%d), want empty", n, of, lo, hi)
			}
			return
		}
		prevHi := 0
		minSize, maxSize := n+1, -1
		for s := 0; s < of; s++ {
			lo, hi := ShardRange(n, s, of)
			if lo != prevHi {
				t.Fatalf("n=%d of=%d: shard %d = [%d,%d), previous ended at %d", n, of, s, lo, hi, prevHi)
			}
			if hi < lo {
				t.Fatalf("n=%d of=%d: shard %d inverted [%d,%d)", n, of, s, lo, hi)
			}
			size := hi - lo
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			prevHi = hi
		}
		if prevHi != n {
			t.Fatalf("n=%d of=%d: shards cover [0,%d), want [0,%d)", n, of, prevHi, n)
		}
		if of <= n && minSize == 0 {
			t.Fatalf("n=%d of=%d: empty shard despite n >= of", n, of)
		}
		if maxSize-minSize > 1 {
			t.Fatalf("n=%d of=%d: shard sizes span %d..%d", n, of, minSize, maxSize)
		}
	})
}

func TestParseShardFlag(t *testing.T) {
	if s, of, err := ParseShardFlag(""); s != 0 || of != 0 || err != nil {
		t.Fatalf("empty flag: %d/%d, %v", s, of, err)
	}
	if s, of, err := ParseShardFlag("2/8"); s != 2 || of != 8 || err != nil {
		t.Fatalf("2/8: %d/%d, %v", s, of, err)
	}
	for _, bad := range []string{"junk", "1/", "/4", "4/4", "-1/4", "0/0", "01/4", "1/4x"} {
		if _, _, err := ParseShardFlag(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// canonicalShard is an independent oracle for ParseShardFlag's accepted
// language: decimal I/N without signs, spaces or leading zeros.
var canonicalShard = regexp.MustCompile(`^(0|[1-9][0-9]*)/([1-9][0-9]*)$`)

// FuzzShardFlag pins the -shard trust boundary: ParseShardFlag never
// panics, accepts exactly the canonical I/N with 0 <= I < N (plus "" for
// unsharded), and every accepted value round-trips through "%d/%d". The
// seed corpus lives in testdata/fuzz/FuzzShardFlag.
func FuzzShardFlag(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		shard, of, err := ParseShardFlag(s)
		if s == "" {
			if shard != 0 || of != 0 || err != nil {
				t.Fatalf("empty flag = %d/%d, %v; want unsharded", shard, of, err)
			}
			return
		}
		want := false
		if m := canonicalShard.FindStringSubmatch(s); m != nil {
			i, errI := strconv.Atoi(m[1])
			n, errN := strconv.Atoi(m[2])
			want = errI == nil && errN == nil && i < n
		}
		if err != nil {
			if want {
				t.Fatalf("canonical %q rejected: %v", s, err)
			}
			return
		}
		if !want {
			t.Fatalf("non-canonical %q accepted as %d/%d", s, shard, of)
		}
		if shard < 0 || shard >= of {
			t.Fatalf("%q accepted out of range: %d/%d", s, shard, of)
		}
		if got := fmt.Sprintf("%d/%d", shard, of); got != s {
			t.Fatalf("%q parsed as %d/%d, which prints as %q", s, shard, of, got)
		}
	})
}

// TestMergeAppendsRecordsInJobOrder pins the record half of a merge:
// the row, bank and TRR records of contiguous job slices concatenate in job
// order, so the merged records equal those of one run over the union,
// and a merge into a Clone leaves the cloned artifact's records alone.
func TestMergeAppendsRecordsInJobOrder(t *testing.T) {
	points := []string{"ch0", "ch1", "ch2"}
	withRecords := func(lo, hi int) *Artifact {
		a := pointArtifact(points, lo, hi)
		for i := lo; i < hi; i++ {
			a.Rows = append(a.Rows, RowRecord{Channel: i, PhysRow: 10 + i, Region: "first",
				BER: []float64{0.25}, HCFirst: []int{100 * i}, Found: []bool{true}, SubarraySize: 8})
			a.Banks = append(a.Banks, BankRecord{Channel: i, MeanBER: float64(i)})
			a.TRR = append(a.TRR, TRRRecord{Channel: i, Row: 256 + i, Refreshed: []bool{i == 1}})
		}
		return a
	}
	want := withRecords(0, 3)
	first := withRecords(0, 1)
	merged := first.Clone()
	for _, s := range []*Artifact{withRecords(1, 2), withRecords(2, 3)} {
		if err := Merge(merged, s); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(merged.Rows, want.Rows) || !reflect.DeepEqual(merged.Banks, want.Banks) || !reflect.DeepEqual(merged.TRR, want.TRR) {
		t.Fatalf("merged records\n%+v\n%+v\n%+v\ndiffer from the single run's\n%+v\n%+v\n%+v",
			merged.Rows, merged.Banks, merged.TRR, want.Rows, want.Banks, want.TRR)
	}
	if len(first.Rows) != 1 || len(first.Banks) != 1 || len(first.TRR) != 1 {
		t.Fatalf("merging into a clone grew the original: %d rows, %d banks, %d TRR runs",
			len(first.Rows), len(first.Banks), len(first.TRR))
	}
}
