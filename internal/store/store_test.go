package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/safari-repro/hbmrh/internal/failpoint"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
)

// shard builds a region×channel shard artifact over a seed range with
// deterministic pseudo-samples, shaped like a multichip fleet shard.
func shard(seedFirst uint64, seedCount int) *results.Artifact {
	regions := []string{"first", "middle", "last"}
	const channels = 4
	a := &results.Artifact{
		Meta: results.Meta{
			Format:      results.FormatVersion,
			Tool:        "test",
			CodeVersion: "test-build",
			ConfigHash:  "deadbeef",
			GroupBy:     results.ByRegionChannel.String(),
			SeedFirst:   seedFirst,
			SeedCount:   seedCount,
			ShardCount:  1,
			Params:      map[string]string{"rows": "4"},
		},
	}
	for _, r := range regions {
		for ch := 0; ch < channels; ch++ {
			a.Groups = append(a.Groups, results.Group{
				Key: results.Key{Region: r, Channel: ch},
				Metrics: []results.Metric{
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
		a.Chips = append(a.Chips, results.ChipRecord{Seed: s, MinHCFirst: int(s * 7)})
	}
	return a
}

// jobShard builds a point-axis shard of one chip's sweep covering the
// job slice [first, first+count).
func jobShard(first, count int) *results.Artifact {
	a := &results.Artifact{
		Meta: results.Meta{
			Format:      results.FormatVersion,
			Tool:        "sweep",
			CodeVersion: "test-build",
			ConfigHash:  "deadbeef",
			GroupBy:     results.ByPoint.String(),
			SeedFirst:   7,
			SeedCount:   1,
			ShardCount:  1,
			JobAxis:     "point",
			JobFirst:    first,
			JobCount:    count,
		},
	}
	points := []string{"p0", "p1", "p2", "p3"}
	for _, p := range points {
		a.Groups = append(a.Groups, results.Group{
			Key:     results.Key{Channel: results.NoChannel, Point: p},
			Metrics: []results.Metric{{Name: "ber", Stream: stats.NewStream(0, 1)}},
		})
	}
	for j := first; j < first+count; j++ {
		a.Meta.JobKeys = append(a.Meta.JobKeys, points[j])
		a.Groups[j].Metrics[0].Stream.Add(float64(j) / 10)
	}
	return a
}

// ingestArtifact ingests a's file form, as ingesting its shard file does.
func ingestArtifact(s *Store, a *results.Artifact) (IngestResult, error) {
	data, err := a.MarshalIndented()
	if err != nil {
		return IngestResult{}, err
	}
	return s.Ingest(data)
}

func ingest(t *testing.T, s *Store, a *results.Artifact) IngestResult {
	t.Helper()
	r, err := ingestArtifact(s, a)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStoreMergeMatchesMergeShards(t *testing.T) {
	// Store-merged view of 4 shards must render byte-identically to the
	// direct MergeShards path over the same shards.
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	var gen uint64
	for i, a := range []*results.Artifact{shard(0, 2), shard(2, 3), shard(5, 1), shard(6, 2)} {
		r := ingest(t, s, a)
		if r.Gen <= gen {
			t.Fatalf("ingest %d did not advance generation: %d then %d", i, gen, r.Gen)
		}
		gen = r.Gen
	}
	snap, err := s.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Complete || snap.Pending != 0 || snap.Members != 4 {
		t.Fatalf("snapshot complete=%v pending=%d members=%d", snap.Complete, snap.Pending, snap.Members)
	}
	direct, err := results.MergeShards(
		[]*results.Artifact{shard(0, 2), shard(2, 3), shard(5, 1), shard(6, 2)},
		[]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	for _, gb := range []results.GroupBy{results.ByRegion, results.ByChannel, results.ByRegionChannel} {
		want, err := direct.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Merged.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%v: store render differs from direct merge:\n%s\nvs\n%s", gb, got, want)
		}
	}
}

func TestStoreOutOfOrderPending(t *testing.T) {
	s, _ := Open("")
	ingest(t, s, shard(0, 2))
	r := ingest(t, s, shard(5, 3)) // gap [2,5): accepted but pending
	if r.Complete || r.Pending != 1 {
		t.Fatalf("gapped shard: complete=%v pending=%d", r.Complete, r.Pending)
	}
	snap, _ := s.Resolve("")
	if snap.Merged.Meta.SeedCount != 2 {
		t.Fatalf("merged view covers [%d,+%d), want the contiguous prefix [0,+2)",
			snap.Merged.Meta.SeedFirst, snap.Merged.Meta.SeedCount)
	}
	r = ingest(t, s, shard(2, 3)) // closes the gap
	if !r.Complete || r.Pending != 0 {
		t.Fatalf("gap closed: complete=%v pending=%d", r.Complete, r.Pending)
	}
	snap, _ = s.Resolve("")
	if snap.Merged.Meta.SeedCount != 8 {
		t.Fatalf("merged view covers +%d seeds, want 8", snap.Merged.Meta.SeedCount)
	}
}

func TestStoreIngestIdempotent(t *testing.T) {
	s, _ := Open("")
	first := ingest(t, s, shard(0, 2))
	again := ingest(t, s, shard(0, 2))
	if !again.Duplicate {
		t.Fatal("identical bytes not reported as duplicate")
	}
	if again.Gen != first.Gen || again.StoreGen != first.StoreGen {
		t.Fatalf("duplicate ingest advanced generations: %d/%d then %d/%d",
			first.Gen, first.StoreGen, again.Gen, again.StoreGen)
	}
}

// TestStoreRejectsConflicts mirrors the results.Merge conflict matrix at
// ingest time: anything Merge would refuse, Ingest refuses up front, and
// the store (generations included) is left unchanged.
func TestStoreRejectsConflicts(t *testing.T) {
	cases := map[string]func() *results.Artifact{
		"code mismatch": func() *results.Artifact {
			b := shard(2, 2)
			b.Meta.CodeVersion = "other-build"
			return b
		},
		"axis mismatch": func() *results.Artifact {
			b := shard(2, 2)
			b.Meta.GroupBy = results.ByRegion.String()
			return b
		},
		"job axis mismatch": func() *results.Artifact {
			b := shard(2, 2)
			b.Meta.JobAxis = "channel"
			return b
		},
		"param mismatch": func() *results.Artifact {
			b := shard(2, 2)
			b.Meta.Params["rows"] = "8"
			return b
		},
		"group key skew": func() *results.Artifact {
			b := shard(2, 2)
			b.Groups[0].Key.Channel = 9
			return b
		},
		"metric skew": func() *results.Artifact {
			b := shard(2, 2)
			b.Groups[0].Metrics[0].Name = "other"
			return b
		},
		"stream domain skew": func() *results.Artifact {
			b := shard(2, 2)
			b.Groups[0].Metrics[0].Stream = stats.NewStream(0, 2)
			return b
		},
		"seed overlap": func() *results.Artifact { return shard(1, 2) },
		"duplicate chip seed": func() *results.Artifact {
			b := shard(2, 2)
			b.Chips[0].Seed = 0 // collides with shard(0,2)'s chip
			return b
		},
	}
	for name, make := range cases {
		t.Run(name, func(t *testing.T) {
			s, _ := Open("")
			base := ingest(t, s, shard(0, 2))
			if _, err := ingestArtifact(s, make()); !errors.Is(err, ErrConflict) {
				t.Fatalf("%s: got %v, want an ErrConflict rejection", name, err)
			}
			if g := s.Generation(); g != base.StoreGen {
				t.Fatalf("rejected ingest advanced store generation %d -> %d", base.StoreGen, g)
			}
			snap, err := s.Resolve("")
			if err != nil {
				t.Fatal(err)
			}
			if snap.Members != 1 || snap.Gen != base.Gen {
				t.Fatalf("rejected ingest mutated corpus: members=%d gen=%d", snap.Members, snap.Gen)
			}
		})
	}
}

func TestStoreRejectsJobSliceConflicts(t *testing.T) {
	t.Run("key overlap", func(t *testing.T) {
		s, _ := Open("")
		ingest(t, s, jobShard(0, 2))
		b := jobShard(2, 2)
		b.Meta.JobKeys = []string{"p1", "p3"} // p1 already covered
		if _, err := ingestArtifact(s, b); err == nil || !strings.Contains(err.Error(), "present in both") {
			t.Fatalf("overlapping job keys accepted: %v", err)
		}
	})
	t.Run("slice overlap", func(t *testing.T) {
		s, _ := Open("")
		ingest(t, s, jobShard(0, 3))
		if _, err := ingestArtifact(s, jobShard(2, 2)); err == nil {
			t.Fatal("overlapping job slices accepted")
		}
	})
	t.Run("different seed range", func(t *testing.T) {
		s, _ := Open("")
		ingest(t, s, jobShard(0, 2))
		b := jobShard(2, 2)
		b.Meta.SeedFirst = 9
		if _, err := ingestArtifact(s, b); err == nil {
			t.Fatal("job shards of different seed ranges accepted")
		}
	})
	t.Run("contiguous slices merge", func(t *testing.T) {
		s, _ := Open("")
		ingest(t, s, jobShard(0, 2))
		r := ingest(t, s, jobShard(2, 2))
		if !r.Complete {
			t.Fatal("contiguous job shards left pending")
		}
		snap, _ := s.Resolve("")
		if snap.Merged.Meta.JobCount != 4 {
			t.Fatalf("merged job count %d, want 4", snap.Merged.Meta.JobCount)
		}
	})
}

func TestStoreSeparateCorpora(t *testing.T) {
	// Tool or config skew is not a conflict: such artifacts are different
	// studies and land in corpora of their own.
	s, _ := Open("")
	ingest(t, s, shard(0, 2))
	other := shard(0, 2)
	other.Meta.Tool = "other"
	ingest(t, s, other)
	cfg := shard(0, 2)
	cfg.Meta.ConfigHash = "feedface"
	ingest(t, s, cfg)
	if ids := s.Corpora(); len(ids) != 3 {
		t.Fatalf("corpora: %v, want 3 distinct", ids)
	}
	if _, err := s.Resolve(""); err == nil {
		t.Fatal("empty key resolved despite multiple corpora")
	}
	if snap, err := s.Resolve("other-"); err != nil || snap.Corpus != "other-deadbeef" {
		t.Fatalf("prefix resolve: %v, %v", snap, err)
	}
	if _, err := s.Resolve("test-dead"); err != nil {
		t.Fatalf("unique prefix rejected: %v", err)
	}
	if _, err := s.Resolve("nope"); err == nil {
		t.Fatal("unknown key resolved")
	}
}

// TestStoreQuarantineCorruptObject damages one persisted object and
// reopens: the store must move it to objects/quarantine/, report it, and
// keep serving the intact corpus — and a re-ingest of the lost shard
// must restore the full merge (content addressing self-heals).
func TestStoreQuarantineCorruptObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, shard(0, 2))
	ingest(t, s, shard(2, 3))
	want, err := s.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.Merged.SummaryJSON(results.ByChannel)
	if err != nil {
		t.Fatal(err)
	}

	// Tear one object mid-file, the wreckage a crash during writeObject
	// leaves behind.
	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*.json"))
	if err != nil || len(objects) != 2 {
		t.Fatalf("objects on disk: %v (err %v), want 2", objects, err)
	}
	sort.Strings(objects)
	victim := objects[0]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("open with a corrupt object must degrade, not fail: %v", err)
	}
	q := re.Quarantined()
	if len(q) != 1 || q[0].File != filepath.Base(victim) || q[0].Reason == "" {
		t.Fatalf("quarantined %+v, want exactly the torn object with a reason", q)
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", "quarantine", filepath.Base(victim))); err != nil {
		t.Fatalf("torn object not moved into objects/quarantine/: %v", err)
	}
	snap, err := re.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Members != 1 {
		t.Fatalf("degraded store serves %d member(s), want the 1 intact shard", snap.Members)
	}

	// Re-ingesting the shards heals the corpus back to full strength:
	// the survivor dedups, the quarantined one is restored. (Which of the
	// two objects was torn depends on hash order, so replay both.)
	ingest(t, re, shard(0, 2))
	ingest(t, re, shard(2, 3))
	healed, err := re.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if healed.Members != 2 || !healed.Complete {
		t.Fatalf("after re-ingest: members=%d complete=%v", healed.Members, healed.Complete)
	}
	gotJSON, err := healed.Merged.SummaryJSON(results.ByChannel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Error("healed store renders different bytes than before the damage")
	}

	// The quarantine directory must not be replayed as objects on the
	// next open.
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Quarantined()) != 0 {
		t.Fatalf("clean reopen still quarantines: %+v", again.Quarantined())
	}
	if snap, err := again.Resolve(""); err != nil || snap.Members != 2 {
		t.Fatalf("clean reopen: members=%d err=%v, want 2", snap.Members, err)
	}
}

// TestStoreQuarantineMisnamedObject renames a valid object to another
// address: replay must quarantine it as malformed, with a reason naming
// both the file's hash and the content's, and open the rest of the store.
func TestStoreQuarantineMisnamedObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	moved := ingest(t, s, shard(0, 2)).Hash
	kept := ingest(t, s, shard(2, 3)).Hash
	objects := filepath.Join(dir, "objects")
	sum := sha256.Sum256([]byte("some other object"))
	wrong := hex.EncodeToString(sum[:])
	if err := os.Rename(filepath.Join(objects, moved+".json"), filepath.Join(objects, wrong+".json")); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("open with a misnamed object must degrade, not fail: %v", err)
	}
	q := re.Quarantined()
	if len(q) != 1 || q[0].File != wrong+".json" {
		t.Fatalf("quarantined %+v, want exactly the misnamed object", q)
	}
	if !strings.Contains(q[0].Reason, wrong) || !strings.Contains(q[0].Reason, moved) {
		t.Errorf("quarantine reason %q does not name both hashes", q[0].Reason)
	}
	if _, err := os.Stat(filepath.Join(objects, "quarantine", wrong+".json")); err != nil {
		t.Fatalf("misnamed object not moved into objects/quarantine/: %v", err)
	}
	snap, err := re.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Members != 1 {
		t.Fatalf("store serves %d member(s), want the 1 correctly named shard", snap.Members)
	}
	if _, err := os.Stat(filepath.Join(objects, kept+".json")); err != nil {
		t.Fatalf("correctly named object moved: %v", err)
	}
	// The object's class is ErrMalformed, the class a live ingest of
	// undecodable bytes gets.
	if _, err := new(replayBuffers).prepareObject(filepath.Join(objects, "quarantine"), wrong+".json"); !errors.Is(err, ErrMalformed) {
		t.Errorf("misnamed object error %v, want ErrMalformed", err)
	}
}

// checkMembersPristine asserts that every member's artifact still
// re-encodes to its object hash: nothing the store did after a shard's
// one decode — folds, clones, rebuilds, conflict checks — mutated it.
func checkMembersPristine(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, c := range s.corpora {
		for _, m := range c.members {
			buf, err := m.art.MarshalIndented()
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(buf); hex.EncodeToString(sum[:]) != m.hash {
				t.Fatalf("corpus %s: member %.12s was mutated after ingest", id, m.hash)
			}
		}
	}
}

// TestStoreIncrementalMatchesFullRebuild is the differential property
// behind the incremental merge: for EVERY arrival permutation of a shard
// set, the store's pending count after every single ingest is the one
// the arrived shards imply, and its merged view is byte-identical to
// results.MergeShards (the `characterize merge` path) over the
// contiguous run of arrived shards that starts at the lowest one — the
// full rebuild the incremental advance replaces. Runs on both sharding
// regimes (seed-axis fleet shards, job-slice sweep shards). After every
// ingest, every member artifact must still re-encode to its object hash:
// members are decoded once and shared by every later fold, so any fold
// that wrote into one would corrupt the views that follow.
func TestStoreIncrementalMatchesFullRebuild(t *testing.T) {
	type regime struct {
		name   string
		shards []*results.Artifact // contiguous, in canonical order
	}
	var seedShards []*results.Artifact
	for first, count := uint64(0), 0; first < 9; first += uint64(count) {
		count = int(first%3) + 1 // sizes 1..3, deterministic
		seedShards = append(seedShards, shard(first, count))
	}
	var jobShards []*results.Artifact
	for j := 0; j < 4; j++ {
		jobShards = append(jobShards, jobShard(j, 1))
	}
	for _, reg := range []regime{{"seed-axis", seedShards}, {"job-axis", jobShards}} {
		t.Run(reg.name, func(t *testing.T) {
			blobs := make([][]byte, len(reg.shards))
			fresh := make([]*results.Artifact, len(reg.shards))
			for i, a := range reg.shards {
				buf, err := a.MarshalIndented()
				if err != nil {
					t.Fatal(err)
				}
				blobs[i] = buf
				if fresh[i], err = results.Decode(buf); err != nil {
					t.Fatal(err)
				}
			}
			// mergeRun is the reference view: MergeShards over clones of
			// the given shard indices (MergeShards consumes its inputs).
			mergeRun := func(idx []int) []byte {
				t.Helper()
				shards := make([]*results.Artifact, len(idx))
				paths := make([]string, len(idx))
				for i, si := range idx {
					shards[i], paths[i] = fresh[si].Clone(), "shard"+string(rune('a'+si))
				}
				m, err := results.MergeShards(shards, paths)
				if err != nil {
					t.Fatal(err)
				}
				buf, err := m.MarshalIndented()
				if err != nil {
					t.Fatal(err)
				}
				return buf
			}
			all := make([]int, len(reg.shards))
			for i := range all {
				all[i] = i
			}
			want := mergeRun(all)

			rng := rand.New(rand.NewSource(0xC0FFEE))
			perms := [][]int{rng.Perm(len(blobs))} // plus identity and reverse below
			ident := make([]int, len(blobs))
			rev := make([]int, len(blobs))
			for i := range ident {
				ident[i], rev[i] = i, len(blobs)-1-i
			}
			perms = append(perms, ident, rev)
			for len(perms) < 8 {
				perms = append(perms, rng.Perm(len(blobs)))
			}

			for pi, perm := range perms {
				// Byte-compare against the reference after EVERY ingest on
				// the first few permutations; the rest pin the pending count
				// at every step and the final bytes — the per-step invariant
				// is order-insensitive, so a few permutations of full
				// coverage plus many of final coverage buys the property
				// without a quadratic test bill.
				stepwise := pi < 3
				st, _ := Open("")
				arrived := make([]bool, len(blobs))
				for step, si := range perm {
					r, err := st.Ingest(blobs[si])
					if err != nil {
						t.Fatalf("perm %d step %d: ingest: %v", pi, step, err)
					}
					checkMembersPristine(t, st)
					arrived[si] = true
					var members []int // arrived shards in canonical order
					for i, ok := range arrived {
						if ok {
							members = append(members, i)
						}
					}
					run := 1 // the contiguous run from the lowest member
					for run < len(members) && members[run] == members[run-1]+1 {
						run++
					}
					if pending := len(members) - run; r.Pending != pending || r.Complete != (pending == 0) {
						t.Fatalf("perm %d (%v) step %d: pending %d complete %v, want pending %d",
							pi, perm, step, r.Pending, r.Complete, pending)
					}
					if !stepwise {
						continue
					}
					snap, err := st.Resolve("")
					if err != nil {
						t.Fatal(err)
					}
					got, err := snap.Merged.MarshalIndented()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, mergeRun(members[:run])) {
						t.Fatalf("perm %d (%v) step %d: incremental view diverges from MergeShards over %v",
							pi, perm, step, members[:run])
					}
				}
				snap, err := st.Resolve("")
				if err != nil {
					t.Fatal(err)
				}
				if !snap.Complete {
					t.Fatalf("perm %d: corpus incomplete after all shards", pi)
				}
				got, err := snap.Merged.MarshalIndented()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("perm %d (%v): final view differs from direct MergeShards", pi, perm)
				}
			}
		})
	}
}

// TestStoreMergeFailureKeepsPreviousView pins the degraded error path: a
// merge failure after the object was persisted must leave the previous
// sealed view served, quarantine the accepted object (so a replay cannot
// resurrect it unchecked), and heal on a clean re-ingest.
func TestStoreMergeFailureKeepsPreviousView(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := ingest(t, s, shard(0, 2))
	before, err := s.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	beforeBytes, err := before.Merged.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}

	if err := failpoint.Arm("store/merge=error@1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.Reset)
	if _, err := ingestArtifact(s, shard(2, 3)); err == nil {
		t.Fatal("ingest with injected merge failure succeeded")
	}

	// Previous view still served, generations untouched.
	snap, err := s.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Members != 1 || snap.Gen != base.Gen || s.Generation() != base.StoreGen {
		t.Fatalf("failed merge mutated corpus: members=%d gen=%d storegen=%d", snap.Members, snap.Gen, s.Generation())
	}
	got, err := snap.Merged.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, beforeBytes) {
		t.Fatal("served view changed across a failed merge")
	}

	// The persisted object went to quarantine — degraded, recorded.
	q := s.Quarantined()
	if len(q) != 1 || q[0].Reason == "" {
		t.Fatalf("quarantined %+v, want exactly the failed object with a reason", q)
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", "quarantine", q[0].File)); err != nil {
		t.Fatalf("failed object not moved into objects/quarantine/: %v", err)
	}
	live, err := filepath.Glob(filepath.Join(dir, "objects", "*.json"))
	if err != nil || len(live) != 1 {
		t.Fatalf("live objects after failed merge: %v (err %v), want only the first shard", live, err)
	}

	// Clean re-ingest self-heals: the failpoint is spent, the same bytes
	// are accepted, and the reopened store replays to the same state.
	if r := ingest(t, s, shard(2, 3)); !r.Complete {
		t.Fatal("re-ingest after failed merge left corpus incomplete")
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Quarantined()) != 0 {
		t.Fatalf("reopen after heal still quarantines: %+v", re.Quarantined())
	}
	if snap, err := re.Resolve(""); err != nil || snap.Members != 2 || !snap.Complete {
		t.Fatalf("reopened store: members=%d complete=%v err=%v", snap.Members, snap.Complete, err)
	}

	// In-memory stores record the quarantine too (no file to move).
	mem, _ := Open("")
	ingest(t, mem, shard(0, 2))
	if err := failpoint.Arm("store/merge=error@1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestArtifact(mem, shard(2, 3)); err == nil {
		t.Fatal("in-memory ingest with injected merge failure succeeded")
	}
	if q := mem.Quarantined(); len(q) != 1 {
		t.Fatalf("in-memory store recorded %d quarantined objects, want 1", len(q))
	}
}

func TestStorePersistenceReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, shard(0, 2))
	ingest(t, s, shard(5, 1)) // pending across the reload too
	ingest(t, s, shard(2, 3))
	before, err := s.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := before.Merged.SummaryJSON(results.ByChannel)
	if err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	after, err := re.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if !after.Complete || after.Members != 3 {
		t.Fatalf("reload: complete=%v members=%d", after.Complete, after.Members)
	}
	gotJSON, err := after.Merged.SummaryJSON(results.ByChannel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Error("reloaded store renders different bytes")
	}
	// Replayed duplicates stay idempotent.
	if r := ingest(t, re, shard(0, 2)); !r.Duplicate {
		t.Fatal("reloaded store does not recognize its own object")
	}
}

// copyDir copies a store directory tree (objects and any subdirectories).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// openWithProcs opens dir with GOMAXPROCS set to procs for the replay.
func openWithProcs(t *testing.T, dir string, procs int) *Store {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreParallelReplayMatchesSerial pins that replay's parallel
// prepare changes nothing observable: a directory of 24 shards in two
// corpora (one with a gap, so members replay as pending), plus a torn
// object and a conflicting one, opens to identical quarantine records,
// corpora, generations and renders under GOMAXPROCS 1 and 4.
func TestStoreParallelReplayMatchesSerial(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 17; i++ {
		if i != 7 { // leaves the gap [14,16): shards past it stay pending
			ingest(t, s, shard(2*i, 2))
		}
	}
	for i := uint64(0); i < 8; i++ {
		other := shard(i, 1)
		other.Meta.ConfigHash = "feedface"
		ingest(t, s, other)
	}
	objects := filepath.Join(src, "objects")
	names, err := filepath.Glob(filepath.Join(objects, "*.json"))
	if err != nil || len(names) != 24 {
		t.Fatalf("objects on disk: %d (err %v), want 24", len(names), err)
	}
	sort.Strings(names)
	torn := names[len(names)/2]
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// The conflicting object overlaps two stored shards, [2k,2k+2) and
	// [2k+2,2k+4). Replay admits objects in address (hash) order and the
	// first of two conflicting objects wins, so take the first k whose
	// overlap sorts after both shards it overlaps, neither of them torn:
	// the overlap is then the object quarantined as conflicting, whatever
	// the encoding hashes to.
	object := func(a *results.Artifact) (string, []byte) {
		data, err := a.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return filepath.Join(objects, hex.EncodeToString(sum[:])+".json"), data
	}
	overlapPath := ""
	var overlap []byte
	for k := uint64(0); k < 16 && overlap == nil; k++ {
		if k == 6 || k == 7 {
			continue // [14,16) is the gap
		}
		lo, _ := object(shard(2*k, 2))
		hi, _ := object(shard(2*k+2, 2))
		if path, data := object(shard(2*k+1, 2)); lo != torn && hi != torn && path > lo && path > hi {
			overlapPath, overlap = path, data
		}
	}
	if overlap == nil {
		t.Fatal("no overlapping shard sorts after both shards it overlaps")
	}
	if err := os.WriteFile(overlapPath, overlap, 0o644); err != nil {
		t.Fatal(err)
	}

	serialDir, parallelDir := t.TempDir(), t.TempDir()
	copyDir(t, src, serialDir)
	copyDir(t, src, parallelDir)
	serial := openWithProcs(t, serialDir, 1)
	parallel := openWithProcs(t, parallelDir, 4)

	if q := serial.Quarantined(); len(q) != 2 {
		t.Fatalf("serial replay quarantined %+v, want the torn and the conflicting object", q)
	}
	if !reflect.DeepEqual(serial.Quarantined(), parallel.Quarantined()) {
		t.Fatalf("quarantine differs:\nserial   %+v\nparallel %+v", serial.Quarantined(), parallel.Quarantined())
	}
	if !reflect.DeepEqual(serial.Corpora(), parallel.Corpora()) || len(serial.Corpora()) != 2 {
		t.Fatalf("corpora differ: serial %v, parallel %v", serial.Corpora(), parallel.Corpora())
	}
	if serial.Generation() != parallel.Generation() {
		t.Fatalf("store generation: serial %d, parallel %d", serial.Generation(), parallel.Generation())
	}
	for _, id := range serial.Corpora() {
		a, _ := serial.Snapshot(id)
		b, _ := parallel.Snapshot(id)
		if a.Gen != b.Gen || a.Members != b.Members || a.Pending != b.Pending || a.Complete != b.Complete {
			t.Fatalf("%s: serial gen=%d members=%d pending=%d, parallel gen=%d members=%d pending=%d",
				id, a.Gen, a.Members, a.Pending, b.Gen, b.Members, b.Pending)
		}
		gb, err := results.ParseGroupBy(a.Meta.GroupBy)
		if err != nil {
			t.Fatal(err)
		}
		ja, err := a.Merged.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := b.Merged.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: SummaryJSON differs between serial and parallel replay", id)
		}
		ha, ra, err := a.Merged.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		hb, rb, err := b.Merged.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ha, hb) || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s: SummaryCSV differs between serial and parallel replay", id)
		}
	}
}

// TestStoreReplayBuffersNotAliased opens a directory of far more objects
// than replay's lookahead window, of several sizes, at GOMAXPROCS 4: each
// worker reads and encodes many objects into the same two buffers, a
// shorter object over a longer one's bytes. Every member must still
// re-encode to its address, so no decoded artifact shares a worker's
// buffer, and the store must equal a serial replay of the same directory.
func TestStoreReplayBuffersNotAliased(t *testing.T) {
	const procs = 4
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	for i := 0; i < 5*procs; i++ {
		n := 1 + i%3
		ingest(t, s, shard(seed, n))
		seed += uint64(n)
	}
	parallel := openWithProcs(t, dir, procs)
	checkMembersPristine(t, parallel)
	serial := openWithProcs(t, dir, 1)
	if q := append(serial.Quarantined(), parallel.Quarantined()...); len(q) != 0 {
		t.Fatalf("replay quarantined %+v", q)
	}
	if !reflect.DeepEqual(serial.Corpora(), parallel.Corpora()) || serial.Generation() != parallel.Generation() {
		t.Fatalf("serial replay: corpora %v at generation %d; parallel: %v at %d",
			serial.Corpora(), serial.Generation(), parallel.Corpora(), parallel.Generation())
	}
	for _, id := range serial.Corpora() {
		a, _ := serial.Snapshot(id)
		b, _ := parallel.Snapshot(id)
		if a.Gen != b.Gen || a.Members != b.Members || a.Pending != b.Pending || a.Members != 5*procs {
			t.Fatalf("%s: serial gen=%d members=%d pending=%d, parallel gen=%d members=%d pending=%d",
				id, a.Gen, a.Members, a.Pending, b.Gen, b.Members, b.Pending)
		}
		wa, err := a.Merged.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := b.Merged.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa, wb) {
			t.Fatalf("%s: merged view differs between serial and parallel replay", id)
		}
	}
}

// TestStoreOpenEarlyReturnStopsReplay fails replay on its first object —
// torn, and unquarantinable because a plain file sits where the
// quarantine directory belongs — while the lookahead is still preparing
// the rest: Open must fail and leave no replay goroutine behind.
func TestStoreOpenEarlyReturnStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		ingest(t, s, shard(i, 1))
	}
	objects := filepath.Join(dir, "objects")
	// "0000.json" sorts before every 64-hex-digit object name.
	if err := os.WriteFile(filepath.Join(objects, "0000.json"), []byte(`{"meta":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(objects, "quarantine"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "quarantining 0000.json") {
		t.Fatalf("open with an unquarantinable object: %v, want a quarantine failure", err)
	}
	// Match replay's goroutines by their stacks rather than counting: the
	// runtime's finalizer goroutine counts as a user goroutine while it
	// runs, which makes a bare NumGoroutine comparison flaky. Open's
	// wg.Wait can return while a worker is still inside its deferred
	// wg.Done, so poll until the frames are gone: a worker that is still
	// replaying after the deadline is a real leak.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(3 * time.Second); ; {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*Store).replay") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay goroutines outlived Open's early return:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkMergedMatchesMergeShards asserts that every corpus's merged view
// re-encodes to the same bytes as results.MergeShards over clones of its
// merged member prefix, and that a corpus with pending members cannot
// merge whole.
func checkMergedMatchesMergeShards(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, c := range s.corpora {
		merge := func(members []*member) (*results.Artifact, error) {
			shards := make([]*results.Artifact, len(members))
			paths := make([]string, len(members))
			for i, m := range members {
				shards[i], paths[i] = m.art.Clone(), m.hash
			}
			return results.MergeShards(shards, paths)
		}
		want, err := merge(c.members[:c.mergedCount])
		if err != nil {
			t.Fatalf("corpus %s: MergeShards over the merged prefix: %v", id, err)
		}
		wantBytes, err := want.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := c.merged.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("corpus %s: merged view differs from MergeShards over its %d merged members", id, c.mergedCount)
		}
		if c.mergedCount < len(c.members) {
			if _, err := merge(c.members); err == nil {
				t.Fatalf("corpus %s: %d pending member(s), yet MergeShards merges them all", id, len(c.members)-c.mergedCount)
			}
		}
	}
}

// tinyShard builds shard i of a two-seed study shaped like a multichip
// fleet scan, small enough to be a cheap fuzz seed: one region×channel
// group whose stream has four bins and holds the chip's one sample.
func tinyShard(i int) *results.Artifact {
	seed := uint64(11 + i)
	st := stats.NewStreamSized(0, 1, 4, 4)
	st.Add(float64(i+1) / 8)
	return &results.Artifact{
		Meta: results.Meta{
			Format:      results.FormatVersion,
			Tool:        "multichip",
			CodeVersion: "test-build",
			ConfigHash:  "0123456789abcdef",
			GroupBy:     results.ByRegionChannel.String(),
			SeedFirst:   seed,
			SeedCount:   1,
			Shard:       i,
			ShardCount:  2,
			JobAxis:     results.AxisSeed,
			Params:      map[string]string{"rows_per_region": "1"},
		},
		Chips: []results.ChipRecord{{Seed: seed, MinHCFirst: 28672, WorstChannel: 7, TRRPeriod: 17}},
		Groups: []results.Group{{
			Key:     results.Key{Region: "first", Channel: 0},
			Metrics: []results.Metric{{Name: "wcdp_ber", Stream: st}},
		}},
	}
}

// FuzzArtifactIngest feeds arbitrary bytes to a store already holding a
// real multichip shard. Nothing may panic; a rejection must be classed
// ErrMalformed or ErrConflict and leave the store unchanged; an
// acceptance must leave every corpus's merged view byte-identical to
// results.MergeShards over its merged members, and must be canonical —
// re-ingesting the re-encoded artifact is a duplicate at the same
// address. The base shard is prepared once and admitted into every fresh
// store, which also exercises sharing one member artifact across stores.
//
// The generated seeds are the two shards of one small multichip-shaped
// study (tinyShard): about a kilobyte each, where the 59 KB base would
// hold the fuzzer near one exec per second.
func FuzzArtifactIngest(f *testing.F) {
	base, err := os.ReadFile(filepath.Join("testdata", "shard-1of2.json"))
	if err != nil {
		f.Fatal(err)
	}
	prepBase, _, err := prepare(base, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{}`))
	for i := 0; i < 2; i++ {
		data, err := tinyShard(i).MarshalIndented()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _ := Open("")
		if _, err := s.admit(prepBase, false); err != nil {
			t.Fatal(err)
		}
		gen := s.Generation()
		r, err := s.Ingest(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrConflict) {
				t.Fatalf("unclassified rejection: %v", err)
			}
			if s.Generation() != gen {
				t.Fatalf("rejected ingest advanced the store generation %d -> %d", gen, s.Generation())
			}
			return
		}
		checkMergedMatchesMergeShards(t, s)
		canon, err := s.corpora[r.Corpus].byHash[r.Hash].art.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.Ingest(canon)
		if err != nil {
			t.Fatalf("re-ingest of the canonical encoding: %v", err)
		}
		if !again.Duplicate || again.Hash != r.Hash {
			t.Fatalf("canonical re-ingest: duplicate=%v hash %.12s, want a duplicate of %.12s", again.Duplicate, again.Hash, r.Hash)
		}
		checkMembersPristine(t, s)
	})
}
