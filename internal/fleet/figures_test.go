package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/store"
)

// TestFiguresShardFleetStoreInvariant pins the one front end of Figs.
// 3-6: the sweep and fig6 reports drawn from a single-process artifact
// are byte-identical to those drawn from four shard files merged the way
// `characterize merge` merges them, from a two-worker fleet run, and
// from a store that replays the shard files from disk.
func TestFiguresShardFleetStoreInvariant(t *testing.T) {
	for _, study := range []Study{
		{Experiment: "sweep", Chip: "small", Rows: 2, Hammers: 30000},
		{Experiment: "fig6", Chip: "small", Rows: 2, Hammers: 30000},
	} {
		t.Run(study.Experiment, func(t *testing.T) {
			opts, err := study.options(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			single, err := experiments.Run(study.Experiment, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := experiments.Render(single)
			check := func(how string, a *results.Artifact) {
				t.Helper()
				if got := experiments.Render(a); got != want {
					t.Errorf("%s renders\n%s\nwant the single-process\n%s", how, got, want)
				}
			}

			dir := t.TempDir()
			for i := 0; i < 4; i++ {
				o := opts
				o.Shard, o.ShardCount = i, 4
				shard, err := experiments.Run(study.Experiment, o)
				if err != nil {
					t.Fatal(err)
				}
				data, err := shard.MarshalIndented()
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard%d.json", i)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			shards, paths, err := results.ReadShards([]string{dir})
			if err != nil {
				t.Fatal(err)
			}
			merged, err := results.MergeShards(shards, paths)
			if err != nil {
				t.Fatal(err)
			}
			check("the merged shards", merged)

			fleet, err := Run(Spec{Study: study, Workers: 2, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			check("the fleet run", fleet)

			storeDir := t.TempDir()
			st, err := store.Open(storeDir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.IngestFiles(dir); err != nil {
				t.Fatal(err)
			}
			replayed, err := store.Open(storeDir)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := replayed.Resolve("")
			if err != nil {
				t.Fatal(err)
			}
			if !snap.Complete {
				t.Fatalf("replayed store holds %d of the 4 shards", snap.Members)
			}
			check("the replayed store", snap.Merged)
		})
	}
}
