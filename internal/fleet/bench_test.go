package fleet

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkFleetWorker times the worker layer in-process: one shard
// worker measuring a 32-job small-chip multichip slice (one row per
// region, one device worker) at one job per chunk, so every job is
// measured, sealed into the journal with its fsyncs, folded into the
// shard, and the shard written. It reports the mean sealed chunk size.
// Run it with `go test -run '^$' -bench FleetWorker ./internal/fleet`.
func BenchmarkFleetWorker(b *testing.B) {
	const jobs = 32
	s := Study{Experiment: "multichip", Chip: "small", Rows: 1, Seeds: 2 * jobs, JobWorkers: 1, Parallel: 1}
	root := b.TempDir()
	var chunkBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, fmt.Sprint(i))
		w := WorkerSpec{Study: s, Lo: 0, Hi: jobs, Chunk: 1, Dir: dir, Out: filepath.Join(dir, "shard.json")}
		if err := RunWorker(context.Background(), w, io.Discard); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		chunkBytes = 0
		for c := 0; c < jobs; c++ {
			fi, err := os.Stat(filepath.Join(dir, chunkFileName(c, c+1)))
			if err != nil {
				b.Fatal(err)
			}
			chunkBytes += fi.Size()
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(chunkBytes)/jobs, "chunk_B")
}
