package faultmodel

import (
	"math"
	"sync"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// The sense fast path leans on three precomputed aggregates; these tests
// pin their invariants against brute force so the fast path's skipping
// logic can never drift from the per-bit model.

func TestThresholdAggregatesConsistent(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	bits := cfg.Geometry.RowBits()
	for _, row := range []int{0, 17, 500, cfg.Geometry.Rows - 1} {
		thr, wordMin, byThr := m.Thresholds(m.Profile(bank(5, 1, 0), row))
		if len(thr) != bits || len(byThr) != bits {
			t.Fatalf("row %d: aggregate lengths %d/%d, want %d", row, len(thr), len(byThr), bits)
		}
		// ByThr is a permutation of all bit indices...
		seen := make([]bool, bits)
		for _, ci := range byThr {
			if seen[ci] {
				t.Fatalf("row %d: bit %d appears twice in ByThr", row, ci)
			}
			seen[ci] = true
		}
		// ...sorted ascending by threshold with index tie-breaking.
		for k := 1; k < bits; k++ {
			a, b := byThr[k-1], byThr[k]
			if thr[a] > thr[b] || (thr[a] == thr[b] && a >= b) {
				t.Fatalf("row %d: ByThr not ascending at %d: bit %d (%v) before bit %d (%v)",
					row, k, a, thr[a], b, thr[b])
			}
		}
		// WordMin is the exact per-word minimum.
		for w := range wordMin {
			min := float32(math.Inf(1))
			for i := w * 64; i < (w+1)*64 && i < bits; i++ {
				if thr[i] < min {
					min = thr[i]
				}
			}
			if wordMin[w] != min {
				t.Fatalf("row %d word %d: WordMin %v, brute-force min %v", row, w, wordMin[w], min)
			}
		}
	}
}

func TestRetentionAggregatesMatchRetentionSec(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	b := bank(2, 0, 3)
	const row = 33
	bits := cfg.Geometry.RowBits()
	p := m.Profile(b, row)

	// The first call builds every bit; later calls return the same arrays.
	sec, wordMin, minSec := m.Retention(p)
	if again, _, _ := m.Retention(p); &again[0] != &sec[0] {
		t.Fatal("second retention scan rebuilt the aggregates")
	}
	wantMin, wantBit := math.Inf(1), -1
	for i := 0; i < bits; i++ {
		want := m.RetentionSec(b, row, i)
		if sec[i] != want {
			t.Fatalf("bit %d: Sec %v != RetentionSec %v", i, sec[i], want)
		}
		if want < wantMin {
			wantMin, wantBit = want, i
		}
	}
	if minSec != wantMin {
		t.Fatalf("row min %v, brute-force min %v", minSec, wantMin)
	}
	if gotMin, gotBit := m.RowMinRetention(b, row); gotMin != wantMin || gotBit != wantBit {
		t.Fatalf("RowMinRetention = (%v, %d), brute force (%v, %d)", gotMin, gotBit, wantMin, wantBit)
	}
	for w := range wordMin {
		min := math.Inf(1)
		for i := w * 64; i < (w+1)*64 && i < bits; i++ {
			if sec[i] < min {
				min = sec[i]
			}
		}
		if wordMin[w] != min {
			t.Fatalf("word %d: WordMin %v, brute-force min %v", w, wordMin[w], min)
		}
	}
}

// TestProfileStampedeComputesOnce pins the single-flight behaviour of the
// profile cache: concurrent misses for one row must not each recompute
// the full profile.
func TestProfileStampedeComputesOnce(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p := m.Profile(bank(4, 0, 0), 77)
			if p == nil || len(p.TrueCell) == 0 {
				panic("empty profile from stampede")
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := m.ProfileComputes(); got != 1 {
		t.Fatalf("concurrent misses for one row computed the profile %d times, want 1", got)
	}
}

func TestRadixSortMatchesComparisonSort(t *testing.T) {
	s := rng.NewStream(42)
	for _, n := range []int{0, 1, 2, 3, 64, 1000, 4096} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = s.Next()
			if i%7 == 0 {
				keys[i] &= 0xFFFF // exercise constant-byte pass skipping
			}
		}
		want := append([]uint64(nil), keys...)
		sortUint64Ref(want)
		tmp := make([]uint64, n)
		radixSortUint64(keys, tmp)
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("n=%d: radix sort diverges at %d: %x != %x", n, i, keys[i], want[i])
			}
		}
	}
}

// sortUint64Ref is a trivial comparison sort used as the oracle.
func sortUint64Ref(xs []uint64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// BenchmarkProfileCompute measures a cold full profile build: orientation
// pass plus lazily-forced threshold aggregates (the dominant cost), the
// unit of work every fleet chip pays per touched row.
func BenchmarkProfileCompute(b *testing.B) {
	cfg := config.SmallChip()
	m := newModel(b, cfg)
	m.SetCacheCap(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.Profile(bank(0, 0, 0), i%cfg.Geometry.Rows)
		m.Thresholds(p)
	}
}

// TestRetentionConcurrentAccess exercises the retention build under the
// race detector: profiles are shared, so concurrent first scans and
// row-minimum queries of one row must build it once and agree.
func TestRetentionConcurrentAccess(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	b := bank(6, 1, 2)
	const row = 9
	p := m.Profile(b, row)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if g%2 == 0 {
				if sec, _ := m.RowMinRetention(b, row); sec <= 0 {
					panic("non-positive row minimum under concurrency")
				}
			}
			if sec, _, _ := m.Retention(p); sec[g] != m.RetentionSec(b, row, g) {
				panic("Sec diverged from RetentionSec under concurrency")
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
