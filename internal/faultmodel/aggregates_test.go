package faultmodel

import (
	"math"
	"sync"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
)

// The sense fast path leans on three precomputed aggregates; these tests
// pin their invariants against brute force so the fast path's skipping
// logic can never drift from the per-bit model.

func TestThresholdAggregatesConsistent(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	bits := cfg.Geometry.RowBits()
	for _, row := range []int{0, 17, 500, cfg.Geometry.Rows - 1} {
		thr, wordMin, minThr := m.Thresholds(m.Profile(bank(5, 1, 0), row))
		if len(thr) != bits || len(wordMin) != (bits+63)/64 {
			t.Fatalf("row %d: aggregate lengths %d/%d, want %d/%d",
				row, len(thr), len(wordMin), bits, (bits+63)/64)
		}
		// The row minimum is the exact minimum over every bit.
		rowMin := float32(math.Inf(1))
		for _, v := range thr {
			if v < rowMin {
				rowMin = v
			}
		}
		if minThr != rowMin {
			t.Fatalf("row %d: row minimum %v, brute-force min %v", row, minThr, rowMin)
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

// BenchmarkProfileComputePaper is BenchmarkProfileCompute at the paper
// geometry's 8192-bit rows, the unit of work of every victim row a
// paper-chip sweep senses.
func BenchmarkProfileComputePaper(b *testing.B) {
	cfg := config.PaperChip()
	m := newModel(b, cfg)
	m.SetCacheCap(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.Profile(bank(0, 0, 0), i%cfg.Geometry.Rows)
		m.Thresholds(p)
	}
}

// TestThresholdBuildAllocs pins the threshold build to three allocations:
// the per-bit thresholds, the per-word minima and the struct holding
// them. A transient sort buffer or a resident index would show up here.
func TestThresholdBuildAllocs(t *testing.T) {
	cfg := config.PaperChip()
	m := newModel(t, cfg)
	const runs = 20
	profiles := make([]*RowProfile, runs+1) // AllocsPerRun adds a warm-up call
	for i := range profiles {
		profiles[i] = m.Profile(bank(1, 0, 2), i)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		m.Thresholds(profiles[next])
		next++
	})
	if next != runs+1 {
		t.Fatalf("built %d threshold tiers, want %d", next, runs+1)
	}
	if avg != 3 {
		t.Fatalf("threshold build allocates %.1f times, want 3 (Thr, WordMin, the tier struct)", avg)
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
