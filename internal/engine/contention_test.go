package engine

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
)

// TestPoolStressGetPutStats hammers one pool from many goroutines across
// both colliding traffic (all goroutines leasing the same config) and
// distinct configs, with Stats() reads interleaved. Run under -race
// (make test and make engine-stress do), it is the data-race probe for
// the pool's mutex and atomic counters; the invariants below hold at any
// interleaving:
//
//	Created + Reused == total Gets  (every Get is exactly one of the two)
//	idle(cfg) <= MaxIdlePerKey      (the per-key bound survives races)
func TestPoolStressGetPutStats(t *testing.T) {
	p := NewDevicePool()
	p.MaxIdlePerKey = 2
	cfgs := make([]*config.Config, 4)
	for i := range cfgs {
		cfgs[i] = config.SmallChip()
		cfgs[i].Seed = uint64(i) // distinct keys; index 0 shared by all goroutines below
	}
	const goroutines = 8
	const opsPer = 30
	gets := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				// Even ops collide on cfgs[0]; odd ops spread per goroutine.
				cfg := cfgs[0]
				if i%2 == 1 {
					cfg = cfgs[g%len(cfgs)]
				}
				h, err := p.Get(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				gets[g]++
				if i%5 == 0 {
					_ = p.Stats()
				}
				p.Put(cfg, h)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range gets {
		total += n
	}
	st := p.Stats()
	if st.Created+st.Reused != total {
		t.Fatalf("Created(%d)+Reused(%d) != Gets(%d); stats %+v",
			st.Created, st.Reused, total, st)
	}
	if st.Collisions != 0 {
		t.Fatalf("unexpected hash collisions: %+v", st)
	}
	for i, cfg := range cfgs {
		if n := p.idleLen(cfg); n > p.MaxIdlePerKey {
			t.Fatalf("config %d: %d idle devices, cap %d", i, n, p.MaxIdlePerKey)
		}
	}
}

// TestPoolMaxIdleDefaultSnapshotsGOMAXPROCS pins the satellite fix: the
// MaxIdlePerKey default is the GOMAXPROCS value at pool construction, not
// whatever GOMAXPROCS happens to be at each Put.
func TestPoolMaxIdleDefaultSnapshotsGOMAXPROCS(t *testing.T) {
	p := NewDevicePool()
	if p.maxIdle != runtime.GOMAXPROCS(0) {
		t.Fatalf("maxIdle snapshot %d != GOMAXPROCS %d", p.maxIdle, runtime.GOMAXPROCS(0))
	}
	old := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(old + 3)
	defer runtime.GOMAXPROCS(old)
	if p.maxIdle != old {
		t.Fatalf("maxIdle moved with GOMAXPROCS: %d", p.maxIdle)
	}
}

// BenchmarkEnginePoolGetPut measures warm Get/Stats/Put cycles under heavy goroutine
// pressure: the synthetic lock-convoy probe. One benchmark iteration is
// a fixed workload — 32 goroutines each running 64 cycles — so the
// measurement is meaningful even at -benchtime 1x and spawn overhead is
// amortized over 2048 cycles. The pool is pre-warmed so no cycle ever
// builds a device: the benchmark isolates leasing overhead, which is
// what a fine-grained engine run pays per worker.
func BenchmarkEnginePoolGetPut(b *testing.B) {
	p := NewDevicePool()
	p.MaxIdlePerKey = 64
	cfg := config.SmallChip()
	const goroutines = 32
	const cyclesPer = 64
	hs := make([]*core.Harness, goroutines)
	for i := range hs {
		h, err := p.Get(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hs[i] = h
	}
	for _, h := range hs {
		p.Put(cfg, h)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < cyclesPer; c++ {
					h, err := p.Get(cfg)
					if err != nil {
						b.Error(err)
						return
					}
					_ = p.Stats()
					p.Put(cfg, h)
				}
			}()
		}
		wg.Wait()
	}
}

// reduceBenchJobs is sized so per-job engine overhead dominates: the jobs
// themselves are a single integer return.
const reduceBenchJobs = 2048

// BenchmarkEngineReduceContended measures Reduce's per-job overhead:
// 32 workers deposit 2048 trivial results into the mutex-guarded ring,
// so every completion contends for the fold lock.
func BenchmarkEngineReduceContended(b *testing.B) {
	o := Options{Workers: 32}
	for i := 0; i < b.N; i++ {
		var sum int64
		err := Reduce(o, reduceBenchJobs,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(_ int, v int) error { sum += int64(v); return nil })
		if err != nil {
			b.Fatal(err)
		}
		if sum != int64(reduceBenchJobs)*(reduceBenchJobs-1)/2 {
			b.Fatalf("fold lost results: sum %d", sum)
		}
	}
}
