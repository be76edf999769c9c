// Package engine is the shared parallel execution engine behind every
// experiment driver: one scheduler that owns:
//
//   - deterministic work partitioning: a run's jobs are indexed 0..n-1 and
//     results are returned in index order, so the output is byte-identical
//     for Workers=1 and Workers=N as long as each job's result depends only
//     on its index (the drivers' jobs are pure functions of the chip seed
//     and the sharded coordinates — channel, bank, hold time, seed);
//   - a shared-nothing device pool (see DevicePool) that hands each worker
//     its own warmed device and reuses devices across runs instead of
//     re-instantiating a chip per sweep;
//   - context cancellation between jobs and serialized progress callbacks,
//     surfaced through the experiment options and cmd/characterize.
//
// One execution shape sits on the scheduler: Reduce/ReduceHarness stream
// results into an ordered fold — the fold sees job i before job i+1
// behind a bounded backpressure window, so streaming aggregation stays
// deterministic at any worker count (DESIGN.md §6). How job indexes
// reach workers is the pluggable planner (Options.Planner, planner.go):
// shared-counter queue, static or size-weighted contiguous blocks, or
// work stealing. Planner choice never changes output, only assignment
// locality and fold overlap (DESIGN.md §9).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
)

// Progress is one progress update of a running engine job set.
type Progress struct {
	// Done is how many jobs have completed; Total is the job count.
	Done, Total int
}

// ProgressFunc receives progress updates. Calls are serialized and Done is
// strictly increasing, so implementations need no locking of their own.
type ProgressFunc func(Progress)

// Options configures one engine run.
type Options struct {
	// Ctx cancels the run between jobs; nil means context.Background().
	// In-flight jobs finish their current unit before the run returns
	// ctx.Err().
	Ctx context.Context
	// Workers bounds parallelism. <= 0 means GOMAXPROCS, capped at the
	// job count either way. Results never depend on the worker count.
	Workers int
	// OnProgress, if non-nil, is invoked after every completed job. It
	// runs under the run's fold lock, so it should return quickly.
	OnProgress ProgressFunc
	// Pool supplies warmed devices to ReduceHarness; nil means SharedPool.
	Pool *DevicePool
	// Planner selects how job indexes are assigned to workers. The zero
	// value is PlanQueue. Planner choice never changes a run's output,
	// only its schedule (see Planner).
	Planner Planner
	// Weights, when non-nil, are per-job relative cost estimates for
	// PlanWeighted (other planners ignore them). Length must equal the
	// run's job count.
	Weights []float64
}

func (o Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

func (o Options) pool() *DevicePool {
	if o.Pool != nil {
		return o.Pool
	}
	return SharedPool
}

// harnessSetup builds ReduceHarness's per-worker setup hook: lease a
// warmed device from the pool and arm it with the run's context so a
// cancellation aborts mid-measurement.
func harnessSetup(o Options, cfg *config.Config) func() (*core.Harness, func(), error) {
	pool := o.pool()
	ctx := o.context()
	return func() (*core.Harness, func(), error) {
		h, err := pool.Get(cfg)
		if err != nil {
			return nil, nil, err
		}
		// Thread the run's context into the harness measurement loops;
		// Put resets it with the other tunables.
		h.SetContext(ctx)
		return h, func() { pool.Put(cfg, h) }, nil
	}
}

// Reduce runs fn for every index in [0, n) across the worker pool and
// folds each result — in strict index order — into caller state via fold,
// discarding it afterwards. Resident memory is the fold state plus
// O(workers) unfolded results, not O(n): a caller that wants every
// result keeps them in its fold, and one that aggregates keeps only the
// aggregate. The bound is enforced with backpressure, not just
// scheduling luck: a worker whose completed index is more than one window
// (= the worker count) ahead of the fold frontier parks until the frontier
// advances, so a straggling early job cannot make later results pile up.
//
// fold runs serialized and in index order regardless of worker count or
// completion order, so a deterministic fold (e.g. merging streaming
// accumulators) yields byte-identical aggregates at any parallelism. A
// fold error aborts the run like a job error.
//
// Every planner works with Reduce and yields the same output; block
// planners (contiguous, weighted, stealing) assign far-from-frontier
// indexes whose workers park against the window, so the queue planner is
// the right choice when fold overlap matters. The ordered fold can never
// deadlock: planners hand each worker one contiguous remaining block
// consumed from its low end, so the worker owning the frontier's block is
// always computing exactly the frontier index, which the window (>= 1)
// always admits.
func Reduce[T any](o Options, n int, fn func(ctx context.Context, i int) (T, error),
	fold func(i int, v T) error) error {
	return reduce(o, n, noSetup,
		func(ctx context.Context, _ struct{}, i int) (T, error) { return fn(ctx, i) },
		fold)
}

// ReduceHarness is Reduce with a warmed characterization harness per
// worker, leased from the device pool for the duration of the run and
// armed with the run's context so a cancellation aborts the harness
// mid-measurement, not just between jobs. Jobs must not depend on device
// history (all Section 4 measurements rewrite their rows before
// hammering, so they do not); retention- or temperature-sensitive studies
// build fresh devices through Reduce instead.
func ReduceHarness[T any](o Options, cfg *config.Config, n int,
	fn func(ctx context.Context, h *core.Harness, i int) (T, error),
	fold func(i int, v T) error) error {
	return reduce(o, n, harnessSetup(o, cfg), fn, fold)
}

// reduce is the scheduler behind Reduce and ReduceHarness; see Reduce
// for the backpressure and determinism contract. Workers take indexes
// from the planner, each holding worker-local state S built by setup (a
// pooled device, or nothing), and deposit every result into a ring of
// one window's worth of slots (window = worker count).
//
// One mutex guards the ring, the fold frontier, the failure flag and
// progress. Holding it is what serializes fold and OnProgress, so neither
// may wait on another job of the same run. The deposit that lands the
// frontier folds every contiguous ready slot, and a worker a full window
// ahead waits on the cond until a fold advances the frontier or the run
// unwinds. Setup, job and fold errors are recorded and broadcast under
// the mutex; cancellation is broadcast by context.AfterFunc, so parked
// workers always wake. The run returns the error of the lowest failing
// job index, then the first setup error, then ctx.Err().
func reduce[S, T any](o Options, n int,
	setup func() (S, func(), error),
	fn func(ctx context.Context, s S, i int) (T, error),
	fold func(i int, v T) error) error {
	ctx := o.context()
	if n <= 0 {
		return ctx.Err()
	}
	if o.Weights != nil && len(o.Weights) != n {
		return fmt.Errorf("engine: %d job weights for %d jobs", len(o.Weights), n)
	}
	workers := o.workers(n)
	assign := o.Planner.plan(n, workers, o.Weights)

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	ring := make([]T, workers) // slot i%workers holds job i's unfolded result
	ready := make([]bool, workers)
	next, done := 0, 0 // fold frontier (lowest unfolded index); completed jobs
	failed := false
	jobErrs := make([]error, n)
	setupErrs := make([]error, workers)
	stopped := func() bool { return failed || ctx.Err() != nil }
	fail := func(slot *error, err error) {
		*slot = err
		failed = true
		cond.Broadcast()
	}
	stopWake := context.AfterFunc(ctx, func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	defer stopWake()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Claim a job before paying setup cost: a pool lease can mean
			// a full chip instantiation, which a cancelled run or a worker
			// that finds no work left must not pay.
			mu.Lock()
			stop := stopped()
			mu.Unlock()
			if stop {
				return
			}
			i, ok := assign.next(w)
			if !ok {
				return
			}
			s, release, err := setup()
			if err != nil {
				mu.Lock()
				fail(&setupErrs[w], err)
				mu.Unlock()
				return
			}
			defer release()
			for ; ok; i, ok = assign.next(w) {
				v, err := fn(ctx, s, i)
				mu.Lock()
				if err != nil {
					fail(&jobErrs[i], err)
					mu.Unlock()
					return
				}
				for i >= next+workers && !stopped() {
					cond.Wait()
				}
				if stopped() {
					mu.Unlock() // the run is unwinding; the fold stops at the failure point
					return
				}
				ring[i%workers], ready[i%workers] = v, true
				if i == next {
					var zero T
					for ready[next%workers] {
						r := ring[next%workers]
						ring[next%workers], ready[next%workers] = zero, false
						if err := fold(next, r); err != nil {
							// next stays put: no later index may fold.
							fail(&jobErrs[next], err)
							mu.Unlock()
							return
						}
						next++
					}
					cond.Broadcast()
				}
				done++
				if o.OnProgress != nil {
					o.OnProgress(Progress{Done: done, Total: n})
				}
				stop := stopped()
				mu.Unlock()
				if stop {
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for _, err := range jobErrs {
		if err != nil {
			return err
		}
	}
	for _, err := range setupErrs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

func noSetup() (struct{}, func(), error) { return struct{}{}, func() {}, nil }
