// Package engine is the shared parallel execution engine behind every
// experiment driver. It replaces the per-driver worker pools the drivers
// originally hand-rolled with one scheduler that owns:
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
// Two execution shapes share the scheduler: Map materializes every
// result placed by index, and Reduce/ReduceHarness stream results into
// an ordered fold — the fold sees job i before job i+1 behind a bounded
// backpressure window, so streaming aggregation stays deterministic at
// any worker count (DESIGN.md §6). How job indexes reach workers is the
// pluggable planner (Options.Planner, planner.go): shared-counter queue,
// static or size-weighted contiguous blocks, or work stealing. Planner
// choice never changes output, only assignment locality and fold overlap
// (DESIGN.md §9).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	// OnProgress, if non-nil, is invoked after every completed job.
	OnProgress ProgressFunc
	// Pool supplies warmed devices to MapHarness; nil means SharedPool.
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

// Map runs fn for every index in [0, n) across the worker pool and returns
// the results in index order. The first job error (lowest recorded index)
// aborts the run; if the context is cancelled before all jobs finish, Map
// returns ctx.Err().
func Map[T any](o Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, o.context().Err()
	}
	results := make([]T, n)
	err := mapWorkers(o, n, noSetup,
		func(ctx context.Context, _ struct{}, i int) (T, error) { return fn(ctx, i) },
		func(i int, v T) error { results[i] = v; return nil },
		nil)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// harnessSetup builds the per-worker setup hook MapHarness and
// ReduceHarness share: lease a warmed device from the pool and arm it
// with the run's context so a cancellation aborts mid-measurement.
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

// MapHarness is Map with a warmed characterization harness per worker,
// leased from the device pool for the duration of the run and armed with
// the run's context so a cancellation aborts the harness mid-measurement,
// not just between jobs. Jobs must not depend on device history (all
// Section 4 measurements rewrite their rows before hammering, so they do
// not); retention- or temperature-sensitive studies should build fresh
// devices through Map instead.
func MapHarness[T any](o Options, cfg *config.Config, n int,
	fn func(ctx context.Context, h *core.Harness, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, o.context().Err()
	}
	results := make([]T, n)
	err := mapWorkers(o, n, harnessSetup(o, cfg), fn,
		func(i int, v T) error { results[i] = v; return nil },
		nil)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Reduce runs fn for every index in [0, n) across the worker pool and
// folds each result — in strict index order — into caller state via fold,
// discarding it afterwards. This is the streaming alternative to Map for
// runs whose aggregate is small but whose per-job results (or job count)
// are large: resident memory is the fold state plus O(workers) unfolded
// results, not O(n). The bound is enforced with backpressure, not just
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
	return reduceWorkers(o, n, noSetup,
		func(ctx context.Context, _ struct{}, i int) (T, error) { return fn(ctx, i) },
		fold)
}

// ReduceHarness is Reduce with a warmed harness per worker, leased like
// MapHarness: the streaming entry point for harness-backed studies whose
// per-job results are folded away as they complete. The same MapHarness
// caveat applies: jobs must not depend on device history.
func ReduceHarness[T any](o Options, cfg *config.Config, n int,
	fn func(ctx context.Context, h *core.Harness, i int) (T, error),
	fold func(i int, v T) error) error {
	return reduceWorkers(o, n, harnessSetup(o, cfg), fn, fold)
}

// reduceSlot is one cell of the reorder ring. ready is a generation tag:
// 0 when the cell is empty, i+1 when it holds job i's result. The atomic
// store of ready publishes the plain write of v (and the folder's atomic
// load of ready acquires it), so depositors and the folder never touch a
// cell concurrently without a happens-before edge.
type reduceSlot[T any] struct {
	ready atomic.Int64
	v     T
}

// reduceWorkers is the shared ordered-fold core of Reduce and
// ReduceHarness; see Reduce for the backpressure and determinism
// contract.
//
// The reorder buffer is a lock-free ring of one window's worth of slots
// instead of a single mutex + map: each completed job deposits into slot
// i%window with two atomic ops, and whichever worker deposits the fold
// frontier becomes the folder (a CAS-guarded critical section) and drains
// the ring in index order. The old design serialized every completion —
// including all the out-of-order ones that only needed buffering — behind
// one lock held across fold calls; here out-of-order completions are
// wait-free and only frontier handoff synchronizes. Parking for the
// backpressure window is the slow path and keeps a conventional
// mutex+cond, entered only when a worker is a full window ahead.
func reduceWorkers[S, T any](o Options, n int,
	setup func() (S, func(), error),
	fn func(ctx context.Context, s S, i int) (T, error),
	fold func(i int, v T) error) error {
	window := o.workers(n)
	if window < 1 {
		window = 1
	}
	slots := make([]reduceSlot[T], window)
	var next atomic.Int64    // fold frontier: lowest unfolded index
	var folding atomic.Int32 // 0 = no active folder, 1 = one folder draining
	var aborted atomic.Bool
	var parked atomic.Int32
	var parkMu sync.Mutex
	parkCond := sync.NewCond(&parkMu)

	// wake releases backpressure-parked workers after the frontier moved.
	// The atomic parked counter keeps the common case (nobody parked) to
	// one load; parkers increment it under parkMu before re-checking the
	// window, so a waker that loads parked==0 is guaranteed the parker's
	// re-check will observe the already-advanced frontier.
	wake := func() {
		if parked.Load() > 0 {
			parkMu.Lock()
			parkCond.Broadcast()
			parkMu.Unlock()
		}
	}

	return mapWorkers(o, n, setup, fn,
		func(i int, v T) error {
			idx := int64(i)
			if idx >= next.Load()+int64(window) {
				parkMu.Lock()
				parked.Add(1)
				for idx >= next.Load()+int64(window) && !aborted.Load() {
					parkCond.Wait()
				}
				parked.Add(-1)
				parkMu.Unlock()
				if aborted.Load() {
					return nil // run is unwinding; the fold stops at the failure point
				}
			}
			// Fast path: this deposit IS the fold frontier and no folder
			// is active (the common case when completions arrive roughly
			// in order) — fold directly, skipping the ring round-trip.
			if next.Load() == idx && folding.CompareAndSwap(0, 1) {
				if err := fold(i, v); err != nil {
					// Leave folding set: no later index may fold after an
					// error, matching the abort contract.
					return err
				}
				next.Store(idx + 1)
				wake()
				return drainRing(slots, &next, &folding, int64(window), fold, wake)
			}
			// Admission (i < next+window) guarantees slot i%window was
			// folded and cleared before the frontier advanced past
			// i-window, so the cell is ours alone.
			s := &slots[i%window]
			s.v = v
			s.ready.Store(idx + 1)
			for {
				nx := next.Load()
				if slots[nx%int64(window)].ready.Load() != nx+1 {
					return nil // frontier not deposited; its depositor will fold
				}
				if !folding.CompareAndSwap(0, 1) {
					// An active folder exists; it re-checks the frontier
					// after releasing the flag, so our deposit is covered.
					return nil
				}
				return drainRing(slots, &next, &folding, int64(window), fold, wake)
			}
		},
		func() { // onAbort: wake parked workers so the run can unwind
			aborted.Store(true)
			parkMu.Lock()
			parkCond.Broadcast()
			parkMu.Unlock()
		})
}

// drainRing folds every contiguously deposited slot starting at the
// frontier, then releases the folder flag — re-checking afterwards for a
// deposit that landed the new frontier between the last ring check and
// the release (that depositor saw the flag held and moved on, so the
// releasing folder must pick its work up). The caller must hold the
// folding flag; on a fold error the flag is left set so no later index
// can ever fold, matching the abort contract.
func drainRing[T any](slots []reduceSlot[T], next *atomic.Int64, folding *atomic.Int32,
	window int64, fold func(i int, v T) error, wake func()) error {
	for {
		for {
			nx := next.Load()
			c := &slots[nx%window]
			if c.ready.Load() != nx+1 {
				break
			}
			w := c.v
			var zero T
			c.v = zero
			c.ready.Store(0)
			if err := fold(int(nx), w); err != nil {
				return err
			}
			next.Store(nx + 1)
			wake()
		}
		folding.Store(0)
		nx := next.Load()
		if slots[nx%window].ready.Load() != nx+1 {
			return nil
		}
		if !folding.CompareAndSwap(0, 1) {
			return nil
		}
	}
}

func noSetup() (struct{}, func(), error) { return struct{}{}, func() {}, nil }

// mapWorkers is the scheduler core: workers pull indexes from a shared
// counter, each holding worker-local state S built by setup (a pooled
// device, or nothing). Each completed job's result is handed to place with
// its index — into a results slice (Map) or an ordered fold (Reduce) —
// which is what makes the output independent of scheduling. A place error
// aborts the run like a job error at that index.
//
// onAbort, when non-nil, is invoked exactly once as soon as the run starts
// unwinding (a setup/job/place error, or context cancellation) and in any
// case before mapWorkers returns. A blocking place implementation (the
// reducer's backpressure parking) must use it to release parked workers,
// or an unwinding run would never join.
func mapWorkers[S, T any](o Options, n int,
	setup func() (S, func(), error),
	fn func(ctx context.Context, s S, i int) (T, error),
	place func(i int, v T) error,
	onAbort func()) error {
	ctx := o.context()
	if n <= 0 {
		return ctx.Err()
	}
	if o.Weights != nil && len(o.Weights) != n {
		return fmt.Errorf("engine: %d job weights for %d jobs", len(o.Weights), n)
	}
	workers := o.workers(n)
	assign := o.Planner.plan(n, workers, o.Weights)

	var abortOnce sync.Once
	abort := func() {
		if onAbort != nil {
			abortOnce.Do(onAbort)
		}
	}
	defer abort()
	if onAbort != nil {
		// Watch for cancellation while workers may be parked in place.
		watcherDone := make(chan struct{})
		defer close(watcherDone)
		go func() {
			select {
			case <-ctx.Done():
				abort()
			case <-watcherDone:
			}
		}()
	}

	jobErrs := make([]error, n)
	setupErrs := make([]error, workers)
	var done atomic.Int64
	var failed atomic.Bool
	var progressMu sync.Mutex
	reported := 0

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Claim a job before paying setup cost: a pool lease can mean
			// a full chip instantiation, which a cancelled run or a worker
			// that finds no work left must not pay.
			if failed.Load() || ctx.Err() != nil {
				return
			}
			i, ok := assign.next(w)
			if !ok {
				return
			}
			s, release, err := setup()
			if err != nil {
				setupErrs[w] = err
				failed.Store(true)
				abort()
				return
			}
			defer release()
			for ; ok; i, ok = assign.next(w) {
				r, err := fn(ctx, s, i)
				if err == nil {
					err = place(i, r)
				}
				if err != nil {
					jobErrs[i] = err
					failed.Store(true)
					abort()
					return
				}
				d := int(done.Add(1))
				if o.OnProgress != nil {
					progressMu.Lock()
					if d > reported {
						reported = d
						o.OnProgress(Progress{Done: d, Total: n})
					}
					progressMu.Unlock()
				}
				if failed.Load() || ctx.Err() != nil {
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

// Flatten concatenates per-job slices in job order, preserving the
// engine's deterministic ordering end to end.
func Flatten[T any](groups [][]T) []T {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	out := make([]T, 0, total)
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
