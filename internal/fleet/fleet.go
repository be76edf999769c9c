// Package fleet is the control plane that turns the experiment registry
// into a service that survives real fleets: one coordinator partitions a
// registered experiment's job plan into contiguous shards
// (results.ShardRange), launches one worker process per shard through a
// pluggable Launcher (local subprocesses by default; SSH or a scheduler
// later), streams per-shard progress events, replaces dead or straggling
// workers, and merges the shard artifacts through the conflict-checked
// results.Merge into output byte-identical to a single-process run.
//
// Workers checkpoint: each seals its shard in chunk-sized job slices,
// journaling every sealed slice (journal.go) before moving on, so a
// worker killed at any instruction resumes exactly where it died. The
// byte-identity argument is compositional and rests on two invariants
// the repo already pins: plans are pure (every process computes the same
// job list from the same options) and slice artifacts merge exactly
// (Shewchuk-sum streams, order-fixed folds). Chunks merge into a shard
// identical to an uninterrupted shard; shards merge into an artifact
// identical to an unsharded run; therefore any interleaving of kills,
// resumes and retries yields the same bytes. DESIGN.md §10 documents the
// protocol.
package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/failpoint"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/store"
)

// Spec configures one fleet run.
type Spec struct {
	// Study selects the experiment and its knobs, forwarded verbatim to
	// every worker.
	Study
	// Workers is the shard worker count; <= 0 means 2. Slices that would
	// be empty (more workers than jobs) are simply not launched.
	Workers int
	// Chunk is the per-worker checkpoint granularity in jobs (<= 0 means
	// 1: journal after every job).
	Chunk int
	// Dir holds the worker journals and shard artifacts; "" means a
	// temporary directory removed after the run. A fixed Dir makes the
	// whole fleet run resumable: rerunning the same spec resumes every
	// shard from its journal.
	Dir string
	// Retries is how many times a failed or stalled shard worker is
	// relaunched before the run fails; < 0 disables retries. The zero
	// value means 2. Relaunched workers resume from their journal, so a
	// retry repeats only the jobs the dead worker never sealed.
	Retries int
	// StallTimeout, when positive, is the straggler gate: a worker that
	// emits no event for this long is killed and retried. Zero disables
	// stall detection (jobs of wildly different cost make "no news" a
	// poor death signal at small timeouts).
	StallTimeout time.Duration
	// KillAfter injects faults for testing: worker i's FIRST launch gets
	// -die-after KillAfter[i] and exits abruptly after sealing that many
	// chunks. Retries relaunch it without the flag.
	KillAfter map[int]int
	// WorkerFailpoints, when non-empty, is a failpoint spec
	// (internal/failpoint) passed to every worker's FIRST launch via
	// -failpoints — the torture harness's hook for crashing workers at
	// exact durability steps. Like KillAfter, relaunches come back clean.
	WorkerFailpoints string
	// Backoff is the base delay of the capped exponential backoff between
	// a worker's relaunches: attempt n waits ~Backoff·2ⁿ (capped at 30s),
	// scaled by a deterministic jitter factor in [0.5, 1.0) derived from
	// the worker index and attempt, so a fleet of workers felled by one
	// cause does not relaunch in lockstep yet every schedule is
	// reproducible. Zero means the 250ms default; negative disables
	// backoff (relaunch immediately).
	Backoff time.Duration
	// Launcher starts workers; nil means LocalLauncher.
	Launcher Launcher
	// Ctx cancels the run, killing every live worker.
	Ctx context.Context
	// Progress, if non-nil, receives aggregate job completion across all
	// shards (serialized, monotonic), including jobs recovered from
	// journals on resume.
	Progress engine.ProgressFunc
	// Log, if non-nil, receives coordinator lifecycle lines: launches,
	// resumes, deaths, retries, stalls, the merge.
	Log func(format string, args ...any)
	// Store, if non-nil, receives every shard artifact after the merge
	// succeeds (the auto-ingest hook): the query service's store ends the
	// run holding the same shards `characterize merge` consumed, so its
	// rebuilt view renders the same bytes as the returned artifact.
	// Re-running a resumable fleet re-ingests identical shard bytes,
	// which the content-addressed store dedups as no-ops.
	Store *store.Store
}

// Run executes a fleet run and returns the merged artifact. The artifact
// is byte-identical to experiments.Run of the same study in one process —
// including when workers die and resume, which the kill/resume tests and
// the CI smoke pin.
func Run(s Spec) (*results.Artifact, error) {
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	logf := s.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	workers := s.Workers
	if workers <= 0 {
		workers = 2
	}
	retries := s.Retries
	if retries == 0 {
		retries = 2
	} else if retries < 0 {
		retries = 0
	}
	opts, err := s.Options(ctx)
	if err != nil {
		return nil, err
	}
	info, err := experiments.Describe(s.Experiment, opts)
	if err != nil {
		return nil, err
	}
	dir := s.Dir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "hbmrh-fleet-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	backoff := s.Backoff
	if backoff == 0 {
		backoff = DefaultBackoff
	} else if backoff < 0 {
		backoff = 0
	}
	r := &run{
		spec:     s,
		retries:  retries,
		chunk:    max(s.Chunk, 1),
		dir:      dir,
		launcher: s.Launcher,
		logf:     logf,
		backoff:  backoff,
		total:    info.Jobs,
		done:     map[int]int{},
	}
	if r.launcher == nil {
		r.launcher = LocalLauncher{}
	}

	// Partition the plan and launch one monitored worker per non-empty
	// shard. ShardRange is the same partition the -shard i/N CLI uses, so
	// a fleet run is exactly the shell loop it replaces.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type shardOut struct {
		path string
		lo   int
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
		shards []shardOut
	)
	launched := 0
	for i := 0; i < workers; i++ {
		lo, hi := results.ShardRange(info.Jobs, i, workers)
		if lo == hi {
			continue
		}
		launched++
		out := filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		shards = append(shards, shardOut{path: out, lo: lo})
		wg.Add(1)
		go func(i, lo, hi int, out string) {
			defer wg.Done()
			if err := r.shard(ctx, i, lo, hi, out); err != nil {
				mu.Lock()
				if first == nil && ctx.Err() == nil {
					first = err
				} else if first == nil {
					first = ctx.Err()
				}
				mu.Unlock()
				cancel() // one dead shard past its retry budget fails the run
			}
		}(i, lo, hi, out)
	}
	logf("fleet: %s: %d jobs on axis %q across %d worker(s), journals in %s",
		s.Experiment, info.Jobs, info.Axis, launched, dir)
	wg.Wait()
	if first != nil {
		return nil, first
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Auto-merge through the same conflict-checked path `characterize
	// merge` uses; shard order is canonicalized there, so this is belt
	// and suspenders.
	paths := make([]string, len(shards))
	for i, sh := range shards {
		paths[i] = sh.path
	}
	arts := make([]*results.Artifact, len(paths))
	for i, p := range paths {
		if arts[i], err = results.ReadFile(p); err != nil {
			return nil, fmt.Errorf("fleet: reading shard artifact: %w", err)
		}
	}
	merged, err := results.MergeShards(arts, paths)
	if err != nil {
		return nil, fmt.Errorf("fleet: merging shards: %w", err)
	}
	logf("fleet: merged %d shard artifact(s)", len(paths))
	if s.Store != nil {
		for _, p := range paths {
			r, err := s.Store.IngestFiles(p)
			if err != nil {
				return nil, fmt.Errorf("fleet: auto-ingest: %w", err)
			}
			if len(r) == 1 && r[0].Duplicate {
				logf("fleet: shard %s already in store (%.12s)", filepath.Base(p), r[0].Hash)
			} else {
				logf("fleet: ingested %s into corpus %s (gen %d)", filepath.Base(p), r[0].Corpus, r[0].Gen)
			}
		}
	}
	return merged, nil
}

// DefaultBackoff is the relaunch backoff base when Spec.Backoff is zero.
const DefaultBackoff = 250 * time.Millisecond

// backoffCap bounds the exponential relaunch delay.
const backoffCap = 30 * time.Second

// run is the shared state of one coordinator execution.
type run struct {
	spec     Spec
	retries  int
	chunk    int
	dir      string
	launcher Launcher
	logf     func(string, ...any)
	backoff  time.Duration // base delay; 0 = disabled

	total int
	mu    sync.Mutex
	done  map[int]int // worker -> jobs completed in its slice
}

// observe records a worker progress event and forwards the aggregate,
// keeping the engine's ProgressFunc contract: serialized calls, strictly
// increasing Done.
func (r *run) observe(worker int, e Event) {
	if r.spec.Progress == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.Done <= r.done[worker] {
		return
	}
	r.done[worker] = e.Done
	sum := 0
	for _, d := range r.done {
		sum += d
	}
	r.spec.Progress(engine.Progress{Done: sum, Total: r.total})
}

// shard supervises one shard: launch, monitor, and — on death, stall or
// failed launch — relaunch within the retry budget, after a capped
// exponential backoff so a struggling host is not hammered with
// immediate respawns. Journals make every relaunch a resume; a rejected
// journal (ExitJournal) wipes the worker directory so the relaunch
// starts the shard fresh.
func (r *run) shard(ctx context.Context, i, lo, hi int, out string) error {
	dieAfter := r.spec.KillAfter[i]
	failpoints := r.spec.WorkerFailpoints
	workerDir := filepath.Join(r.dir, fmt.Sprintf("worker-%d", i))
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		argv := r.workerArgv(i, lo, hi, workerDir, out, dieAfter, failpoints)
		dieAfter, failpoints = 0, "" // injected faults fire on the first launch only
		sink := &eventSink{last: time.Now(), onEvent: func(e Event) { r.observe(i, e) }}
		stderr := newTailBuffer(4 << 10)
		proc, lerr := r.launcher.Start(ctx, argv, sink, stderr)
		if lerr != nil {
			// A failed spawn is a failed attempt, not a fatal run: the host
			// may be briefly out of PIDs or file descriptors, exactly what
			// backoff-and-retry exists for.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			r.logf("fleet: worker %d: launch failed: %v", i, lerr)
			if attempt >= r.retries {
				return fmt.Errorf("fleet: worker %d failed %d attempt(s) on jobs [%d,%d): launching: %w",
					i, attempt+1, lo, hi, lerr)
			}
			if err := r.relaunchBackoff(ctx, i, attempt); err != nil {
				return err
			}
			continue
		}
		r.logf("fleet: worker %d: attempt %d covering jobs [%d,%d)", i, attempt+1, lo, hi)

		stalled := r.watchStall(ctx, proc, sink)
		werr := proc.Wait()
		wasStalled := stalled()
		if werr == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		code := exitCode(werr)
		switch {
		case wasStalled:
			r.logf("fleet: worker %d stalled (no event for %s); killed", i, r.spec.StallTimeout)
		case code == ExitInjected:
			r.logf("fleet: worker %d died (injected)", i)
		case code == failpoint.ExitCode:
			r.logf("fleet: worker %d died (failpoint)", i)
		case code == ExitJournal:
			r.logf("fleet: worker %d rejected its journal; restarting the shard fresh", i)
			if err := os.RemoveAll(workerDir); err != nil {
				return fmt.Errorf("fleet: resetting worker %d directory: %w", i, err)
			}
		default:
			r.logf("fleet: worker %d exited with code %d", i, code)
		}
		if attempt >= r.retries {
			return fmt.Errorf("fleet: worker %d failed %d attempt(s) on jobs [%d,%d): %w\n%s",
				i, attempt+1, lo, hi, werr, stderr.String())
		}
		if err := r.relaunchBackoff(ctx, i, attempt); err != nil {
			return err
		}
	}
}

// relaunchBackoff waits out the backoff delay for the given failed
// attempt (0-based), returning early only on cancellation.
func (r *run) relaunchBackoff(ctx context.Context, worker, attempt int) error {
	d := BackoffDelay(r.backoff, worker, attempt)
	if d <= 0 {
		return nil
	}
	r.logf("fleet: worker %d: backing off %s before relaunch", worker, d)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BackoffDelay computes the relaunch delay after a worker's failed
// attempt (0-based): base·2^attempt capped at 30s, scaled by a
// deterministic jitter factor in [0.5, 1.0) hashed from (worker,
// attempt). Same inputs, same delay — reproducible fleet schedules with
// de-synchronized relaunches. A base <= 0 disables backoff entirely.
func BackoffDelay(base time.Duration, worker, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for n := 0; n < attempt && d < backoffCap; n++ {
		d *= 2
	}
	d = min(d, backoffCap)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%d", worker, attempt)
	frac := float64(h.Sum64()%1024) / 1024
	return time.Duration(float64(d) * (0.5 + frac/2))
}

// watchStall arms the straggler gate for one worker attempt. It returns
// a function reporting whether the gate fired; callers invoke it after
// Wait, when the watcher has quiesced.
func (r *run) watchStall(ctx context.Context, proc Proc, sink *eventSink) (stalled func() bool) {
	if r.spec.StallTimeout <= 0 {
		return func() bool { return false }
	}
	fired := make(chan struct{})
	stop := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(r.spec.StallTimeout / 4)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				if time.Since(sink.lastEvent()) > r.spec.StallTimeout {
					close(fired)
					proc.Kill()
					return
				}
			}
		}
	}()
	return func() bool {
		once.Do(func() { close(stop) })
		select {
		case <-fired:
			return true
		default:
			return false
		}
	}
}

// workerArgv renders one worker assignment as the WorkerCommand argv —
// the whole coordinator→worker protocol: the study's own flags
// (Study.args) plus the worker's slice, journal and fault injection.
func (r *run) workerArgv(i, lo, hi int, dir, out string, dieAfter int, failpoints string) []string {
	argv := append([]string{WorkerCommand}, r.spec.Study.args()...)
	argv = append(argv,
		"-worker", strconv.Itoa(i),
		"-lo", strconv.Itoa(lo),
		"-hi", strconv.Itoa(hi),
		"-chunk", strconv.Itoa(r.chunk),
		"-dir", dir,
		"-out", out,
	)
	if dieAfter > 0 {
		argv = append(argv, "-die-after", strconv.Itoa(dieAfter))
	}
	if failpoints != "" {
		argv = append(argv, "-failpoints", failpoints)
	}
	return argv
}

// eventSink parses a worker's stdout into Events as bytes arrive,
// tracking the last event time for the straggler gate.
type eventSink struct {
	mu      sync.Mutex
	buf     []byte
	last    time.Time
	onEvent func(Event)
}

func (p *eventSink) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.buf = append(p.buf, b...)
	var events []Event
	for {
		nl := -1
		for j, c := range p.buf {
			if c == '\n' {
				nl = j
				break
			}
		}
		if nl < 0 {
			break
		}
		line := p.buf[:nl]
		p.buf = p.buf[nl+1:]
		var e Event
		if err := strictUnmarshal(line, &e); err == nil {
			p.last = time.Now()
			events = append(events, e)
		}
	}
	cb := p.onEvent
	p.mu.Unlock()
	if cb != nil {
		for _, e := range events {
			cb(e)
		}
	}
	return len(b), nil
}

func (p *eventSink) lastEvent() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}
