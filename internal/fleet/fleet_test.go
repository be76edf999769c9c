package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/failpoint"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/store"
)

// TestMain doubles the test binary as the fleet worker: the coordinator's
// LocalLauncher re-executes os.Executable() with the WorkerCommand argv,
// which under `go test` is this binary. This is the same dispatch
// cmd/characterize performs, so the tests exercise the real subprocess
// protocol.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == WorkerCommand {
		os.Exit(WorkerMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// testStudy is the cheap study the fleet tests run: the rowpress point
// sweep at minimal density (5 plan jobs, milliseconds each).
func testStudy() Study {
	return Study{Experiment: "rowpress", Chip: "small", Rows: 1, Hammers: 60000}
}

// singleProcessBytes runs the study unsharded in this process and
// returns the artifact's canonical bytes.
func singleProcessBytes(t *testing.T, s Study) []byte {
	t.Helper()
	opts, err := s.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, err := experiments.Run(s.Experiment, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func fleetBytes(t *testing.T, spec Spec) []byte {
	t.Helper()
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetMatchesSingleProcess pins the headline contract: a fleet run
// across worker subprocesses produces an artifact byte-identical to the
// single-process run, and aggregate progress arrives monotonic and
// complete.
func TestFleetMatchesSingleProcess(t *testing.T) {
	want := singleProcessBytes(t, testStudy())
	var mu sync.Mutex
	var last engine.Progress
	got := fleetBytes(t, Spec{
		Study:   testStudy(),
		Workers: 2,
		Dir:     t.TempDir(),
		Progress: func(p engine.Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Done <= last.Done {
				t.Errorf("progress not strictly increasing: %+v after %+v", p, last)
			}
			last = p
		},
	})
	if string(got) != string(want) {
		t.Fatalf("fleet artifact differs from single-process run\nfleet:\n%s\nsingle:\n%s", got, want)
	}
	if last.Done != last.Total || last.Total == 0 {
		t.Fatalf("final progress %+v, want Done == Total > 0", last)
	}
}

// TestFleetAutoIngest pins the store hook: a fleet run with Spec.Store
// leaves the store holding every shard, and the store's rebuilt merged
// view renders the same bytes as the artifact the run returned.
func TestFleetAutoIngest(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	got := fleetBytes(t, Spec{
		Study:   testStudy(),
		Workers: 2,
		Dir:     t.TempDir(),
		Store:   st,
	})
	snap, err := st.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Members != 2 || !snap.Complete {
		t.Fatalf("store after fleet run: members=%d complete=%v", snap.Members, snap.Complete)
	}
	fromStore, err := snap.Merged.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	if string(fromStore) != string(got) {
		t.Fatal("store's merged view differs from the fleet's returned artifact")
	}
}

// TestFleetKillResumeByteIdentical kills every worker after its first
// sealed chunk (a kill at the second arrival at the top of a chunk);
// the relaunches must resume from the journals and the merged artifact
// must still match the single-process bytes.
func TestFleetKillResumeByteIdentical(t *testing.T) {
	want := singleProcessBytes(t, testStudy())
	var logs []string
	var mu sync.Mutex
	got := fleetBytes(t, Spec{
		Study:            testStudy(),
		Workers:          2,
		Dir:              t.TempDir(),
		Retries:          2,
		WorkerFailpoints: "fleet/worker/chunk=kill@2",
		Log: func(format string, a ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, a...))
		},
	})
	if string(got) != string(want) {
		t.Fatalf("artifact after kill+resume differs from single-process run")
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "died (failpoint)") {
		t.Fatalf("injected death never fired; log:\n%s", joined)
	}
	if !strings.Contains(joined, "worker 0: attempt 2") {
		t.Fatalf("worker 0 was never relaunched; log:\n%s", joined)
	}
}

// TestWorkerResumeInProcess drives RunWorker directly: fail after one or
// two sealed chunks (single-job chunks, and two-job chunks whose last
// chunk is short), resume, and check the shard artifact equals an
// uninterrupted slice run. It also checks the resumed session skipped
// the sealed chunks (the start event's Done carries the journaled count)
// and that the journal sealed them in compact JSON.
func TestWorkerResumeInProcess(t *testing.T) {
	for _, tc := range []struct {
		name              string
		hi, chunk, sealed int
		resumedDone       int
	}{
		{"chunk1/fail-after-1", 3, 1, 1, 1},
		{"chunk1/fail-after-2", 3, 1, 2, 2},
		{"chunk2/fail-after-1", 5, 2, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, want := resumeSpec(t, tc.hi, tc.chunk)
			events := killAndResume(t, w, tc.sealed, nil)
			start := fmt.Sprintf(`"event":"start","worker":0,"lo":0,"hi":%d,"done":%d`, tc.hi, tc.resumedDone)
			if !strings.Contains(events, start) {
				t.Fatalf("resumed worker did not report the journaled chunks (want %s):\n%s", start, events)
			}
			chunk, err := os.ReadFile(filepath.Join(w.Dir, chunkFileName(0, tc.chunk)))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.ContainsRune(chunk, '\n') {
				t.Fatal("sealed chunk is not in compact JSON")
			}
			if got := readFile(t, w.Out); !bytes.Equal(got, want) {
				t.Fatalf("resumed shard artifact differs from uninterrupted slice run")
			}
		})
	}
}

// TestWorkerResumesIndentedChunks resumes a journal whose sealed chunks
// are in the indented artifact file form, as builds that journaled in
// that form left them: each still hashes against its record, is not
// rerun, and the shard comes out byte-identical.
func TestWorkerResumesIndentedChunks(t *testing.T) {
	w, want := resumeSpec(t, 3, 1)
	events := killAndResume(t, w, 2, func() {
		j := readFile(t, journalPath(w.Dir))
		lines := strings.SplitAfter(string(j), "\n")
		for i, line := range lines[1 : len(lines)-1] {
			var rec ChunkRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(w.Dir, rec.File)
			a, err := results.Decode(readFile(t, path))
			if err != nil {
				t.Fatal(err)
			}
			indented, err := a.MarshalIndented()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, indented, 0o644); err != nil {
				t.Fatal(err)
			}
			rec.SHA256 = sha256Hex(indented)
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines[i+1] = string(b) + "\n"
		}
		if err := os.WriteFile(journalPath(w.Dir), []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(events, `"event":"start","worker":0,"lo":0,"hi":3,"done":2`) {
		t.Fatalf("resumed worker reran the indented chunks:\n%s", events)
	}
	if got := readFile(t, w.Out); !bytes.Equal(got, want) {
		t.Fatalf("shard resumed from indented chunks differs from uninterrupted slice run")
	}
}

// TestWorkerResumesFromVerifiedBytes pins that a resume reads each
// sealed chunk once: the worker dies after two chunks, its journal is
// reopened, and every sealed chunk file is deleted before the resumed
// session runs. The session must fold the bytes the open verified and
// still write the uninterrupted shard. Every file the worker wrote, the
// chunk sealed this session and the shard included, must carry the
// journal's permission bits.
func TestWorkerResumesFromVerifiedBytes(t *testing.T) {
	w, want := resumeSpec(t, 3, 1)
	failAfter(t, 2)
	if err := RunWorker(context.Background(), w, io.Discard); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("failpoint run: got %v, want an injected fault", err)
	}
	j, opts, err := w.open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(j.Done()) != 2 {
		t.Fatalf("reopened journal holds %d chunks, want 2", len(j.Done()))
	}
	for _, rec := range j.Done() {
		if err := os.Remove(filepath.Join(w.Dir, rec.File)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.run(j, opts, io.Discard); err != nil {
		t.Fatalf("resume after the sealed chunk files were deleted: %v", err)
	}
	if got := readFile(t, w.Out); !bytes.Equal(got, want) {
		t.Fatal("resumed shard artifact differs from uninterrupted slice run")
	}
	mode := func(path string) os.FileMode {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	jm := mode(journalPath(w.Dir))
	for _, path := range []string{filepath.Join(w.Dir, chunkFileName(2, 3)), w.Out} {
		if m := mode(path); m != jm {
			t.Fatalf("%s has mode %v, the journal %v", filepath.Base(path), m, jm)
		}
	}
}

// resumeSpec returns a worker over the test study's job slice [0,hi) in
// chunk-job chunks, journaling into a fresh directory, and the file form
// of an uninterrupted RunSlice over the same slice.
func resumeSpec(t *testing.T, hi, chunk int) (WorkerSpec, []byte) {
	t.Helper()
	s := testStudy()
	opts, err := s.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	info, err := experiments.Describe(s.Experiment, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.Jobs < hi {
		t.Fatalf("test study plans %d jobs, want >= %d", info.Jobs, hi)
	}
	whole, err := experiments.RunSlice(s.Experiment, opts, 0, hi)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return WorkerSpec{Study: s, Lo: 0, Hi: hi, Chunk: chunk, Dir: dir, Out: filepath.Join(dir, "shard.json")}, want
}

// failAfter arms the top of the worker's chunk loop to fail in process
// after sealed chunks, disarming it when the test ends.
func failAfter(t *testing.T, sealed int) {
	t.Helper()
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm(fmt.Sprintf("fleet/worker/chunk=error@%d", sealed+1)); err != nil {
		t.Fatal(err)
	}
}

// killAndResume runs w until it fails after sealed chunks, calls
// between (if non-nil) on the journal it left, resumes w to completion
// and returns the resumed session's events.
func killAndResume(t *testing.T, w WorkerSpec, sealed int, between func()) string {
	t.Helper()
	failAfter(t, sealed)
	if err := RunWorker(context.Background(), w, io.Discard); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("failpoint run: got %v, want an injected fault", err)
	}
	if _, err := os.Stat(w.Out); !os.IsNotExist(err) {
		t.Fatalf("killed worker wrote its shard artifact anyway (err %v)", err)
	}
	if between != nil {
		between()
	}
	var events strings.Builder
	if err := RunWorker(context.Background(), w, &events); err != nil {
		t.Fatal(err)
	}
	return events.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// flakyLauncher hangs (or fails) the first Start per worker, then
// delegates to the real local launcher.
type flakyLauncher struct {
	mu    sync.Mutex
	seen  map[string]bool
	local LocalLauncher
	mode  string // "hang" or "fail"
}

func (f *flakyLauncher) Start(ctx context.Context, argv []string, stdout, stderr io.Writer) (Proc, error) {
	key := strings.Join(argv, " ")
	f.mu.Lock()
	if f.seen == nil {
		f.seen = map[string]bool{}
	}
	firstLaunch := !f.seen[key]
	f.seen[key] = true
	f.mu.Unlock()
	if !firstLaunch {
		return f.local.Start(ctx, argv, stdout, stderr)
	}
	switch f.mode {
	case "hang":
		return newHangProc(), nil
	case "refuse":
		return nil, errors.New("spawn refused")
	default:
		return failProc{}, nil
	}
}

// hangProc emits nothing and waits to be killed — a straggler.
type hangProc struct {
	once sync.Once
	done chan struct{}
}

func newHangProc() *hangProc { return &hangProc{done: make(chan struct{})} }

func (p *hangProc) Wait() error {
	<-p.done
	return errors.New("killed")
}

func (p *hangProc) Kill() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// failProc dies instantly with a generic failure.
type failProc struct{}

func (failProc) Wait() error { return errors.New("worker crashed") }
func (failProc) Kill() error { return nil }

// TestFleetStallKillsAndRetries launches every worker as a straggler
// first: the stall gate must kill it and the relaunch (a real worker)
// must finish with byte-identical output.
func TestFleetStallKillsAndRetries(t *testing.T) {
	want := singleProcessBytes(t, testStudy())
	var logs []string
	var mu sync.Mutex
	got := fleetBytes(t, Spec{
		Study:   testStudy(),
		Workers: 2,
		Dir:     t.TempDir(),
		Retries: 1,
		// Generous: the gate must catch the silent first attempt without
		// ever firing on the real (race-instrumented, slow to start)
		// replacement worker.
		StallTimeout: 2 * time.Second,
		Launcher:     &flakyLauncher{mode: "hang"},
		Log: func(format string, a ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, a...))
		},
	})
	if string(got) != string(want) {
		t.Fatalf("artifact after straggler replacement differs from single-process run")
	}
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "stalled") {
		t.Fatalf("stall gate never fired; log:\n%s", joined)
	}
}

// TestFleetLaunchFailureRetried refuses every worker's first spawn at
// the launcher: a launch failure must burn a retry attempt (with
// backoff) rather than fail the run, and the relaunch must produce
// byte-identical output.
func TestFleetLaunchFailureRetried(t *testing.T) {
	want := singleProcessBytes(t, testStudy())
	var logs []string
	var mu sync.Mutex
	got := fleetBytes(t, Spec{
		Study:    testStudy(),
		Workers:  2,
		Dir:      t.TempDir(),
		Retries:  1,
		Backoff:  time.Millisecond,
		Launcher: &flakyLauncher{mode: "refuse"},
		Log: func(format string, a ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, a...))
		},
	})
	if string(got) != string(want) {
		t.Fatalf("artifact after launch-failure retry differs from single-process run")
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "launch failed") {
		t.Fatalf("launch failure never reported; log:\n%s", joined)
	}
	if !strings.Contains(joined, "backing off") {
		t.Fatalf("relaunch skipped its backoff; log:\n%s", joined)
	}
}

// TestBackoffDelay pins the relaunch backoff shape: deterministic for a
// given (worker, attempt), inside the jittered [d/2, d) window of the
// doubled base, capped, and disabled by a non-positive base.
func TestBackoffDelay(t *testing.T) {
	base := DefaultBackoff
	for attempt := 0; attempt < 12; attempt++ {
		d := BackoffDelay(base, 3, attempt)
		if d != BackoffDelay(base, 3, attempt) {
			t.Fatalf("attempt %d: BackoffDelay not deterministic", attempt)
		}
		full := base << attempt
		if full > 30*time.Second || full <= 0 { // shift past the cap (or overflow)
			full = 30 * time.Second
		}
		if d < full/2 || d >= full {
			t.Fatalf("attempt %d: delay %s outside jitter window [%s, %s)", attempt, d, full/2, full)
		}
	}
	if d := BackoffDelay(base, 1, 0); d == BackoffDelay(base, 2, 0) {
		t.Fatalf("workers 1 and 2 share jitter %s; want per-worker spread", d)
	}
	if d := BackoffDelay(0, 0, 5); d != 0 {
		t.Fatalf("disabled backoff returned %s, want 0", d)
	}
	if d := BackoffDelay(-time.Second, 0, 5); d != 0 {
		t.Fatalf("negative base returned %s, want 0", d)
	}
}

// TestFleetRetryBudgetExhausted pins that a shard that keeps dying fails
// the run once its relaunch budget is spent.
func TestFleetRetryBudgetExhausted(t *testing.T) {
	_, err := Run(Spec{
		Study:   testStudy(),
		Workers: 1,
		Dir:     t.TempDir(),
		Retries: -1,
		Launcher: launcherFunc(func(ctx context.Context, argv []string, stdout, stderr io.Writer) (Proc, error) {
			return failProc{}, nil
		}),
	})
	if err == nil || !strings.Contains(err.Error(), "failed 1 attempt(s)") {
		t.Fatalf("got %v, want retry-budget failure", err)
	}
}

// launcherFunc adapts a function to Launcher.
type launcherFunc func(context.Context, []string, io.Writer, io.Writer) (Proc, error)

func (f launcherFunc) Start(ctx context.Context, argv []string, stdout, stderr io.Writer) (Proc, error) {
	return f(ctx, argv, stdout, stderr)
}

// TestFleetRefusesBadWorkerFailpoints pins that a typo in
// WorkerFailpoints fails the run with failpoint.Arm's own error before
// any worker launches. Workers would each refuse the spec, and their
// clean relaunches would finish a run that injected nothing.
func TestFleetRefusesBadWorkerFailpoints(t *testing.T) {
	const spec = "fleet/worker/chnk=kill@2"
	want := failpoint.Validate(spec)
	if want == nil {
		t.Fatalf("failpoint.Validate(%q) accepted the typo", spec)
	}
	launches := 0
	dir := filepath.Join(t.TempDir(), "fleet")
	_, err := Run(Spec{
		Study:            testStudy(),
		Workers:          2,
		Dir:              dir,
		WorkerFailpoints: spec,
		Launcher: launcherFunc(func(ctx context.Context, argv []string, stdout, stderr io.Writer) (Proc, error) {
			launches++
			return LocalLauncher{}.Start(ctx, argv, stdout, stderr)
		}),
	})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Run = %v, want %v", err, want)
	}
	if !strings.Contains(err.Error(), `"`+spec+`"`) {
		t.Errorf("error %q does not name the bad clause", err)
	}
	if launches != 0 {
		t.Fatalf("%d worker(s) launched before the spec was refused", launches)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("the refused run created its directory (stat err %v)", err)
	}
}
