package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/failpoint"
	"github.com/safari-repro/hbmrh/internal/results"
)

// Worker-lifecycle failpoint sites: the top of every chunk iteration
// (where a stall simulates a wedged measurement and a kill a mid-shard
// crash) and the moment between the last sealed chunk and the shard
// output write (a crash there must resume into reassembly alone).
var (
	fpWorkerChunk = failpoint.Register("fleet/worker/chunk")
	fpWorkerOut   = failpoint.Register("fleet/worker/out")
)

// WorkerSpec is one shard worker's assignment.
type WorkerSpec struct {
	Study
	// Worker is the shard index, used only to label events.
	Worker int
	// Lo/Hi is the half-open job slice this worker measures.
	Lo, Hi int
	// Chunk is the checkpoint granularity in jobs (<= 0 means 1): the
	// worker seals and journals one slice artifact per Chunk jobs.
	Chunk int
	// Dir is the worker's journal directory.
	Dir string
	// Out is where the finished shard artifact is written.
	Out string
	// DieAfter, when positive, makes the worker exit abruptly (skipping
	// the shard merge and Out) after journaling that many chunks this
	// session — the fault-injection hook behind the kill/resume tests and
	// the CI smoke.
	DieAfter int
}

// Event is one progress record a worker emits, one JSON line per event,
// on its stdout. The coordinator streams them for progress display and
// treats any event as proof of life for straggler detection.
type Event struct {
	// Event is "start", "chunk" or "done".
	Event string `json:"event"`
	// Worker is the emitting shard index.
	Worker int `json:"worker"`
	// Lo/Hi echo the worker's job slice.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Done/Total count jobs completed within the slice; a resumed worker
	// starts from its journaled count.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Worker exit codes, the coordinator's retry protocol: any non-zero exit
// triggers a relaunch (the journal makes relaunches resume), and
// ExitJournal additionally wipes the worker directory first because the
// journal itself was rejected.
const (
	// ExitJournal signals an unusable journal (ErrJournal).
	ExitJournal = 4
	// ExitInjected signals a DieAfter-injected death.
	ExitInjected = 3
)

// errInjected is RunWorker's DieAfter sentinel.
var errInjected = errors.New("fleet: injected worker death")

// RunWorker measures one shard as a sequence of journaled chunks and
// writes the merged shard artifact. Killed workers resume: the chunks a
// previous session journaled, verified once when the journal opens, are
// folded first, in record order, and only the remainder reruns. Each
// fresh chunk folds into the running shard right after the journal
// seals it, so the shard is the same left fold over the same chunk
// sequence whichever session measured each chunk. Because slice
// artifacts merge exactly (results.Merge over exact-sum streams) and a
// chunk decodes to what was encoded (the codec's round trip), the shard
// artifact is byte-identical no matter how many times the worker died on
// the way.
func RunWorker(ctx context.Context, w WorkerSpec, events io.Writer) error {
	j, opts, err := w.open(ctx)
	if err != nil {
		return err
	}
	defer j.Close()
	return w.run(j, opts, events)
}

// open resolves w's study, checks its job slice against the plan and
// opens (or resumes) its journal.
func (w WorkerSpec) open(ctx context.Context) (*Journal, experiments.Options, error) {
	opts, err := w.Options(ctx)
	if err != nil {
		return nil, opts, err
	}
	info, err := experiments.Describe(w.Experiment, opts)
	if err != nil {
		return nil, opts, err
	}
	if w.Lo < 0 || w.Hi > info.Jobs || w.Lo >= w.Hi {
		return nil, opts, fmt.Errorf("fleet: worker %d slice [%d,%d) out of range (plan has %d %s jobs)",
			w.Worker, w.Lo, w.Hi, info.Jobs, info.Axis)
	}
	j, err := OpenJournal(w.Dir, JournalHeader{
		Experiment:  w.Experiment,
		ConfigHash:  info.ConfigHash,
		CodeVersion: results.CodeVersion(),
		Params:      info.Params,
		Lo:          w.Lo,
		Hi:          w.Hi,
	})
	return j, opts, err
}

// run folds the chunks j resumed, measures and seals the rest of w's
// slice on j and writes the shard.
func (w WorkerSpec) run(j *Journal, opts experiments.Options, events io.Writer) error {
	chunk := w.Chunk
	if chunk <= 0 {
		chunk = 1
	}
	// The running shard: nil until the first chunk folds in, which it
	// then becomes.
	var shard *results.Artifact
	fold := func(a *results.Artifact, lo, hi int) error {
		if shard == nil {
			shard = a
			return nil
		}
		if err := results.Merge(shard, a); err != nil {
			return fmt.Errorf("fleet: worker %d merging chunk [%d,%d): %w", w.Worker, lo, hi, err)
		}
		return nil
	}
	if err := j.Resume(func(rec ChunkRecord, a *results.Artifact) error {
		return fold(a, rec.Lo, rec.Hi)
	}); err != nil {
		return err
	}

	emit := func(e Event) {
		e.Worker = w.Worker
		e.Lo, e.Hi = w.Lo, w.Hi
		e.Total = w.Hi - w.Lo
		line, _ := json.Marshal(e)
		fmt.Fprintf(events, "%s\n", line)
	}
	emit(Event{Event: "start", Done: j.Resumed() - w.Lo})

	sealed := 0
	for a := j.Resumed(); a < w.Hi; a = min(a+chunk, w.Hi) {
		b := min(a+chunk, w.Hi)
		if err := fpWorkerChunk.Inject(); err != nil {
			return fmt.Errorf("fleet: worker %d jobs [%d,%d): %w", w.Worker, a, b, err)
		}
		art, err := experiments.RunSlice(w.Experiment, opts, a, b)
		if err != nil {
			return fmt.Errorf("fleet: worker %d jobs [%d,%d): %w", w.Worker, a, b, err)
		}
		if err := j.Append(art, a, b); err != nil {
			return err
		}
		if err := fold(art, a, b); err != nil {
			return err
		}
		emit(Event{Event: "chunk", Done: b - w.Lo})
		if sealed++; w.DieAfter > 0 && sealed >= w.DieAfter {
			return errInjected
		}
	}

	if err := fpWorkerOut.Inject(); err != nil {
		return fmt.Errorf("fleet: worker %d sealing shard: %w", w.Worker, err)
	}
	data, err := shard.MarshalIndented()
	if err != nil {
		return err
	}
	if err := writeFileSync(w.Out, data, j.mode); err != nil {
		return err
	}
	emit(Event{Event: "done", Done: w.Hi - w.Lo})
	return nil
}

// WorkerMain is the fleet worker process entry point. Host binaries
// dispatch their `fleet-worker` argv to it (args excludes the subcommand
// name) and exit with its return value; the default launcher re-executes
// the running binary with that argv, so coordinator and workers are
// always the same build — which the artifact code-version merge gate then
// verifies end to end.
func WorkerMain(args []string) int {
	w, failpoints, err := parseWorkerArgs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet-worker:", err)
		return 2
	}
	if failpoints != "" {
		if err := failpoint.Arm(failpoints); err != nil {
			fmt.Fprintln(os.Stderr, "fleet-worker:", err)
			return 2
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = RunWorker(ctx, w, os.Stdout)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errInjected):
		return ExitInjected
	case errors.Is(err, ErrJournal):
		fmt.Fprintln(os.Stderr, err)
		return ExitJournal
	default:
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
}

// parseWorkerArgs parses a worker's argv (subcommand name excluded): the
// study's flags through Study.RegisterFlags, then the worker's own.
func parseWorkerArgs(args []string) (w WorkerSpec, failpoints string, err error) {
	fs := flag.NewFlagSet("fleet-worker", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // WorkerMain reports the error on one line
	w.RegisterFlags(fs)
	fs.IntVar(&w.Worker, "worker", 0, "shard index (event labeling)")
	fs.IntVar(&w.Lo, "lo", 0, "job slice start")
	fs.IntVar(&w.Hi, "hi", 0, "job slice end (exclusive)")
	fs.IntVar(&w.Chunk, "chunk", 1, "jobs per checkpoint")
	fs.StringVar(&w.Dir, "dir", "", "journal directory")
	fs.StringVar(&w.Out, "out", "", "shard artifact output file")
	fs.IntVar(&w.DieAfter, "die-after", 0, "fault injection: exit after N journaled chunks")
	fs.StringVar(&failpoints, "failpoints", "", "failpoint spec armed in this worker process (see internal/failpoint)")
	if err := fs.Parse(args); err != nil {
		return w, "", err
	}
	if w.Experiment == "" || w.Dir == "" || w.Out == "" {
		return w, "", errors.New("-experiment, -dir and -out are required")
	}
	return w, failpoints, nil
}
