package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/fleet"
	"github.com/safari-repro/hbmrh/internal/hbm"
	"github.com/safari-repro/hbmrh/internal/query"
	"github.com/safari-repro/hbmrh/internal/report"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/store"
)

// readyFD is the descriptor on which a child signals the parent that its
// set-up is done: one byte, then close. The parent timestamps the read.
const readyFD = 3

// childResult is what one child run reports to the parent, as the last
// line of its standard output.
type childResult struct {
	// Digest is the SHA-256 of a study artifact's chips and groups.
	Digest    string             `json:"digest,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Layer     map[string]float64 `json:"layer"`
	// PeakRSSKB is the largest resident set of the child and of the fleet
	// workers it reaped (peakRSSKB).
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// ReadTail is the serve workloads' open-loop read latency at the
	// highest percentile with ten requests beyond it.
	ReadTail *tail `json:"read_tail,omitempty"`
	// IngestMs are serve-ingest's ingest latencies; the parent pools them
	// over measured runs, since one run's 48 leave too few beyond p90.
	IngestMs []float64 `json:"ingest_ms,omitempty"`
	// T0 is the wall-clock time span offsets count from.
	T0    int64  `json:"t0_unix_ns"`
	Spans []span `json:"spans,omitempty"`
}

type child struct {
	workload string
	seed     uint64
	dir      string // this run's scratch directory
	inputs   string // the invocation's generated inputs
	expect   struct{ initial, final string }

	tr    *tracer
	res   childResult
	ready func()
}

// fail records one failed check.
func (c *child) fail(format string, a ...any) {
	c.res.Failed++
	if len(c.res.Failures) < 20 {
		c.res.Failures = append(c.res.Failures, fmt.Sprintf(format, a...))
	}
}

// childMain runs one workload once and prints its childResult.
func childMain(args []string) int {
	t0 := time.Now()
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	c := &child{res: childResult{Layer: map[string]float64{}, T0: t0.UnixNano()}}
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Uint64Var(&c.seed, "seed", 1, "input seed")
	traced := fs.Bool("traced", false, "record spans")
	fs.StringVar(&c.dir, "dir", "", "scratch directory of this run")
	fs.StringVar(&c.inputs, "inputs", "", "directory of the invocation's generated inputs")
	fs.StringVar(&c.expect.initial, "expect-initial", "", "serve: SHA-256 of /v1/summary before any ingest")
	fs.StringVar(&c.expect.final, "expect-final", "", "serve: SHA-256 of /v1/summary at the end")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced {
		c.tr = newTracer(t0, fmt.Sprintf("%s/seed-%d/pid-%d", c.workload, c.seed, os.Getpid()))
	}
	readyFile := os.NewFile(readyFD, "ready")
	var once sync.Once
	c.ready = func() {
		once.Do(func() {
			readyFile.Write([]byte{'r'})
			readyFile.Close()
		})
	}
	c.tr.add("bench.init", 0, 0, c.tr.since())

	var err error
	switch c.workload {
	case "sweep-paper", "chipscan":
		err = c.study()
	case "fleet-cycle":
		err = c.fleetCycle()
	case "serve-read":
		err = c.serveRead()
	case "serve-ingest":
		err = c.serveIngest()
	default:
		err = fmt.Errorf("unknown workload %q", c.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", c.workload, err)
		return 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.res.Layer["go.alloc_mb"] = float64(ms.TotalAlloc) / 1e6
	c.res.Layer["go.gc_cycles"] = float64(ms.NumGC)
	c.res.Layer["go.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	c.res.PeakRSSKB = peakRSSKB()
	c.res.Spans = c.tr.done()
	for k, v := range spanMetrics(c.res.Spans) {
		c.res.Layer[k] = v
	}
	if err := json.NewEncoder(os.Stdout).Encode(c.res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// peakRSSKB is the high-water resident set of this process after its exec
// (VmHWM) or of any child it reaped, whichever is larger. The parent
// cannot take it from wait4's rusage: exec folds the spawning process's
// high-water mark into the child's, so a child smaller than the
// benchmark parent would report the parent's size.
func peakRSSKB() int64 {
	var peak int64
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				peak, _ = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		peak = max(peak, ru.Maxrss)
	}
	return peak
}

// spanMetrics derives the per-layer metrics that are plain span totals.
func spanMetrics(spans []span) map[string]float64 {
	total := map[string]int64{}
	count := map[string]int{}
	maxDur := map[string]int64{}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		count[s.Name]++
		maxDur[s.Name] = max(maxDur[s.Name], d)
	}
	ms := func(name string) float64 { return float64(total[name]) / 1e6 }
	return map[string]float64{
		"experiments.plan_ms":   ms("experiments.plan"),
		"experiments.finish_ms": ms("experiments.finish"),
		"results.encode_ms":     ms("results.encode"),
		"store.open_ms":         ms("store.open"),
		"fleet.launches":        float64(count["fleet.launch"]),
		"fleet.launch_ms":       ms("fleet.launch"),
		"fleet.worker_max_s":    float64(maxDur["fleet.worker"]) / 1e9,
		"fleet.tail_ms":         ms("fleet.tail"),
	}
}

// studyOptions maps a study workload and seed to its registry run.
func studyOptions(workload string, seed uint64) (string, experiments.Options) {
	switch workload {
	case "sweep-paper":
		cfg := config.PaperChip()
		cfg.Seed += seed
		return "sweep", experiments.Options{Cfg: cfg, Rows: sweepRows, Parallel: studyParallel}
	case "chipscan":
		cfg := config.SmallChip()
		cfg.Seed += seed * chipSeedStride
		return "multichip", experiments.Options{Cfg: cfg, Rows: chipscanRows, Seeds: chipscanSeeds, Parallel: studyParallel}
	}
	panic("studyOptions: not a study workload: " + workload)
}

// fleetStudy is fleet-cycle's study. fleet.Study carries a chip preset,
// not a seed, so this workload's input does not depend on -seed.
func fleetStudy() fleet.Study {
	return fleet.Study{Experiment: "multichip", Chip: "small", Rows: fleetRows, Seeds: fleetSeeds, JobWorkers: 1, Parallel: 1}
}

// fleetReference is the single-process run fleet-cycle's merged artifact
// must equal.
func fleetReference() (string, experiments.Options) {
	return "multichip", experiments.Options{Cfg: config.SmallChip(), Rows: fleetRows, Seeds: fleetSeeds, Workers: 1, Parallel: 1}
}

// study runs sweep-paper or chipscan. Untraced runs call the registry's
// own Run; traced runs replay its plan with a span around every layer
// call, and the parent checks both against the same golden digest.
func (c *child) study() error {
	name, o := studyOptions(c.workload, c.seed)
	var a *results.Artifact
	var err error
	if c.tr == nil {
		if _, err = experiments.Describe(name, o); err != nil {
			return err
		}
		c.ready()
		a, err = experiments.Run(name, o)
	} else {
		a, err = c.replay(name, o)
	}
	if err != nil {
		return err
	}
	return c.exportArtifact(a)
}

// exportArtifact writes the artifact file as `characterize -artifact`
// does, then digests it.
func (c *child) exportArtifact(a *results.Artifact) error {
	enc := c.tr.open("results.encode", 0)
	data, err := a.MarshalIndented()
	if err == nil {
		err = os.WriteFile(filepath.Join(c.dir, "artifact.json"), data, 0o644)
	}
	c.tr.close(enc)
	if err != nil {
		return err
	}
	c.res.Layer["results.artifact_bytes"] = float64(len(data))
	dg := c.tr.open("bench.digest", 0)
	defer c.tr.close(dg)
	c.res.Digest, err = artifactDigest(a)
	c.res.Attempted++
	return err
}

// artifactDigest is the SHA-256 of an artifact's chips and groups. Meta
// is left out: it carries the build's VCS stamp.
func artifactDigest(a *results.Artifact) (string, error) {
	data, err := json.Marshal(struct {
		Chips  []results.ChipRecord `json:"chips"`
		Groups []results.Group      `json:"groups"`
	}{a.Chips, a.Groups})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func (c *child) replay(name string, o experiments.Options) (*results.Artifact, error) {
	e, err := experiments.Lookup(name)
	if err != nil {
		return nil, err
	}
	ps := c.tr.open("experiments.plan", 0)
	p, err := e.Plan(o)
	c.tr.close(ps)
	if err != nil {
		return nil, err
	}
	c.ready()
	return replayPlan(c.tr, p, o, c.res.Layer)
}

// jobOut carries one job's payload to the fold with its timing and the
// device counters it moved.
type jobOut struct {
	v        any
	start    int64
	end      int64
	counters hbm.Stats
	simPS    int64
}

// replayPlan executes a plan the way the registry's executePlan does —
// ordered reduce over every job, fold in index order, then Finish — with
// spans around each Job.Run, Fold.Add and Finish, and fills layer with
// the engine and hbm metrics. tr must not be nil.
func replayPlan(tr *tracer, p *experiments.Plan, o experiments.Options, layer map[string]float64) (*results.Artifact, error) {
	n := len(p.Jobs)
	fold := p.NewFold(0, n)
	weights := make([]float64, n)
	for i, j := range p.Jobs {
		weights[i] = max(j.Weight, 0)
		if weights[i] == 0 {
			weights[i] = 1
		}
	}
	eo := engine.Options{Ctx: o.Ctx, Workers: o.Parallel, OnProgress: o.Progress, Planner: o.Planner, Weights: weights}
	pool0 := engine.SharedPool.Stats()

	var (
		jobDur            []float64
		busy, wait, folds int64
		counters          hbm.Stats
		simPS             int64
	)
	redStart := tr.since()
	red := tr.open("engine.reduce", 0)
	run := func(ctx context.Context, h *core.Harness, i int) (jobOut, error) {
		out := jobOut{start: tr.since()}
		var c0 hbm.Stats
		var t0 int64
		if h != nil {
			c0, t0 = h.Device().Stats(), h.Device().Now()
		}
		v, err := p.Jobs[i].Run(ctx, h)
		if h != nil {
			out.counters = statsDelta(h.Device().Stats(), c0)
			out.simPS = h.Device().Now() - t0
		}
		out.v, out.end = v, tr.since()
		tr.add("engine.job", red, out.start, out.end)
		return out, err
	}
	add := func(i int, r jobOut) error {
		start := tr.since()
		err := fold.Add(i, r.v)
		end := tr.since()
		tr.add("engine.fold", red, start, end)
		d := r.end - r.start
		jobDur = append(jobDur, float64(d))
		busy += d + end - start
		folds += end - start
		wait += start - r.end
		counters = statsSum(counters, r.counters)
		simPS += r.simPS
		return err
	}
	var err error
	if p.Harness {
		err = engine.ReduceHarness(eo, p.Cfg, n, run, add)
	} else {
		err = engine.Reduce(eo, n, func(ctx context.Context, i int) (jobOut, error) { return run(ctx, nil, i) }, add)
	}
	redEnd := tr.close(red)
	if err != nil {
		return nil, err
	}
	fin := tr.open("experiments.finish", 0)
	a, err := fold.Finish()
	tr.close(fin)
	if err != nil {
		return nil, err
	}

	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	pool1 := engine.SharedPool.Stats()
	sort.Float64s(jobDur)
	var jobSum float64
	for _, d := range jobDur {
		jobSum += d
	}
	layer["engine.job_busy_s"] = jobSum / 1e9
	layer["engine.job_p50_ms"] = median(jobDur) / 1e6
	layer["engine.job_max_ms"] = jobDur[len(jobDur)-1] / 1e6
	layer["engine.fold_s"] = float64(folds) / 1e9
	layer["engine.fold_wait_s"] = float64(wait) / 1e9
	layer["engine.worker_idle_frac"] = 1 - float64(busy)/(float64(workers)*float64(redEnd-redStart))
	layer["engine.pool_created"] = float64(pool1.Created - pool0.Created)
	layer["engine.pool_reused"] = float64(pool1.Reused - pool0.Reused)
	if p.Harness {
		layer["hbm.acts"] = float64(counters.Acts)
		layer["hbm.reads"] = float64(counters.Reads)
		layer["hbm.refreshes"] = float64(counters.Refreshes)
		layer["hbm.trr_victim_refreshes"] = float64(counters.TRRVictimRefreshes)
		layer["hbm.bitflips"] = float64(counters.BitflipsCommitted)
		layer["hbm.sim_ms"] = float64(simPS) / 1e9
		if counters.Acts > 0 {
			layer["hbm.host_ns_per_act"] = jobSum / float64(counters.Acts)
		}
	}
	return a, nil
}

func statsDelta(a, b hbm.Stats) hbm.Stats {
	return hbm.Stats{
		Acts: a.Acts - b.Acts, Reads: a.Reads - b.Reads, Refreshes: a.Refreshes - b.Refreshes,
		TRRVictimRefreshes: a.TRRVictimRefreshes - b.TRRVictimRefreshes,
		BitflipsCommitted:  a.BitflipsCommitted - b.BitflipsCommitted,
	}
}

func statsSum(a, b hbm.Stats) hbm.Stats {
	return hbm.Stats{
		Acts: a.Acts + b.Acts, Reads: a.Reads + b.Reads, Refreshes: a.Refreshes + b.Refreshes,
		TRRVictimRefreshes: a.TRRVictimRefreshes + b.TRRVictimRefreshes,
		BitflipsCommitted:  a.BitflipsCommitted + b.BitflipsCommitted,
	}
}

// fleetCycle runs a journaled fleet into a fresh store, exports the
// merged artifact, and reads the summary and CSV cold from the store.
func (c *child) fleetCycle() error {
	name, o := fleetReference()
	ps := c.tr.open("experiments.plan", 0)
	_, err := experiments.Describe(name, o)
	c.tr.close(ps)
	if err != nil {
		return err
	}
	so := c.tr.open("store.open", 0)
	st, err := store.Open(filepath.Join(c.dir, "store"))
	c.tr.close(so)
	if err != nil {
		return err
	}
	c.ready()

	spec := fleet.Spec{Study: fleetStudy(), Workers: fleetWorkers, Chunk: 1, Dir: filepath.Join(c.dir, "fleet"), Store: st}
	run := c.tr.open("fleet.run", 0)
	tl := &timedLauncher{tr: c.tr, parent: run}
	var chunkGaps []float64
	if c.tr != nil {
		spec.Launcher = tl
		last := c.tr.since()
		spec.Progress = func(engine.Progress) {
			now := c.tr.since()
			chunkGaps = append(chunkGaps, float64(now-last))
			last = now
		}
	}
	merged, err := fleet.Run(spec)
	end := c.tr.close(run)
	if err != nil {
		return err
	}
	if c.tr != nil {
		c.tr.add("fleet.tail", run, tl.lastExit, end)
		c.res.Layer["fleet.chunk_p50_ms"] = median(chunkGaps) / 1e6
	}
	if err := c.exportArtifact(merged); err != nil {
		return err
	}

	gb, err := results.ParseGroupBy(merged.Meta.GroupBy)
	if err != nil {
		return err
	}
	wantSummary, err := merged.SummaryJSON(gb)
	if err != nil {
		return err
	}
	headers, rows, err := merged.SummaryCSV(gb)
	if err != nil {
		return err
	}
	var wantCSV bytes.Buffer
	if err := report.WriteCSV(&wantCSV, headers, rows); err != nil {
		return err
	}
	srv := query.New(st)
	h := srv.Handler()
	var cold []float64
	for _, r := range []struct {
		ep   string
		want []byte
	}{{"summary", wantSummary}, {"csv", wantCSV.Bytes()}} {
		rs := c.tr.open("query."+r.ep, 0)
		t := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/"+r.ep, nil))
		lat := time.Since(t)
		c.tr.close(rs)
		c.res.Attempted++
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), r.want) {
			c.fail("fleet-cycle: cold /v1/%s (status %d) differs from the merged artifact's render", r.ep, rec.Code)
		}
		us := float64(lat.Nanoseconds()) / 1e3
		c.res.Layer["query."+r.ep+".p50_us"] = us
		c.res.Layer["query."+r.ep+".p99_us"] = us
		cold = append(cold, float64(lat.Nanoseconds())/1e6)
	}
	qs := srv.Stats()
	c.res.Layer["query.hits"] = float64(qs.Hits)
	c.res.Layer["query.misses"] = float64(qs.Misses)
	c.res.Layer["query.cold_render_ms"] = median(cold)
	c.res.Layer["store.generations"] = float64(st.Generation())
	return nil
}

// timedLauncher starts fleet workers through the local launcher and
// records a span for each launch and each worker's life.
type timedLauncher struct {
	tr     *tracer
	parent int

	mu       sync.Mutex
	lastExit int64
}

func (l *timedLauncher) Start(ctx context.Context, argv []string, stdout, stderr io.Writer) (fleet.Proc, error) {
	start := l.tr.since()
	p, err := fleet.LocalLauncher{}.Start(ctx, argv, stdout, stderr)
	l.tr.add("fleet.launch", l.parent, start, l.tr.since())
	if err != nil {
		return nil, err
	}
	return &timedProc{Proc: p, l: l, start: start}, nil
}

type timedProc struct {
	fleet.Proc
	l     *timedLauncher
	start int64
}

func (p *timedProc) Wait() error {
	err := p.Proc.Wait()
	end := p.l.tr.since()
	p.l.tr.add("fleet.worker", p.l.parent, p.start, end)
	p.l.mu.Lock()
	p.l.lastExit = max(p.l.lastExit, end)
	p.l.mu.Unlock()
	return err
}
