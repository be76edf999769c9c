// Command bench is the repository's benchmark: five workloads, each run
// as fresh child processes of this binary, interleaved round-robin, with
// end-to-end metrics from untraced runs and a per-layer breakdown from
// traced ones. See README.md for the metric catalog and how to compare
// two results.
//
//	bash bench/run.sh --workload sweep-paper --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --out base.json                 # every workload
//	bash bench/run.sh compare base.json change.json
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/fleet"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/store"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case fleet.WorkerCommand:
			os.Exit(fleet.WorkerMain(os.Args[2:]))
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "golden":
			os.Exit(goldenMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

//go:embed golden.json
var goldenJSON []byte

// goldenDigests maps workload → seed → artifact digest of the study
// workloads' expected outputs. fleet-cycle's input ignores the seed and
// is keyed "fixed".
func goldenDigests() (map[string]map[string]string, error) {
	g := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func goldenKey(workload string, seed uint64) string {
	if workload == "fleet-cycle" {
		return "fixed"
	}
	return strconv.FormatUint(seed, 10)
}

// runRecord is one child run as the parent saw it.
type runRecord struct {
	Workload  string  `json:"workload"`
	Round     int     `json:"round"`
	Warmup    bool    `json:"warmup,omitempty"`
	Traced    bool    `json:"traced"`
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Error is why the run produced no result (exit status, no ready
	// signal, unparsable output).
	Error string `json:"error,omitempty"`
	childResult
	Unattributed float64 `json:"unattributed_frac,omitempty"`

	offset int64 // start, in ns after the invocation's start
}

func (r *runRecord) endToEnd(name string) float64 {
	switch name {
	case "setup_s":
		return r.SetupS
	case "wall_s":
		return r.WallS
	case "cpu_s":
		return r.CPUS
	case "peak_rss_mb":
		return r.PeakRSSMB
	}
	panic("unknown end-to-end metric " + name)
}

// stat is one end-to-end metric of one workload over its untraced runs.
type stat struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type workloadSummary struct {
	Name     string             `json:"name"`
	Why      string             `json:"why"`
	EndToEnd map[string]stat    `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Breakdown is the span counts, totals and self times of a traced
	// run, averaged over the traced runs.
	Breakdown []breakdownRow `json:"breakdown,omitempty"`
	Digest    string         `json:"digest,omitempty"`
	// Golden is "match" or "mismatch": whether every study run produced
	// golden.json's digest for the input set.
	Golden string `json:"golden,omitempty"`
	// ReadTail is the serve workloads' read latency tail, the median of
	// the untraced runs' tails.
	ReadTail  *tail    `json:"read_tail,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

type machineContext struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	LoadBefore string `json:"loadavg_before"`
	LoadAfter  string `json:"loadavg_after"`
}

type roundRecord struct {
	Round  int      `json:"round"`
	Warmup bool     `json:"warmup,omitempty"`
	Traced bool     `json:"traced"`
	Order  []string `json:"order"`
}

// result is the full record of one invocation, the input of compare.
type result struct {
	Machine   machineContext     `json:"machine"`
	Workloads []string           `json:"workloads"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Rounds    []roundRecord      `json:"rounds"`
	Runs      []runRecord        `json:"runs"`
	Summaries []*workloadSummary `json:"summaries"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		wl        = fs.String("workload", "all", "workload name, comma-separated names, or all")
		seed      = fs.Uint64("seed", 1, "seed of the generated inputs, taken modulo the number of input sets golden.json covers")
		seconds   = fs.Int("seconds", 20, "measuring time per workload")
		trace     = fs.Int("trace", 1, "1: also run traced rounds and report the per-layer metrics; 0: end-to-end metrics only")
		out       = fs.String("out", "", "write the full result (every run, summaries, machine context) as JSON; input of compare")
		traceFile = fs.String("trace-file", "", "write the traced runs' spans as Chrome trace-event JSON (opens in Perfetto or chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-file FILE]")
		return 2
	}
	ws, err := parseWorkloads(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	*seed %= inputSets
	golden, err := goldenDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	res := &result{Machine: machine(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	for _, w := range ws {
		res.Workloads = append(res.Workloads, w.Name)
	}
	t0 := time.Now()
	logf("bench: preparing inputs for %s (seed %d)", strings.Join(res.Workloads, ", "), *seed)
	in, err := prepareInputs(filepath.Join(work, "inputs"), *seed, ws)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: preparing inputs:", err)
		return 1
	}

	// Every round runs each workload once, reversing the order each round
	// so no workload always follows the same neighbour. Round 0 is a
	// warm-up: its runs are checked and recorded but left out of the
	// statistics, because the first exec of a freshly built binary pays
	// cold caches the later ones do not. Untraced rounds follow until at
	// least minTimedRounds have run and another would overrun the budget,
	// counting the traced round that, with tracing, ends the invocation.
	start := time.Now()
	budget := (time.Duration(*seconds) * time.Second * time.Duration(len(ws))).Seconds()
	var roundTimes []float64
	timed := 0
	for r := 0; ; r++ {
		warmup, traced := r == 0, false
		if timed >= minTimedRounds {
			next := median(roundTimes)
			if res.Trace {
				next *= 2
			}
			if time.Since(start).Seconds()+next > budget {
				if !res.Trace {
					break
				}
				traced = true
			}
		}
		order := append([]workload(nil), ws...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		rr := roundRecord{Round: r, Warmup: warmup, Traced: traced}
		rs := time.Now()
		for _, w := range order {
			rec := runChild(self, work, in, w.Name, *seed, traced, len(res.Runs))
			rec.Round, rec.Warmup = r, warmup
			rec.offset = rec.T0 - t0.UnixNano()
			res.Runs = append(res.Runs, rec)
			rr.Order = append(rr.Order, w.Name)
			logf("bench: round %2d %-12s warmup=%-5v traced=%-5v setup %.3fs wall %.3fs cpu %.3fs rss %.1fMB%s",
				r, w.Name, warmup, traced, rec.SetupS, rec.WallS, rec.CPUS, rec.PeakRSSMB, errSuffix(rec))
		}
		res.Rounds = append(res.Rounds, rr)
		roundTimes = append(roundTimes, time.Since(rs).Seconds())
		if traced {
			break
		}
		if !warmup {
			timed++
		}
	}
	res.Machine.LoadAfter = loadavg()

	for _, w := range ws {
		res.Summaries = append(res.Summaries, summarize(w, res, golden))
	}
	res.Correct = true
	for _, s := range res.Summaries {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
		if s.Failed > 0 {
			res.Correct = false
		}
	}
	printHuman(res)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *traceFile != "" {
		var procs []tracedProcess
		for _, r := range res.Runs {
			if r.Traced && r.Error == "" {
				procs = append(procs, tracedProcess{label: fmt.Sprintf("%s round %d", r.Workload, r.Round), offset: r.offset, spans: r.Spans})
			}
		}
		if err := writeChromeTrace(*traceFile, procs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := printSummaryLine(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func errSuffix(r runRecord) string {
	switch {
	case r.Error != "":
		return " ERROR: " + r.Error
	case r.Failed > 0:
		return fmt.Sprintf(" %d FAILED CHECK(S)", r.Failed)
	}
	return ""
}

func logf(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

func parseWorkloads(s string) ([]workload, error) {
	if s == "all" {
		return workloads, nil
	}
	var ws []workload
	for _, name := range strings.Split(s, ",") {
		w, ok := lookupWorkload(strings.TrimSpace(name))
		if !ok {
			names := make([]string, len(workloads))
			for i, w := range workloads {
				names[i] = w.Name
			}
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func machine() machineContext {
	m := machineContext{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		LoadBefore: loadavg(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	return strings.Join(f[:min(3, len(f))], " ")
}

// inputs are the generated inputs of one invocation, shared by its runs.
type inputs struct {
	dir string
	// SHA-256s of the /v1/summary bodies the serve workloads must serve:
	// serve-read's store, and serve-ingest's before and after its ingests.
	expectRead, expectBase, expectAll string
}

// prepareInputs builds from the seed the one-seed shards the selected
// serve workloads need, the store serve-read opens (the first readShards
// shards) and the one serve-ingest starts from (the first ingestBase,
// copied for each of its runs).
func prepareInputs(dir string, seed uint64, ws []workload) (*inputs, error) {
	in := &inputs{dir: dir}
	type storeSpec struct {
		name string
		n    int
	}
	shards := 0
	var stores []storeSpec
	for _, w := range ws {
		switch w.Name {
		case "serve-read":
			shards = max(shards, readShards)
			stores = append(stores, storeSpec{"store-read", readShards})
		case "serve-ingest":
			shards = max(shards, serveShards)
			stores = append(stores, storeSpec{"store-base", ingestBase})
		}
	}
	if shards == 0 {
		return in, nil
	}
	if err := os.MkdirAll(filepath.Join(dir, "shards"), 0o755); err != nil {
		return nil, err
	}
	cfg := config.SmallChip()
	cfg.Seed += seed * chipSeedStride
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < shards; i += runtime.NumCPU() {
				a, err := experiments.Run("multichip", experiments.Options{
					Cfg: cfg, Rows: serveShardRows, Seeds: serveShards, Parallel: 1, Workers: 1,
					Shard: i, ShardCount: serveShards,
				})
				if err == nil {
					err = a.WriteFile(shardFile(dir, i))
				}
				errs[i] = err
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var err error
	for _, e := range []struct {
		dst *string
		n   int
	}{{&in.expectRead, readShards}, {&in.expectBase, ingestBase}, {&in.expectAll, serveShards}} {
		if e.n <= shards {
			if *e.dst, err = expectedSummary(dir, e.n); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range stores {
		st, err := store.Open(filepath.Join(dir, s.name))
		if err != nil {
			return nil, err
		}
		for i := 0; i < s.n; i++ {
			if _, err := st.IngestFiles(shardFile(dir, i)); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

// expectedSummary is the SHA-256 of the /v1/summary body for the first n
// shards: results.MergeShards rendered at the stored axis.
func expectedSummary(dir string, n int) (string, error) {
	shards := make([]*results.Artifact, n)
	paths := make([]string, n)
	for i := range shards {
		paths[i] = shardFile(dir, i)
		a, err := results.ReadFile(paths[i])
		if err != nil {
			return "", err
		}
		shards[i] = a
	}
	merged, err := results.MergeShards(shards, paths)
	if err != nil {
		return "", err
	}
	gb, err := results.ParseGroupBy(merged.Meta.GroupBy)
	if err != nil {
		return "", err
	}
	body, err := merged.SummaryJSON(gb)
	if err != nil {
		return "", err
	}
	return sha256Hex(body), nil
}

// runChild runs one workload once in a fresh process and measures it
// from outside: wall clock from exec to exit, set-up from exec to the
// child's ready byte, CPU time from its rusage (which includes the fleet
// workers it reaped). Peak RSS comes from the child's own report (see
// peakRSSKB).
func runChild(self, work string, in *inputs, w string, seed uint64, traced bool, k int) runRecord {
	rec := runRecord{Workload: w, Traced: traced}
	dir := filepath.Join(work, fmt.Sprintf("run-%03d", k))
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		rec.Error = err.Error()
		return rec
	}
	if w == "serve-ingest" {
		if err := copyDir(filepath.Join(in.dir, "store-base", "objects"), filepath.Join(dir, "store", "objects")); err != nil {
			rec.Error = err.Error()
			return rec
		}
	}
	args := []string{"child", "-workload", w, "-seed", strconv.FormatUint(seed, 10), "-dir", dir, "-inputs", in.dir}
	switch w {
	case "serve-read":
		args = append(args, "-expect-initial", in.expectRead, "-expect-final", in.expectRead)
	case "serve-ingest":
		args = append(args, "-expect-initial", in.expectBase, "-expect-final", in.expectAll)
	}
	if traced {
		args = append(args, "-traced")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeoutSec*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	readyR, readyW, err := os.Pipe()
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	defer readyR.Close()
	cmd.ExtraFiles = []*os.File{readyW}
	start := time.Now()
	err = cmd.Start()
	readyW.Close()
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	readyAt := make(chan time.Time, 1)
	go func() {
		var b [1]byte
		n, _ := readyR.Read(b[:])
		t := time.Now()
		if n != 1 {
			t = time.Time{}
		}
		readyAt <- t
	}()
	werr := cmd.Wait()
	end := time.Now()
	ready := <-readyAt

	rec.WallS = end.Sub(start).Seconds()
	if ps := cmd.ProcessState; ps != nil {
		rec.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	}
	switch {
	case werr != nil:
		rec.Error = fmt.Sprintf("%v: %s", werr, lastLines(stderr.String(), 5))
	case ready.IsZero():
		rec.Error = "exited without signalling ready"
	default:
		rec.SetupS = ready.Sub(start).Seconds()
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &rec.childResult); err != nil {
			rec.Error = "unreadable child result: " + err.Error()
		}
		rec.PeakRSSMB = float64(rec.PeakRSSKB) / 1024
	}
	if rec.Error == "" && traced {
		rec.Unattributed = 1 - float64(topLevelCover(rec.Spans))/float64(end.Sub(start).Nanoseconds())
	}
	return rec
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], " | ")
}

// summarize checks one workload's runs and reduces them to its metrics.
func summarize(w workload, res *result, golden map[string]map[string]string) *workloadSummary {
	s := &workloadSummary{Name: w.Name, Why: w.Why, EndToEnd: map[string]stat{}}
	note := func(format string, a ...any) {
		if len(s.Failures) < 20 {
			s.Failures = append(s.Failures, fmt.Sprintf(format, a...))
		}
	}
	fail := func(format string, a ...any) {
		s.Failed++
		note(format, a...)
	}
	var ok, untraced, traced []*runRecord // ok: every run with a result
	for i := range res.Runs {
		r := &res.Runs[i]
		if r.Workload != w.Name {
			continue
		}
		s.Attempted += 1 + r.Attempted
		s.Failed += r.Failed
		for _, f := range r.Failures {
			note("round %d: %s", r.Round, f)
		}
		if r.Error != "" {
			fail("round %d: run failed: %s", r.Round, r.Error)
			continue
		}
		ok = append(ok, r)
		switch {
		case r.Warmup:
		case r.Traced:
			traced = append(traced, r)
		default:
			untraced = append(untraced, r)
		}
	}

	// Study outputs: every run, traced or not, must produce the golden
	// digest of the input set.
	if w.Name == "sweep-paper" || w.Name == "chipscan" || w.Name == "fleet-cycle" {
		s.Digest = golden[w.Name][goldenKey(w.Name, res.Seed)]
		s.Golden = "match"
		for _, r := range ok {
			if r.Digest != s.Digest {
				fail("round %d (traced=%v): artifact digest %.12s, want %.12s", r.Round, r.Traced, r.Digest, s.Digest)
				s.Golden = "mismatch"
			}
		}
	}
	// The simulated command counts and time repeat exactly or the model is
	// not deterministic. hbm.bitflips is left out: pooled devices carry
	// flips from the jobs they ran before, and which device runs which job
	// depends on timing, so it varies while the artifact does not.
	for _, r := range traced {
		for _, name := range []string{"hbm.acts", "hbm.reads", "hbm.refreshes", "hbm.trr_victim_refreshes", "hbm.sim_ms"} {
			if r.Layer[name] != traced[0].Layer[name] {
				fail("round %d: %s = %v, round %d read %v", r.Round, name, r.Layer[name], traced[0].Round, traced[0].Layer[name])
			}
		}
	}

	var tails []float64
	for _, r := range untraced {
		if r.ReadTail != nil {
			tails = append(tails, r.ReadTail.US)
			s.ReadTail = &tail{Quantile: r.ReadTail.Quantile, N: r.ReadTail.N}
		}
	}
	if s.ReadTail != nil {
		s.ReadTail.US = median(tails)
	}
	for _, m := range endToEnd {
		st := stat{Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		for _, r := range untraced {
			st.Values = append(st.Values, r.endToEnd(m.Name))
		}
		st.Q1, st.Median, st.Q3 = quartiles(st.Values)
		st.N = len(st.Values)
		s.EndToEnd[m.Name] = st
	}
	if len(traced) == 0 {
		return s
	}
	s.PerLayer = map[string]float64{}
	for _, m := range perLayer {
		var vs []float64
		for _, r := range traced {
			vs = append(vs, r.Layer[m.Name])
		}
		s.PerLayer[m.Name] = median(vs)
	}
	var tracedWall, unattributed, ingestMs []float64
	var spans [][]span
	for _, r := range traced {
		tracedWall = append(tracedWall, r.WallS)
		unattributed = append(unattributed, r.Unattributed)
		spans = append(spans, r.Spans)
	}
	// One run's ingests leave too few beyond p90, and tracing does not
	// touch the ingest path, so the percentiles pool every measured run.
	for _, r := range append(untraced, traced...) {
		ingestMs = append(ingestMs, r.IngestMs...)
	}
	if len(ingestMs) > 0 {
		sort.Float64s(ingestMs)
		s.PerLayer["serve.ingest_p50_ms"] = median(ingestMs)
		s.PerLayer["serve.ingest_p90_ms"] = ingestMs[int(math.Ceil(0.9*float64(len(ingestMs))))-1]
	}
	if u := s.EndToEnd["wall_s"].Median; u > 0 {
		s.PerLayer["bench.trace_overhead_frac"] = median(tracedWall)/u - 1
	}
	s.PerLayer["bench.unattributed_frac"] = median(unattributed)
	s.Breakdown = breakdown(spans)
	return s
}

func printHuman(res *result) {
	m := res.Machine
	logf("\nbench: %s, nproc %d, GOMAXPROCS %d, %s, load %s -> %s", m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.LoadBefore, m.LoadAfter)
	for _, s := range res.Summaries {
		logf("\n%s (%s): %d attempted, %d failed, golden %s", s.Name, s.Why, s.Attempted, s.Failed, s.Golden)
		for _, f := range s.Failures {
			logf("  FAILED: %s", f)
		}
		for _, d := range endToEnd {
			st := s.EndToEnd[d.Name]
			logf("  %-26s %10.4f %-6s [q1 %.4f, q3 %.4f, n %d, bound %.0f%%]", d.Name, st.Median, d.Unit, st.Q1, st.Q3, st.N, d.Bound*100)
		}
		if t := s.ReadTail; t != nil {
			logf("  read latency p%g: %.1f us (median of runs of %d requests; the highest percentile with ten beyond it)", t.Quantile*100, t.US, t.N)
		}
		if s.PerLayer == nil {
			continue
		}
		for _, d := range perLayer {
			logf("  %-26s %12.4f %s", d.Name, s.PerLayer[d.Name], d.Unit)
		}
		logf("  %-26s %8s %10s %10s", "span (per traced run)", "count", "total ms", "self ms")
		for _, b := range s.Breakdown {
			logf("  %-26s %8.1f %10.3f %10.3f", b.Span, b.Count, b.TotalMs, b.SelfMs)
		}
	}
}

// printSummaryLine prints the one-line result that automated runners
// read: end-to-end metrics without tracing, per-layer metrics with it.
// A multi-workload invocation prefixes each name with its workload.
func printSummaryLine(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, s := range res.Summaries {
		prefix := ""
		if len(res.Summaries) > 1 {
			prefix = s.Name + "/"
		}
		if res.Trace {
			for _, d := range perLayer {
				metrics[prefix+d.Name] = value{s.PerLayer[d.Name], d.Unit}
			}
			continue
		}
		for _, d := range endToEnd {
			metrics[prefix+d.Name] = value{s.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	var r result
	if err == nil {
		err = json.Unmarshal(data, &r)
	}
	if err != nil {
		return nil, fmt.Errorf("reading result %s: %w", path, err)
	}
	return &r, nil
}

// goldenMain recomputes the golden digests of every input set in-process
// with the registry's own Run and prints them: `bench golden > golden.json`.
func goldenMain(args []string) int {
	if len(args) != 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench golden > golden.json")
		return 2
	}
	g := map[string]map[string]string{}
	add := func(w, key, name string, o experiments.Options) error {
		a, err := experiments.Run(name, o)
		// Each seed is a new pool key; without draining, every seed's
		// warmed paper-chip devices stay resident.
		engine.SharedPool.Drain()
		if err != nil {
			return err
		}
		d, err := artifactDigest(a)
		if g[w] == nil {
			g[w] = map[string]string{}
		}
		g[w][key] = d
		return err
	}
	name, o := fleetReference()
	if err := add("fleet-cycle", "fixed", name, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench golden:", err)
		return 1
	}
	for s := uint64(0); s < inputSets; s++ {
		for _, w := range []string{"sweep-paper", "chipscan"} {
			name, o := studyOptions(w, s)
			if err := add(w, goldenKey(w, s), name, o); err != nil {
				fmt.Fprintln(os.Stderr, "bench golden:", err)
				return 1
			}
		}
		logf("bench golden: seed %d", s)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench golden:", err)
		return 1
	}
	if _, err := os.Stdout.Write(append(data, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, "bench golden:", err)
		return 1
	}
	return 0
}
