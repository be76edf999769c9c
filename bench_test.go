package hbmrh_test

// Benchmark harness: one benchmark per paper artifact (Table 1, Figs. 3-5
// and Fig. 6 of Section 4, plus the Section 5 U-TRR study), each running a
// scaled-down but structurally complete regeneration of that artifact per
// iteration, plus ablation benchmarks for the design choices DESIGN.md
// calls out. Full-resolution regeneration is cmd/characterize.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	hbmrh "github.com/safari-repro/hbmrh"
	"github.com/safari-repro/hbmrh/internal/results"
)

func benchHarness(b *testing.B) *hbmrh.Harness {
	b.Helper()
	h, err := hbmrh.NewHarnessFromConfig(hbmrh.SmallChip())
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func midSubarrayRow(h *hbmrh.Harness) int {
	layout := h.Device().Config().Layout()
	return layout.Start(1) + layout.Size(1)/2
}

// BenchmarkTable1Patterns measures one full per-row BER experiment for
// each of Table 1's four data patterns.
func BenchmarkTable1Patterns(b *testing.B) {
	h := benchHarness(b)
	bank := hbmrh.BankAddr{Channel: 7, PseudoChannel: 0, Bank: 0}
	row := midSubarrayRow(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range hbmrh.Table1() {
			if _, err := h.BER(bank, row, p, hbmrh.DefaultHammers); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigs3to5Sweep regenerates Figs. 3-5 (BER and HCfirst box
// plots by channel and data pattern, the BER-vs-row-address profile, and
// their headline numbers) from a fresh sweep.
func BenchmarkFigs3to5Sweep(b *testing.B) {
	benchExperiment(b, "sweep", hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Rows: 2})
}

// BenchmarkFig6BankScatter regenerates Fig. 6 (per-bank mean BER vs CV
// over every bank of the stack).
func BenchmarkFig6BankScatter(b *testing.B) {
	benchExperiment(b, "fig6", hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Rows: 2})
}

// BenchmarkSec5UTRR regenerates the Section 5 TRR-uncovering study.
func BenchmarkSec5UTRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := hbmrh.RunExperiment("trrstudy", hbmrh.ExperimentOptions{
			Cfg:        hbmrh.SmallChip(),
			Bank:       hbmrh.BankAddr{Channel: 1, PseudoChannel: 0, Bank: 0},
			Iterations: 40,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, periodic := hbmrh.TRRPeriod(a); !periodic {
			b.Fatal("TRR period not uncovered")
		}
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md §5) ---

// BenchmarkAblationHammerFastPath measures a 4K-hammer program with the
// interpreter's bulk loop application enabled.
func BenchmarkAblationHammerFastPath(b *testing.B) {
	benchHammerPath(b, false)
}

// BenchmarkAblationHammerSlowPath measures the identical program with
// per-iteration execution, quantifying what the fast path buys.
func BenchmarkAblationHammerSlowPath(b *testing.B) {
	benchHammerPath(b, true)
}

func benchHammerPath(b *testing.B, disableFast bool) {
	d, err := hbmrh.Open(hbmrh.SmallChip())
	if err != nil {
		b.Fatal(err)
	}
	layout := d.Config().Layout()
	row := layout.Start(1) + layout.Size(1)/2
	bank := hbmrh.BankAddr{Channel: 0, PseudoChannel: 0, Bank: 0}
	m := d.Mapper()
	bd := hbmrh.NewBenderBuilder(d)
	bd.HammerDouble(bank, m.ToLogical(row-1), m.ToLogical(row+1), 4096)
	prog, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	runner := hbmrh.NewBenderRunner(d)
	runner.DisableFastPath = disableFast
	tm := d.Config().Timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(d, prog); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := d.AdvanceTime(tm.TRP); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkAblationECCOn measures the BER experiment with on-die ECC
// enabled (single-bit corrections at sense-out).
func BenchmarkAblationECCOn(b *testing.B) { benchECC(b, true) }

// BenchmarkAblationECCOff measures the identical experiment with ECC off,
// the paper's configuration.
func BenchmarkAblationECCOff(b *testing.B) { benchECC(b, false) }

func benchECC(b *testing.B, eccOn bool) {
	h := benchHarness(b) // harness disables ECC
	d := h.Device()
	if eccOn {
		for ch := 0; ch < d.Geometry().Channels; ch++ {
			if err := d.WriteModeRegister(ch, hbmrh.MRECC, hbmrh.MRECCEnable); err != nil {
				b.Fatal(err)
			}
		}
	}
	bank := hbmrh.BankAddr{Channel: 7, PseudoChannel: 0, Bank: 0}
	row := midSubarrayRow(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.BER(bank, row, hbmrh.Table1()[1], hbmrh.DefaultHammers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRefreshBudgetGuard measures the BER path with the
// 27 ms refresh-window guard active (the default) vs disabled.
func BenchmarkAblationRefreshBudgetGuard(b *testing.B) {
	for _, guard := range []bool{true, false} {
		name := "off"
		if guard {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			h := benchHarness(b)
			h.EnforceBudget = guard
			bank := hbmrh.BankAddr{Channel: 3, PseudoChannel: 0, Bank: 0}
			row := midSubarrayRow(h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.BER(bank, row, hbmrh.Table1()[0], hbmrh.DefaultHammers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Engine benchmarks (the shared parallel execution engine) ---

// benchEngineSweep regenerates the Figs. 3-5 sweep at a fixed worker
// count; the serial/parallel pair quantifies multicore scaling of the
// engine's per-channel sharding.
func benchEngineSweep(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := hbmrh.RunExperiment("sweep", hbmrh.ExperimentOptions{
			Cfg:      hbmrh.SmallChip(),
			Rows:     4,
			Parallel: workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSweepSerial runs the sweep on a single worker.
func BenchmarkEngineSweepSerial(b *testing.B) { benchEngineSweep(b, 1) }

// BenchmarkEngineSweepParallel runs the sweep with one worker per CPU.
func BenchmarkEngineSweepParallel(b *testing.B) { benchEngineSweep(b, 0) }

// BenchmarkEngineFig6Parallel exercises the engine's finest sharding:
// one job per bank across the whole stack.
func BenchmarkEngineFig6Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := hbmrh.RunExperiment("fig6", hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Rows: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePoolCold pays full chip instantiation every run by
// draining the warmed-device pool first.
func BenchmarkEnginePoolCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hbmrh.DrainEnginePool()
		if _, err := hbmrh.RunExperiment("sweep", hbmrh.ExperimentOptions{
			Cfg:      hbmrh.SmallChip(),
			Rows:     2,
			Parallel: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePoolWarm reuses pool-warmed devices across runs, the
// steady state of a figure pipeline; the delta against PoolCold is what
// device reuse buys per run.
func BenchmarkEnginePoolWarm(b *testing.B) {
	run := func() error {
		_, err := hbmrh.RunExperiment("sweep", hbmrh.ExperimentOptions{
			Cfg:      hbmrh.SmallChip(),
			Rows:     2,
			Parallel: 1,
		})
		return err
	}
	if err := run(); err != nil { // warm the pool outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineChipscanStream measures the fleet path: chip instances
// measured in parallel and folded through the engine's ordered streaming
// reducer into per-region aggregates (the multichip registry scan).
func BenchmarkEngineChipscanStream(b *testing.B) {
	cfg := hbmrh.SmallChip()
	cfg.Seed = 101
	for i := 0; i < b.N; i++ {
		a, err := hbmrh.RunExperiment("multichip", hbmrh.ExperimentOptions{
			Cfg:      cfg,
			Seeds:    6,
			Rows:     2,
			Parallel: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Groups) == 0 {
			b.Fatal("fleet aggregates missing")
		}
	}
}

// BenchmarkArtifactCodec measures the artifact wire form where the
// store pays for it on every ingest and replay: decoding a shard
// artifact and re-encoding it canonically, in MB/s of artifact bytes.
// The input is the committed store test shard, re-encoded in the file
// form shard files and store objects use (71 KB).
func BenchmarkArtifactCodec(b *testing.B) {
	committed, err := os.ReadFile(filepath.Join("internal", "store", "testdata", "shard-1of2.json"))
	if err != nil {
		b.Fatal(err)
	}
	a, err := results.Decode(committed)
	if err != nil {
		b.Fatal(err)
	}
	data, err := a.MarshalIndented()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := results.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := a.MarshalIndented(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreOpen measures store replay, most of a query server's
// start-up: Open on a directory of 32 one-seed small-chip multichip
// shards (about 70 KB each), the store shape the serve benchmarks open.
// Every object is read, decoded, re-encoded to its canonical bytes,
// hashed against its file name and admitted.
func BenchmarkStoreOpen(b *testing.B) {
	const shards = 32
	dir := b.TempDir()
	st, err := hbmrh.OpenArtifactStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		a, err := hbmrh.RunExperiment("multichip", hbmrh.ExperimentOptions{
			Cfg: hbmrh.SmallChip(), Rows: 1, Seeds: shards, Parallel: 1, Workers: 1,
			Shard: i, ShardCount: shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		data, err := a.MarshalIndented()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Ingest(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for b.Loop() {
		re, err := hbmrh.OpenArtifactStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if q := re.Quarantined(); len(q) != 0 {
			b.Fatalf("replay quarantined %+v", q)
		}
	}
}

// --- Extension benchmarks (Section 6 future work, implemented) ---

// benchExperiment runs one registry experiment per iteration and renders
// its report, as `characterize -experiment NAME` does.
func benchExperiment(b *testing.B, name string, o hbmrh.ExperimentOptions) {
	for i := 0; i < b.N; i++ {
		a, err := hbmrh.RunExperiment(name, o)
		if err != nil {
			b.Fatal(err)
		}
		_ = hbmrh.RenderExperimentArtifact(a)
	}
}

// BenchmarkExtRowPress regenerates the aggressor-on-time study.
func BenchmarkExtRowPress(b *testing.B) {
	benchExperiment(b, "rowpress", hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Rows: 3})
}

// BenchmarkExtTempSweep regenerates the temperature-sensitivity study,
// PID settling included.
func BenchmarkExtTempSweep(b *testing.B) {
	benchExperiment(b, "tempsweep", hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Rows: 3})
}

// BenchmarkExtCrossChannel regenerates the interference probe.
func BenchmarkExtCrossChannel(b *testing.B) {
	benchExperiment(b, "crosschannel", hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Rows: 2})
}

// BenchmarkExtAdaptiveDefense measures the guarded hammering path under
// the vulnerability-adaptive preventive-refresh policy.
func BenchmarkExtAdaptiveDefense(b *testing.B) {
	h, err := hbmrh.NewHarnessFromConfig(hbmrh.SmallChip())
	if err != nil {
		b.Fatal(err)
	}
	guard := hbmrh.NewDefenseGuard(h, hbmrh.UniformPolicy{T: 8000})
	m := h.Device().Mapper()
	row := midSubarrayRow(h)
	bank := hbmrh.BankAddr{Channel: 7, PseudoChannel: 0, Bank: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := guard.Hammer(bank, m.ToLogical(row-1), m.ToLogical(row+1), 64000); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWriter is a reusable ResponseWriter for the hot-cache
// benchmarks: the header map persists across iterations (reset between
// them) and bodies are counted, not stored, so the measurement is the
// serving data plane rather than httptest.NewRecorder's per-iteration
// buffer growth.
type benchWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *benchWriter) WriteHeader(code int)        { w.status = code }
func (w *benchWriter) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
	w.status, w.n = http.StatusOK, 0
}

// queryBenchHandler builds the shared fixture: a store from four fleet
// shards behind the query service, with one warm /v1/summary entry.
func queryBenchHandler(b *testing.B) http.Handler {
	b.Helper()
	st, err := hbmrh.OpenArtifactStore("")
	if err != nil {
		b.Fatal(err)
	}
	for shard := 0; shard < 4; shard++ {
		a, err := hbmrh.RunExperiment("rowpress", hbmrh.ExperimentOptions{
			Cfg: hbmrh.SmallChip(), Rows: 1, Hammers: 60000,
			Shard: shard, ShardCount: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		data, err := a.MarshalIndented()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Ingest(data); err != nil {
			b.Fatal(err)
		}
	}
	handler := hbmrh.NewQueryServer(st).Handler()
	warm := httptest.NewRecorder()
	handler.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, "/v1/summary", nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", warm.Code, warm.Body.String())
	}
	return handler
}

// BenchmarkQueryHotCache measures the query service's cached read path:
// every iteration a full HTTP round trip that must be served from the
// generation-keyed variant cache without re-rendering — the path the
// ≤2 allocs/op pin in internal/query guards.
func BenchmarkQueryHotCache(b *testing.B) {
	handler := queryBenchHandler(b)
	req := httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
	w := &benchWriter{h: make(http.Header, 16)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			b.Fatal("cache read failed")
		}
	}
}

// BenchmarkQueryHotCacheGzip is the same hit served from the
// pre-compressed variant: Accept-Encoding: gzip must cost a body copy,
// never a per-request compression.
func BenchmarkQueryHotCacheGzip(b *testing.B) {
	handler := queryBenchHandler(b)
	req := httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w := &benchWriter{h: make(http.Header, 16)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			b.Fatal("gzip cache read failed")
		}
	}
}

// BenchmarkQueryHotCache304 is the revalidation fast path: a matching
// If-None-Match answered 304 without touching either body.
func BenchmarkQueryHotCache304(b *testing.B) {
	handler := queryBenchHandler(b)
	probe := httptest.NewRecorder()
	handler.ServeHTTP(probe, httptest.NewRequest(http.MethodGet, "/v1/summary", nil))
	etag := probe.Header().Get("ETag")
	if etag == "" {
		b.Fatal("no ETag on the warm entry")
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
	req.Header.Set("If-None-Match", etag)
	w := &benchWriter{h: make(http.Header, 16)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		handler.ServeHTTP(w, req)
		if w.status != http.StatusNotModified || w.n != 0 {
			b.Fatal("revalidation missed")
		}
	}
}
