package main

// The benchmark's catalog. BENCHMARK.json at the repository root repeats
// the workload names and whys and every metric's unit, direction and
// bound; TestCatalogMatchesBenchmarkJSON keeps the two identical.

// workload is one named input set the benchmark runs.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workload{
	{"sweep-paper", "paper-chip sweep, 8 rows per region on 2 workers: sense, bender and probe do the work, and 8 unequal channel jobs make it tail-bound"},
	{"chipscan", "32 small chips, 2 rows each, on 2 workers: many short jobs that each build a chip, so construction, the device pool, the ordered reduce and the fold dominate"},
	{"fleet-cycle", "64-seed scan on 2 journaled worker processes into a store, then cold summary and CSV reads: launch, fsync, codec, merge and ingest"},
	{"serve-read", "32-shard store opened, then read open-loop at 4000 rps and closed-loop: the warm response cache with no invalidation, the control for render and ingest changes"},
	{"serve-ingest", "16-shard store read at 2000 rps while 48 shards arrive near in order: each ingest invalidates the cache, and gaps exercise the pending path"},
}

// Workload sizes. Child runs vary by about 10% from one to the next on a
// shared 2-core Xeon, so each takes 1 to 3.5 s and a 20-second
// measurement holds 5 to 14 timed runs for its medians, besides the
// warm-up and traced ones.
const (
	// minTimedRounds is the fewest untraced rounds an invocation measures:
	// with five runs a side, compare's exact Mann-Whitney test can reach
	// p < alpha (2/252 when every change run beats every base run).
	minTimedRounds = 5
	// inputSets is how many input sets --seed selects from: a seed is
	// taken modulo inputSets, and golden.json holds the study digests of
	// every set.
	inputSets = 64

	sweepRows     = 8 // sweep-paper: victim rows per region
	studyParallel = 2 // sweep-paper, chipscan: concurrent plan jobs

	chipscanSeeds = 32
	chipscanRows  = 2

	fleetSeeds   = 64
	fleetRows    = 1
	fleetWorkers = 2

	// The serve workloads share 64 one-seed multichip shards of about
	// 440 KB each. A store replays one in about 23 ms and ingests one in
	// about 25 ms, so 16 ingests per second keep the writer near half a
	// core: loaded, not saturated.
	serveShards     = 64
	serveShardRows  = 1
	readShards      = 32 // serve-read: shards in its store
	ingestBase      = 16 // serve-ingest: shards in the store before the run
	ingestWindow    = 4  // serve-ingest: arrival order permutes within windows of this size
	ingestRate      = 16 // serve-ingest: POSTs per second
	ingestReadRPS   = 2000
	readRPS         = 4000
	readOpenLoop    = 4000   // serve-read: open-loop requests (1 s at readRPS)
	readClosedLoop  = 200000 // serve-read: closed-loop requests across nproc goroutines
	gzipFraction    = 0.3
	condFraction    = 0.3
	chipSeedStride  = 1000 // chip seed base = preset seed + seed·stride (chipscan, serve shards)
	childTimeoutSec = 120
)

// metricDef is one reported metric. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd metrics are measured on untraced child runs of every workload.
// The bounds follow the run-to-run drift measured on a shared 2-core
// Xeon over four sets of ten seeds: quartile spreads of the per-run
// medians reached 20% for wall and CPU time when the host slowed for a
// minute or two, and 9% for peak RSS (fleet-cycle's coordinator is small
// enough for GC timing to move its peak); medians moved by up to 20%
// from one set to the next.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// queryEndpoints are the seven read endpoints of the serve mix, in the
// order request decisions index them.
var queryEndpoints = []struct{ name, path string }{
	{"summary", "/v1/summary"},
	{"csv", "/v1/csv"},
	{"distributions", "/v1/distributions?metric=wcdp_ber"},
	{"safety", "/v1/safety"},
	{"render", "/v1/render"},
	{"artifact", "/v1/artifact"},
	{"keys", "/v1/keys"},
}

// responseVariants name how a cached response was served.
var responseVariants = []string{"identity", "gzip", "304"}

// perLayer metrics come from the traced child runs. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"experiments.plan_ms", "ms", "lower", 0},
		{"experiments.finish_ms", "ms", "lower", 0},
		{"engine.job_busy_s", "s", "lower", 0},
		{"engine.job_p50_ms", "ms", "lower", 0},
		{"engine.job_max_ms", "ms", "lower", 0},
		{"engine.worker_idle_frac", "frac", "lower", 0},
		{"engine.fold_wait_s", "s", "lower", 0},
		{"engine.fold_s", "s", "lower", 0},
		{"engine.pool_created", "count", "lower", 0},
		{"engine.pool_reused", "count", "higher", 0},
		{"hbm.acts", "count", "lower", 0},
		{"hbm.reads", "count", "lower", 0},
		{"hbm.refreshes", "count", "lower", 0},
		{"hbm.trr_victim_refreshes", "count", "lower", 0},
		{"hbm.bitflips", "count", "lower", 0},
		{"hbm.sim_ms", "sim_ms", "lower", 0},
		{"hbm.host_ns_per_act", "ns", "lower", 0},
		{"results.encode_ms", "ms", "lower", 0},
		{"results.artifact_bytes", "bytes", "lower", 0},
		{"fleet.launches", "count", "lower", 0},
		{"fleet.launch_ms", "ms", "lower", 0},
		{"fleet.worker_max_s", "s", "lower", 0},
		{"fleet.chunk_p50_ms", "ms", "lower", 0},
		{"fleet.tail_ms", "ms", "lower", 0},
		{"store.open_ms", "ms", "lower", 0},
		{"store.pending_max", "count", "lower", 0},
		{"store.generations", "count", "lower", 0},
	}
	for _, ep := range queryEndpoints {
		m = append(m,
			metricDef{"query." + ep.name + ".p50_us", "us", "lower", 0},
			metricDef{"query." + ep.name + ".p99_us", "us", "lower", 0})
	}
	for _, v := range responseVariants {
		m = append(m, metricDef{"query." + v + ".p50_us", "us", "lower", 0})
	}
	return append(m,
		metricDef{"query.hits", "count", "higher", 0},
		metricDef{"query.misses", "count", "lower", 0},
		metricDef{"query.hit_ratio", "frac", "higher", 0},
		metricDef{"query.cold_render_ms", "ms", "lower", 0},
		metricDef{"serve.lat_p50_us", "us", "lower", 0},
		metricDef{"serve.lat_p99_us", "us", "lower", 0},
		metricDef{"serve.sat_rps", "1/s", "higher", 0},
		metricDef{"serve.ingest_p50_ms", "ms", "lower", 0},
		metricDef{"serve.ingest_p90_ms", "ms", "lower", 0},
		metricDef{"go.alloc_mb", "MB", "lower", 0},
		metricDef{"go.gc_cycles", "count", "lower", 0},
		metricDef{"go.gc_pause_ms", "ms", "lower", 0},
		metricDef{"bench.gen_late_p99_us", "us", "lower", 0},
		metricDef{"bench.lat_p999_us", "us", "lower", 0},
		metricDef{"bench.trace_overhead_frac", "frac", "lower", 0},
		metricDef{"bench.unattributed_frac", "frac", "lower", 0},
	)
}()

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
