// Package hbmrh reproduces "An Experimental Analysis of RowHammer in HBM2
// DRAM Chips" (DSN 2023) as a self-contained Go library.
//
// Because the study is hardware-gated (it characterizes a real HBM2 stack
// on an FPGA testing infrastructure), this library ships a faithful
// simulated substrate — a cycle-timed HBM2 device model with a
// physically-motivated RowHammer/retention fault model, an in-DRAM TRR
// mitigation, a DRAM-Bender-style program layer, and a thermal rig — and
// the paper's full characterization pipeline on top of it:
//
//   - Open a chip with Open(PaperChip()) or Open(SmallChip()).
//   - Per-row measurements via NewHarness: BERBatch, HCFirstBatch (and
//     HCFirstBatchHold, the RowPress variant) and WCDPBatch over up to
//     64 victim rows per program, with BER, HCFirst and WCDP as their
//     one-row forms; and any other command sequence as a DRAM Bender
//     program run by Harness.Exec, with CountFlips over its reads.
//   - Every study — the Figs. 3-6 sweep and fig6 studies, the Section 5
//     TRR discovery (trrstudy) and its probes (utrrprobe) at
//     ExperimentOptions.Bank, the multi-chip fleet scan and the Section
//     5/6 extensions (rowpress, tempsweep, crosschannel, trrbypass) — as
//     a shardable registry experiment via RunExperiment, whose artifact
//     RenderExperimentArtifact draws: the sweep, fig6 and trrstudy
//     artifacts carry the per-row, per-bank and per-run records Figs. 3-6
//     and Section 5 draw, so a merged or store-held artifact renders the
//     figures and the TRR study too.
//   - Row-mapping reverse engineering via Harness.RecoverMapping.
//
// The package is a thin facade over the internal subsystems; see DESIGN.md
// for the system inventory, and run `go run ./cmd/characterize -chip paper
// -experiment paper` for the paper-vs-measured comparison.
package hbmrh

import (
	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/defense"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/fleet"
	"github.com/safari-repro/hbmrh/internal/hbm"
	"github.com/safari-repro/hbmrh/internal/mapping"
	"github.com/safari-repro/hbmrh/internal/query"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/retention"
	"github.com/safari-repro/hbmrh/internal/stats"
	"github.com/safari-repro/hbmrh/internal/store"
	"github.com/safari-repro/hbmrh/internal/thermal"
	"github.com/safari-repro/hbmrh/internal/utrr"
)

// Device and addressing.
type (
	// Device is a simulated HBM2 stack exposing the memory controller's
	// command-level interface (ACT/PRE/RD/WR/REF/MRS) with strict JESD235
	// timing checks.
	Device = hbm.Device
	// Config holds the full device + fault-model parameter set.
	Config = config.Config
	// Geometry describes stack dimensions.
	Geometry = addr.Geometry
	// BankAddr identifies one bank (channel, pseudo channel, bank).
	BankAddr = addr.BankAddr
	// RowAddr identifies one row.
	RowAddr = addr.RowAddr
)

// PaperChip returns the configuration of the chip characterized in the
// paper: a 4 GiB stack with 8 channels, 2 pseudo channels, 16 banks,
// 16384 rows and 32 columns, with the fault model calibrated to the
// paper's reported numbers.
func PaperChip() *Config { return config.PaperChip() }

// SmallChip returns a scaled-down chip with the same channel-level
// behaviour for fast experimentation.
func SmallChip() *Config { return config.SmallChip() }

// Open powers up a simulated chip.
func Open(cfg *Config) (*Device, error) { return hbm.New(cfg) }

// Mode register constants (the paper disables ECC through MRECC).
const (
	MRECC       = hbm.MRECC
	MRECCEnable = hbm.MRECCEnable
)

// Characterization methodology (Section 3.1).
type (
	// Harness drives per-row RowHammer experiments through DRAM Bender
	// programs: BER, HCfirst, WCDP, and adjacency probing.
	Harness = core.Harness
	// Pattern is a Table 1 data pattern.
	Pattern = core.Pattern
	// Region is a row range within a bank.
	Region = core.Region
	// BERResult is one BER measurement.
	BERResult = core.BERResult
	// WCDPResult is a row's worst-case data pattern selection.
	WCDPResult = core.WCDPResult
)

// NewHarness prepares a device for characterization (disabling ECC, as
// the paper's setup does).
func NewHarness(d *Device) (*Harness, error) { return core.NewHarness(d) }

// NewHarnessFromConfig builds a fresh device plus harness.
func NewHarnessFromConfig(cfg *Config) (*Harness, error) { return core.NewHarnessFromConfig(cfg) }

// CountFlips counts the bits of a program's reads that differ from the
// fill byte the rows were written with.
func CountFlips(reads [][]byte, fill byte) int { return core.CountFlips(reads, fill) }

// Table1 returns the paper's four data patterns.
func Table1() []Pattern { return core.Table1() }

// ExtendedPatterns returns the richer pattern set the paper's future
// work calls for (solid and column-stripe patterns).
func ExtendedPatterns() []Pattern { return core.ExtendedPatterns() }

// Regions returns the paper's first/middle/last test regions for a bank
// of the given row count.
func Regions(rows int) []Region { return core.Regions(rows) }

// DefaultHammers is the paper's hammer count (256K).
const DefaultHammers = core.DefaultHammers

// Parallel execution engine. Every registered experiment runs on the
// shared engine: deterministic work partitioning (results are
// byte-identical for Parallel=1 and Parallel=N under the same seed),
// context cancellation between jobs, progress callbacks, and a
// warmed-device pool reused across runs. The knobs surface as the
// Parallel/Planner/Ctx/Progress fields of ExperimentOptions.
type (
	// EngineProgress is one progress update of a running study.
	EngineProgress = engine.Progress
	// EngineProgressFunc receives serialized progress updates.
	EngineProgressFunc = engine.ProgressFunc
	// EnginePoolStats counts warmed-device reuse in the shared pool.
	EnginePoolStats = engine.PoolStats
)

// EngineStats snapshots the shared device pool's reuse counters.
func EngineStats() EnginePoolStats { return engine.SharedPool.Stats() }

// EnginePlanner selects how a run's jobs are assigned to workers;
// planner choice never changes outputs, only schedules.
type EnginePlanner = engine.Planner

// The engine's job planners.
const (
	// PlanQueue pulls jobs from one shared counter (the default).
	PlanQueue = engine.PlanQueue
	// PlanContiguous splits jobs into one contiguous block per worker.
	PlanContiguous = engine.PlanContiguous
	// PlanWeighted balances contiguous blocks by per-job cost estimates.
	PlanWeighted = engine.PlanWeighted
	// PlanStealing is the in-process work-stealing queue.
	PlanStealing = engine.PlanStealing
)

// DrainEnginePool releases every warmed device cached by the shared
// pool, e.g. between studies of unrelated chip designs.
func DrainEnginePool() { engine.SharedPool.Drain() }

// The experiment registry: every study in the repo registers as a named
// experiment that decomposes into a plan of indexed jobs plus a
// deterministic fold into a results artifact, so every study — not just
// the fleet scan — shards with -shard i/N, serializes artifacts, merges
// with conflict checking, and exports through the shared CSV/JSON path.
type (
	// Experiment is one registered study.
	Experiment = experiments.Experiment
	// ExperimentOptions is the uniform knob set of a registry run.
	ExperimentOptions = experiments.Options
	// ExperimentJob is one schedulable unit of an experiment plan.
	ExperimentJob = experiments.Job
	// ExperimentPlan is an experiment decomposed into jobs plus its fold.
	ExperimentPlan = experiments.Plan
)

// Experiments returns every registered experiment, sorted by name.
func Experiments() []*Experiment { return experiments.All() }

// LookupExperiment resolves a registry name.
func LookupExperiment(name string) (*Experiment, error) { return experiments.Lookup(name) }

// RunExperiment plans, shards and executes a registered experiment; the
// artifact is byte-identical for any parallelism and planner, and all
// shards of one option set merge back into the unsharded artifact.
func RunExperiment(name string, o ExperimentOptions) (*ResultsArtifact, error) {
	return experiments.Run(name, o)
}

// RenderExperimentArtifact renders an artifact with its experiment's
// registered renderer (generic distribution render for unknown tools).
func RenderExperimentArtifact(a *ResultsArtifact) string { return experiments.Render(a) }

// TRRPeriod reads the inferred TRR victim-refresh period off a trrstudy
// artifact's TRR record, and whether the refreshes were strictly periodic.
func TRRPeriod(a *ResultsArtifact) (period int, periodic bool) { return experiments.TRRPeriod(a) }

// The fleet control plane: one coordinator partitions a registered
// experiment across shard worker processes, streams their progress,
// replaces dead or straggling workers (relaunches resume from on-disk
// journals), and auto-merges the shard artifacts into output
// byte-identical to a single-process run. See DESIGN.md §10 for the
// worker protocol and the byte-identity argument.
type (
	// FleetSpec configures one fleet run: the study, the worker count,
	// checkpoint granularity, retry budget and straggler gate.
	FleetSpec = fleet.Spec
	// FleetStudy is the serializable experiment selection forwarded to
	// every fleet worker.
	FleetStudy = fleet.Study
	// FleetLauncher starts shard workers; the default launches local
	// subprocesses of the current binary, and remote schemes (SSH, a
	// scheduler) plug in by implementing the same argv contract.
	FleetLauncher = fleet.Launcher
)

// FleetWorkerCommand is the subcommand under which binaries embedding
// the fleet must dispatch to FleetWorkerMain.
const FleetWorkerCommand = fleet.WorkerCommand

// RunFleet executes a fleet run and returns the merged artifact.
func RunFleet(s FleetSpec) (*ResultsArtifact, error) { return fleet.Run(s) }

// FleetWorkerMain is the worker process entry point; host binaries
// dispatch their FleetWorkerCommand argv to it and exit with its return
// value.
func FleetWorkerMain(args []string) int { return fleet.WorkerMain(args) }

// The artifact store and its query service (DESIGN.md §11): a
// content-addressed, append-only store of shard artifacts with
// conflict-checked incremental merge, and an HTTP/JSON read side whose
// responses are byte-identical to `characterize` renders and cached per
// (corpus, generation, endpoint, params) with single-flight dedup.
type (
	// ArtifactStore is the content-addressed shard artifact store.
	ArtifactStore = store.Store
	// StoreIngestResult reports what one store ingest did.
	StoreIngestResult = store.IngestResult
	// StoreSnapshot is an immutable read view of one corpus: its sealed
	// merged artifact plus membership and generation bookkeeping.
	StoreSnapshot = store.Snapshot
	// QueryServer serves the query endpoint catalog over one store.
	QueryServer = query.Server
)

// OpenArtifactStore opens (or creates) the store at dir, replaying any
// persisted objects; dir "" opens an in-memory store.
func OpenArtifactStore(dir string) (*ArtifactStore, error) { return store.Open(dir) }

// NewQueryServer returns the HTTP query service over st.
func NewQueryServer(st *ArtifactStore) *QueryServer { return query.New(st) }

// Unified results layer: every driver that produces distributions emits
// this serializable artifact schema — provenance metadata (config hash,
// job slice, code version, format version), an aggregation axis, and
// mergeable streaming accumulators — so shard outputs from different
// processes and machines merge with conflict checking and render through
// one CSV/JSON path.
type (
	// ResultsArtifact is one serializable results payload.
	ResultsArtifact = results.Artifact
	// ResultsMeta is an artifact's provenance and merge-compatibility
	// metadata.
	ResultsMeta = results.Meta
	// ResultsGroup is one aggregation cell (key + metric streams).
	ResultsGroup = results.Group
	// ResultsKey identifies an aggregation group.
	ResultsKey = results.Key
	// ResultsGroupBy selects an aggregation axis.
	ResultsGroupBy = results.GroupBy
)

// Aggregation axes of the results layer.
const (
	// GroupByRegion groups by paper region (first/middle/last).
	GroupByRegion = results.ByRegion
	// GroupByChannel groups by HBM2 channel, the paper's first-order
	// vulnerability axis.
	GroupByChannel = results.ByChannel
	// GroupByRegionChannel is the finest axis, one group per
	// region×channel cell.
	GroupByRegionChannel = results.ByRegionChannel
)

// ParseGroupBy parses an axis flag value ("region", "channel",
// "region-channel").
func ParseGroupBy(s string) (ResultsGroupBy, error) { return results.ParseGroupBy(s) }

// ReadArtifact loads and validates an artifact file written by
// ResultsArtifact.WriteFile.
func ReadArtifact(path string) (*ResultsArtifact, error) { return results.ReadFile(path) }

// MergeArtifacts folds shard b into a after verifying format, tool,
// code-version, config-hash and axis compatibility, disjoint shards
// (results.Disjoint) and job-slice contiguity; on success a covers both
// shards' slices.
func MergeArtifacts(a, b *ResultsArtifact) error { return results.Merge(a, b) }

// MergeShardFiles expands merge arguments (artifact files, globs, and
// directories holding *.json shards), loads every shard, and merges them
// in job-slice order; failures name the offending shard file.
func MergeShardFiles(args []string) (*ResultsArtifact, error) {
	shards, paths, err := results.ReadShards(args)
	if err != nil {
		return nil, err
	}
	return results.MergeShards(shards, paths)
}

// ShardRange partitions n seeds into `of` contiguous shards and returns
// the half-open index range of one shard; independently launched shard
// processes agree on the partition.
func ShardRange(n, shard, of int) (lo, hi int) { return results.ShardRange(n, shard, of) }

// ParseShardFlag parses a CLI -shard value of the form I/N ("" means
// unsharded and returns 0, 0).
func ParseShardFlag(s string) (shard, of int, err error) { return results.ParseShardFlag(s) }

// Streaming statistics (the memory backbone of fleet-scale scans).
type (
	// StatsSummary is a box-and-whiskers five-number summary plus mean
	// and standard deviation (paper footnote 2).
	StatsSummary = stats.Summary
	// StatsStream is a mergeable, serializable streaming accumulator:
	// exact-sum moments (order-independent merges, bit for bit) plus a
	// fixed-marker quantile estimator with an exact-mode fallback for
	// small samples, and a versioned JSON codec for crossing process
	// boundaries.
	StatsStream = stats.Stream
)

// NewStatsStream returns a streaming accumulator over the quantile domain
// [lo, hi); see StatsStream.
func NewStatsStream(lo, hi float64) *StatsStream { return stats.NewStream(lo, hi) }

// Defense: the paper's vulnerability-adaptive mitigation implication.
type (
	// DefenseGuard is a controller-side preventive-refresh mechanism.
	DefenseGuard = defense.Guard
	// DefensePolicy yields per-channel guard thresholds.
	DefensePolicy = defense.Policy
	// UniformPolicy applies the worst channel's threshold everywhere.
	UniformPolicy = defense.Uniform
	// AdaptivePolicy applies per-channel thresholds.
	AdaptivePolicy = defense.Adaptive
)

// NewDefenseGuard wraps a harness's activation path with the policy.
func NewDefenseGuard(h *Harness, p DefensePolicy) *DefenseGuard { return defense.NewGuard(h, p) }

// SafetyFromHCFirst derives a guard threshold from a measured HCfirst.
func SafetyFromHCFirst(hcFirst int) int { return defense.SafetyFromHCFirst(hcFirst) }

// Supporting infrastructure.
type (
	// RetentionProfiler measures per-row retention times (the U-TRR side
	// channel).
	RetentionProfiler = retention.Profiler
	// UTRRExperiment is the raw U-TRR loop.
	UTRRExperiment = utrr.Experiment
	// ThermalController is the simulated PID temperature rig.
	ThermalController = thermal.Controller
	// ThermalPlant is the chip + pad + fan thermal model.
	ThermalPlant = thermal.Plant
	// BenderProgram is an executable DRAM command program.
	BenderProgram = bender.Program
	// BenderBuilder assembles timing-correct programs. Builders are
	// reusable via Reset; the *BenderProgram returned by Build aliases
	// the builder's buffers and is valid until the next Reset, emit or
	// Build on the same builder.
	BenderBuilder = bender.Builder
	// BenderRunner executes programs against a device: Run(dev, prog)
	// validates the program against the device's geometry and issues one
	// device command per instruction, with hammer loops applied in bulk.
	// The zero value is ready to use. A runner owns its result buffers:
	// the Result returned by Run — including every Reads entry — is valid
	// only until the next Run on the same runner; copy anything that must
	// outlive it.
	BenderRunner = bender.Runner
	// RecoveredMap is a reverse-engineered physical row layout.
	RecoveredMap = mapping.RecoveredMap
)

// NewRetentionProfiler returns a profiler that runs on the harness.
func NewRetentionProfiler(h *Harness) *RetentionProfiler { return retention.NewProfiler(h) }

// NewUTRR returns a U-TRR experiment that runs on the harness.
func NewUTRR(h *Harness) *UTRRExperiment { return utrr.New(h) }

// NewThermalController wires the PID rig to a device, starting at the
// given lab ambient temperature.
func NewThermalController(d *Device, ambientC float64) *ThermalController {
	return thermal.NewController(d, thermal.NewPlant(ambientC))
}

// NewBenderBuilder returns a program builder for the device's timing and
// geometry.
func NewBenderBuilder(d *Device) *BenderBuilder {
	return bender.NewBuilder(d.Config().Timing, d.Geometry())
}

// NewBenderRunner returns a program runner for d with its fast paths
// armed. A runner reads the timing and geometry from the device it runs
// on, so one runner serves any device.
func NewBenderRunner(d *Device) *BenderRunner { return new(bender.Runner) }

// AssembleProgram parses the textual DRAM Bender program format.
func AssembleProgram(src string, g Geometry) (*BenderProgram, error) {
	return bender.Assemble(src, g)
}

// DisassembleProgram renders a program as text.
func DisassembleProgram(p *BenderProgram) string { return bender.Disassemble(p) }
