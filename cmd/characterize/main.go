// characterize is the front end of the experiment registry: every study
// in the repo — the paper's figures, the multi-chip fleet scan and the
// extension studies — runs through one pipeline that plans jobs, shards
// them, streams aggregates, and serializes mergeable artifacts.
//
// Registry mode (the primary interface):
//
//	characterize -experiment NAME [-chip paper|small] [-rows N]
//	             [-hammers N] [-seeds N] [-iterations N] [-workers N]
//	             [-parallel N] [-planner P] [-shard I/N] [-progress]
//	             [-artifact FILE] [-csv FILE] [-json FILE] [-group-by AXIS]
//	             [-mutexprofile FILE]
//	characterize -experiment list
//	characterize -experiment paper        # the paper suite: sweep+fig6+trrstudy
//	characterize merge [-artifact FILE] [-csv FILE] [-json FILE]
//	             [-group-by AXIS] shard.json|glob|dir...
//
// The fleet scan across chip instances (the paper's future work 1) is
// -experiment multichip: -seeds N chips starting at the preset's seed,
// exported by region, channel or region-channel with -group-by. The
// extension studies are -experiment rowpress, tempsweep, crosschannel
// and trrbypass (pass -chip paper to trrbypass: its nominal-refresh
// attack needs the paper geometry's refresh-pointer cadence).
//
// -rows, -hammers, -seeds and -iterations must be >= 0; 0 selects the
// experiment's default.
//
// Every registered experiment gains -shard i/N + artifact merge for
// free: N shard processes produce artifacts that `characterize merge`
// recombines into output byte-identical to a single-process run. merge
// arguments may be files, globs or directories; failures name the
// offending shard. The experiment is inferred from the artifacts and the
// merged result renders with the experiment's own report. An export axis
// the artifact cannot derive is an error before anything is written.
//
// Fleet mode replaces the shard-launch shell loop with a coordinator:
//
//	characterize fleet -experiment NAME -workers N [-chunk J] [-dir DIR]
//	             [-retries R] [-stall DURATION] [study flags] [export flags]
//
// It partitions the plan across N worker subprocesses, streams their
// progress, relaunches dead or straggling workers (journals make every
// relaunch resume where the worker died), and auto-merges the shard
// artifacts — output stays byte-identical to the single-process run. See
// DESIGN.md §10.
//
// Figure mode renders the paper's evaluation figures (Figs. 3-6) with
// ASCII plots and headline numbers:
//
//	characterize [-chip paper|small] [-fig all|3|4|5|6]
//	             [-rows N] [-bankrows N] [-hammers N] [-workers N]
//	             [-progress] [-csv DIR]
//
// Long runs are interruptible: Ctrl-C cancels the execution engine down
// to per-measurement granularity, and -progress reports live job
// completion on stderr.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	hbmrh "github.com/safari-repro/hbmrh"
	"github.com/safari-repro/hbmrh/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "merge":
			runMerge(os.Args[2:])
			return
		case "fleet":
			runFleet(os.Args[2:])
			return
		case hbmrh.FleetWorkerCommand:
			// The fleet coordinator re-executes this binary as its shard
			// workers; never invoked by operators directly.
			os.Exit(hbmrh.FleetWorkerMain(os.Args[2:]))
		}
	}
	var (
		experiment = flag.String("experiment", "", "registry experiment to run (see -experiment list), or: list, paper")
		chip       = flag.String("chip", "small", "chip preset: paper or small")
		fig        = flag.String("fig", "all", "figure mode: figure to regenerate (all, 3, 4, 5 or 6)")
		rows       = flag.Int("rows", 24, "sampling density: victim rows per region (figs 3-5) or per point")
		bankRows   = flag.Int("bankrows", 16, "rows per bank region for fig 6 (paper: 100)")
		hammers    = flag.Int("hammers", hbmrh.DefaultHammers, "hammer count / HCfirst ceiling")
		seeds      = flag.Int("seeds", 0, "chip instances for fleet experiments (0 = experiment default)")
		iterations = flag.Int("iterations", 0, "U-TRR iterations for the TRR studies (0 = default)")
		workers    = flag.Int("workers", 0, "parallel measurement devices per job (0 = auto)")
		parallel   = flag.Int("parallel", 0, "concurrent plan jobs in registry mode (0 = one per CPU)")
		planner    = flag.String("planner", "queue", "job planner: queue, contiguous, weighted or stealing (never changes output)")
		shard      = flag.String("shard", "", "run one plan shard, as I/N (registry mode)")
		progress   = flag.Bool("progress", false, "report engine job completion on stderr")
		csvOut     = flag.String("csv", "", "figure mode: directory for raw CSV exports; registry mode: summary CSV file (\"-\" = stdout)")
		jsonOut    = flag.String("json", "", "registry mode: summary JSON file (\"-\" = stdout)")
		artifact   = flag.String("artifact", "", "registry mode: serialized artifact file, the merge input (\"-\" = stdout)")
		groupBy    = flag.String("group-by", "", "registry mode: export axis (default: the artifact's stored axis)")
		mutexPro   = flag.String("mutexprofile", "", "write a runtime mutex-contention profile of the run to this file (lock convoys in the engine hot path show up here)")
	)
	flag.Parse()
	if err := checkBudgets(*rows, *hammers, *seeds, *iterations); err != nil {
		log.Fatal(err)
	}
	if *mutexPro != "" {
		// Record every contended mutex event; the fleet scan's hot path
		// is supposed to be contention-free, so the CI smoke runs it with
		// profiling on to keep convoys visible.
		runtime.SetMutexProfileFraction(1)
		defer writeMutexProfile(*mutexPro)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := hbmrh.SmallChip()
	if *chip == "paper" {
		cfg = hbmrh.PaperChip()
	} else if *chip != "small" {
		log.Fatalf("unknown -chip %q", *chip)
	}

	switch *experiment {
	case "":
		runFigures(ctx, cfg, *fig, *rows, *bankRows, *hammers, *workers, *progress, *csvOut)
	case "list":
		listExperiments()
	case "paper":
		if *shard != "" || *artifact != "" || *csvOut != "" || *jsonOut != "" || *groupBy != "" {
			log.Fatal("the paper suite runs several experiments; shard or export them individually (-shard/-artifact/-csv/-json/-group-by apply to single experiments)")
		}
		opts := registryOptions(ctx, cfg, *rows, *hammers, *seeds, *iterations, *workers, *parallel, *planner, *progress)
		opts.Rows = *rows
		for _, name := range []string{"sweep", "fig6", "trrstudy"} {
			if name == "fig6" {
				opts.Rows = *bankRows
			} else {
				opts.Rows = *rows
			}
			a, err := hbmrh.RunExperiment(name, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(hbmrh.RenderExperimentArtifact(a))
			fmt.Println()
		}
	default:
		opts := registryOptions(ctx, cfg, *rows, *hammers, *seeds, *iterations, *workers, *parallel, *planner, *progress)
		var err error
		if opts.Shard, opts.ShardCount, err = hbmrh.ParseShardFlag(*shard); err != nil {
			log.Fatal(err)
		}
		a, err := hbmrh.RunExperiment(*experiment, opts)
		if err != nil {
			log.Fatal(err)
		}
		if err := exportArtifact(os.Stdout, a, *groupBy, *csvOut, *jsonOut, *artifact); err != nil {
			log.Fatal(err)
		}
	}
}

// checkBudgets rejects negative study budgets: 0 selects the
// experiment's default, and a negative value is a typo, not a request
// for the default.
func checkBudgets(rows, hammers, seeds, iterations int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"rows", rows}, {"hammers", hammers}, {"seeds", seeds}, {"iterations", iterations}} {
		if f.v < 0 {
			return fmt.Errorf("-%s %d: must be >= 0 (0 = experiment default)", f.name, f.v)
		}
	}
	return nil
}

func writeMutexProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
		log.Fatal(err)
	}
}

// registryOptions maps the CLI flags onto the registry's uniform knobs.
func registryOptions(ctx context.Context, cfg *hbmrh.Config, rows, hammers, seeds, iterations, workers, parallel int, planner string, progress bool) hbmrh.ExperimentOptions {
	plan, err := hbmrh.ParsePlanner(planner)
	if err != nil {
		log.Fatal(err)
	}
	o := hbmrh.ExperimentOptions{
		Cfg:        cfg,
		Rows:       rows,
		Hammers:    hammers,
		Seeds:      seeds,
		Iterations: iterations,
		Workers:    workers,
		Parallel:   parallel,
		Planner:    plan,
		Ctx:        ctx,
	}
	if progress {
		o.Progress = func(p hbmrh.EngineProgress) {
			fmt.Fprintf(os.Stderr, "\rjobs: %d/%d", p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	return o
}

func listExperiments() {
	fmt.Println("registered experiments (run with -experiment NAME):")
	for _, e := range hbmrh.Experiments() {
		fmt.Printf("  %-13s %s\n", e.Name, e.Title)
	}
	fmt.Println("  paper         suite: sweep + fig6 + trrstudy at the given budget")
}

// exportArtifact renders and exports one artifact: the experiment's
// report on stdout (unless an export claims it) plus the requested
// summary/artifact files. Every export is rendered before anything is
// written, so an axis the artifact cannot derive fails cleanly with no
// partial output.
func exportArtifact(stdout io.Writer, a *hbmrh.ResultsArtifact, groupBy, csvOut, jsonOut, artifact string) error {
	gb, err := hbmrh.ParseGroupBy(a.Meta.GroupBy)
	if err != nil {
		return err
	}
	if groupBy != "" {
		if gb, err = hbmrh.ParseGroupBy(groupBy); err != nil {
			return err
		}
	}
	stdoutClaims := 0
	for _, p := range []string{csvOut, jsonOut, artifact} {
		if p == "-" {
			stdoutClaims++
		}
	}
	if stdoutClaims > 1 {
		return fmt.Errorf("only one of -csv, -json, -artifact may claim stdout")
	}
	axisErr := func(err error) error {
		return fmt.Errorf("%v (this artifact stores axis %q; pass -group-by %s)",
			err, a.Meta.GroupBy, a.Meta.GroupBy)
	}
	var csvData, jsonData, artifactData []byte
	if csvOut != "" {
		headers, rows, err := a.SummaryCSV(gb)
		if err != nil {
			return axisErr(err)
		}
		var buf bytes.Buffer
		if err := report.WriteCSV(&buf, headers, rows); err != nil {
			return err
		}
		csvData = buf.Bytes()
	}
	if jsonOut != "" {
		if jsonData, err = a.SummaryJSON(gb); err != nil {
			return axisErr(err)
		}
	}
	if artifact != "" {
		if artifactData, err = a.MarshalIndented(); err != nil {
			return err
		}
	}
	if stdoutClaims == 0 {
		if _, err := io.WriteString(stdout, hbmrh.RenderExperimentArtifact(a)); err != nil {
			return err
		}
	}
	for _, out := range []struct {
		path string
		data []byte
	}{{csvOut, csvData}, {jsonOut, jsonData}, {artifact, artifactData}} {
		if out.path == "" {
			continue
		}
		if err := writeOut(stdout, out.path, out.data); err != nil {
			return err
		}
	}
	return nil
}

func runMerge(args []string) {
	fs := flag.NewFlagSet("characterize merge", flag.ExitOnError)
	var (
		csvOut   = fs.String("csv", "", "summary CSV file (\"-\" = stdout)")
		jsonOut  = fs.String("json", "", "summary JSON file (\"-\" = stdout)")
		artifact = fs.String("artifact", "", "merged artifact file (\"-\" = stdout)")
		groupBy  = fs.String("group-by", "", "export axis (default: the artifact's stored axis)")
	)
	fs.Parse(args)
	if fs.NArg() == 0 {
		log.Fatal("merge needs at least one shard artifact file, glob or directory")
	}
	merged, err := hbmrh.MergeShardFiles(fs.Args())
	if err != nil {
		log.Fatal(err)
	}
	if err := exportArtifact(os.Stdout, merged, *groupBy, *csvOut, *jsonOut, *artifact); err != nil {
		log.Fatal(err)
	}
}

// writeOut writes data to path; "-" writes to stdout.
func writeOut(stdout io.Writer, path string, data []byte) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runFigures is the figure-rendering mode for Figs. 3-6: the registry's
// artifact pipeline carries distributions, while this mode renders the
// paper's ASCII figures and headline comparisons from the per-row data.
func runFigures(ctx context.Context, cfg *hbmrh.Config, fig string, rows, bankRows, hammers, workers int, progress bool, csvDir string) {
	switch fig {
	case "all", "3", "4", "5", "6":
	default:
		log.Fatalf("unknown -fig %q (figures: all, 3, 4, 5, 6; the extension studies run as -experiment rowpress, tempsweep, crosschannel or trrbypass)", fig)
	}
	// Progress rewrites one stderr line per stage; midLine tracks whether
	// that line is unterminated so a fatal exit (Ctrl-C mid-stage) starts
	// on a fresh line instead of overwriting the counter. The engine
	// serializes callbacks and returns only after they finish, so die
	// never races a progress write.
	midLine := false
	track := func(stage string) hbmrh.EngineProgressFunc {
		if !progress {
			return nil
		}
		return func(p hbmrh.EngineProgress) {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d jobs", stage, p.Done, p.Total)
			midLine = p.Done != p.Total
			if !midLine {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	die := func(err error) {
		if midLine {
			fmt.Fprintln(os.Stderr)
		}
		log.Fatal(err)
	}

	want := func(f string) bool { return fig == "all" || fig == f }

	if want("3") || want("4") || want("5") {
		sweep, err := hbmrh.RunSweep(hbmrh.SweepOptions{
			Cfg:           cfg,
			Hammers:       hammers,
			RowsPerRegion: rows,
			Workers:       workers,
			Ctx:           ctx,
			Progress:      track("figs 3-5 sweep"),
		})
		if err != nil {
			die(err)
		}
		if want("3") {
			f3 := hbmrh.Fig3{Sweep: sweep}
			fmt.Print(f3.Render())
			h := f3.Headlines()
			fmt.Printf("headlines: max/min channel WCDP BER ratio %.2fx (paper 2.03x); "+
				"max cross-channel spread %.0f%% (paper 79%%); max BER %.2f%% (paper 3.13%%)\n\n",
				h.MaxOverMinWCDP, h.MaxSpreadPct, h.MaxBER)
		}
		if want("4") {
			f4 := hbmrh.Fig4{Sweep: sweep}
			fmt.Print(f4.Render())
			h := f4.Headlines()
			fmt.Printf("headlines: min HCfirst %d (paper 14531); channel spread %.0f%% (paper 20%%); "+
				"ch0 RS0/RS1 mean %.0f/%.0f (paper 57925/79179)\n\n",
				h.MinHCFirst, h.SpreadPct, h.Ch0Rowstripe0, h.Ch0Rowstripe1)
		}
		if want("5") {
			f5 := hbmrh.Fig5{Sweep: sweep}
			fmt.Print(f5.Render())
			h := f5.Headlines()
			fmt.Printf("headlines: last-subarray BER ratio %.2fx; mid/edge ratio %.2fx\n\n",
				h.LastSubarrayRatio, h.MidOverEdge)
		}
		if csvDir != "" {
			hd, data := sweep.CSV()
			if err := writeCSVFile(filepath.Join(csvDir, "sweep.csv"), hd, data); err != nil {
				die(err)
			}
		}
	}

	if want("6") {
		f6, err := hbmrh.RunFig6(hbmrh.Fig6Options{
			Cfg:               cfg,
			Hammers:           hammers,
			RowsPerBankRegion: bankRows,
			Workers:           workers,
			Ctx:               ctx,
			Progress:          track("fig 6 banks"),
		})
		if err != nil {
			die(err)
		}
		fmt.Print(f6.Render())
		h := f6.Headlines()
		fmt.Printf("headlines: bank mean BER %.2f-%.2f%% (paper 0.8-1.6%%); CV %.2f-%.2f (paper 0.22-0.34); "+
			"cross/intra channel spread %.1fx\n",
			h.MeanLo, h.MeanHi, h.CVLo, h.CVHi, h.CrossOverIntra)
		if csvDir != "" {
			hd, data := f6.CSV()
			if err := writeCSVFile(filepath.Join(csvDir, "fig6.csv"), hd, data); err != nil {
				die(err)
			}
		}
	}
}

func writeCSVFile(path string, headers []string, rows [][]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteCSV(f, headers, rows); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
	return nil
}
