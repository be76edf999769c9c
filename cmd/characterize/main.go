// characterize is the front end of the experiment registry: every study
// in the repo — the paper's figures, the multi-chip fleet scan and the
// extension studies — runs through one pipeline that plans jobs, shards
// them, streams aggregates, and serializes mergeable artifacts.
//
// Usage:
//
//	characterize -experiment NAME [-chip paper|small] [-rows N]
//	             [-hammers N] [-seeds N] [-iterations N] [-job-workers N]
//	             [-parallel N] [-planner P] [-channel N -pc N -bank N]
//	             [-shard I/N] [-progress] [-artifact FILE] [-csv FILE]
//	             [-json FILE] [-group-by AXIS] [-mutexprofile FILE]
//	characterize -experiment list
//	characterize -experiment paper        # the paper suite: sweep+fig6+trrstudy
//	             [-bankrows N] [-iterations N]
//	characterize merge [-artifact FILE] [-csv FILE] [-json FILE]
//	             [-group-by AXIS] shard.json|glob|dir...
//
// Figs. 3-5 are -experiment sweep and Fig. 6 is -experiment fig6: their
// reports draw the figures and headline numbers from the artifact's row
// and bank records, so a merged, fleet-run or store-held artifact draws
// the same figures as one process. -experiment paper runs both (fig6 at
// -bankrows rows per bank region) plus the Section 5 TRR study, then the
// paper-vs-measured table of every claim. With no -experiment,
// characterize lists the experiments and exits non-zero.
//
// The fleet scan across chip instances (the paper's future work 1) is
// -experiment multichip: -seeds N chips starting at the preset's seed,
// exported by region, channel or region-channel with -group-by. The
// extension studies are -experiment rowpress, tempsweep, crosschannel
// and trrbypass (pass -chip paper to trrbypass: its nominal-refresh
// attack needs the paper geometry's refresh-pointer cadence).
//
// Section 5 is -experiment trrstudy (the U-TRR period study) and
// -experiment utrrprobe (the deeper probes), run in the bank -channel,
// -pc and -bank name.
//
// The study flags (-experiment, -chip, -rows, -hammers, -seeds,
// -iterations, -job-workers, -parallel, -planner, -channel, -pc, -bank)
// are declared once, by fleet.Study.RegisterFlags, for characterize,
// characterize fleet and the fleet workers. Every numeric knob must be
// >= 0, which the registry checks when it plans; 0 selects the
// experiment's default. A knob the experiment does not read is refused
// when set; the -rows and -hammers defaults reach only its readers.
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
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"

	hbmrh "github.com/safari-repro/hbmrh"
	"github.com/safari-repro/hbmrh/internal/experiments"
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
	var study hbmrh.FleetStudy
	study.RegisterFlags(flag.CommandLine)
	var (
		bankRows = flag.Int("bankrows", 16, "rows per bank region for fig6 in the paper suite (0 = the paper's 100)")
		shard    = flag.String("shard", "", "run one plan shard, as I/N")
		progress = flag.Bool("progress", false, "report engine job completion on stderr")
		csvOut   = flag.String("csv", "", "summary CSV file (\"-\" = stdout)")
		jsonOut  = flag.String("json", "", "summary JSON file (\"-\" = stdout)")
		artifact = flag.String("artifact", "", "serialized artifact file, the merge input (\"-\" = stdout)")
		groupBy  = flag.String("group-by", "", "export axis (default: the artifact's stored axis)")
		mutexPro = flag.String("mutexprofile", "", "write a runtime mutex-contention profile of the run to this file (lock convoys in the engine hot path show up here)")
	)
	flag.Parse()
	study.DropUnreadDefaults(flag.CommandLine)
	if *mutexPro != "" {
		// Record every contended mutex event; the CI smoke runs the
		// fleet scan with profiling on to keep lock convoys visible.
		runtime.SetMutexProfileFraction(1)
		defer writeMutexProfile(*mutexPro)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts, err := study.Options(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if *progress {
		opts.Progress = (&progressLine{w: os.Stderr}).progress
	}
	switch study.Experiment {
	case "":
		listExperiments(os.Stderr)
		log.Fatal("no -experiment given (Figs. 3-5 are -experiment sweep, Fig. 6 is -experiment fig6)")
	case "list":
		listExperiments(os.Stdout)
	case "paper":
		if *shard != "" || *artifact != "" || *csvOut != "" || *jsonOut != "" || *groupBy != "" {
			log.Fatal("the paper suite runs several experiments; shard or export them individually (-shard/-artifact/-csv/-json/-group-by apply to single experiments)")
		}
		suite, err := paperSuite(opts, study.Rows, *bankRows)
		if err != nil {
			log.Fatal(err)
		}
		var arts []*hbmrh.ResultsArtifact
		for _, e := range suite {
			a, err := hbmrh.RunExperiment(e.name, e.opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(hbmrh.RenderExperimentArtifact(a))
			fmt.Println()
			arts = append(arts, a)
		}
		fmt.Print(experiments.ClaimsTable(arts...))
	default:
		if opts.Shard, opts.ShardCount, err = hbmrh.ParseShardFlag(*shard); err != nil {
			log.Fatal(err)
		}
		a, err := hbmrh.RunExperiment(study.Experiment, opts)
		if err != nil {
			log.Fatal(err)
		}
		if err := exportArtifact(os.Stdout, a, *groupBy, *csvOut, *jsonOut, *artifact); err != nil {
			log.Fatal(err)
		}
	}
}

// paperStudy is one experiment of the paper suite and the options it
// runs with.
type paperStudy struct {
	name string
	opts experiments.Options
}

// paperSuite lists the paper suite, handing each study only the knobs it
// reads (-bankrows is fig6's Rows), and plans all of it before anything
// is measured, so a knob the registry refuses, or one no suite study
// reads, fails before the first study runs.
func paperSuite(opts experiments.Options, rows, bankRows int) ([]paperStudy, error) {
	suite := []paperStudy{{"sweep", opts}, {"fig6", opts}, {"trrstudy", opts}}
	suite[0].opts.Rows, suite[1].opts.Rows = rows, bankRows
	var reads []string
	for i, s := range suite {
		e, err := experiments.Lookup(s.name)
		if err != nil {
			return nil, err
		}
		reads = append(reads, e.Reads...)
		suite[i].opts = e.Narrow(s.opts)
		if _, err := experiments.Describe(s.name, suite[i].opts); err != nil {
			return nil, err
		}
	}
	if err := experiments.CheckReads(opts, "the paper suite", reads); err != nil {
		return nil, err
	}
	return suite, nil
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

// progressLine is -progress on a terminal: live job completion drawn
// and redrawn as one line ("\rjobs: N/M") on w, with log lines kept off
// it. A log line first ends an open progress line, so it never shares
// one with a redraw; the next redraw starts below it. Fleet progress and
// log lines arrive from different goroutines, hence the lock.
type progressLine struct {
	mu   sync.Mutex
	w    io.Writer
	open bool // the current line holds a progress redraw
}

// progress redraws the progress line, ending it once every job is done.
func (p *progressLine) progress(e hbmrh.EngineProgress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "\rjobs: %d/%d", e.Done, e.Total)
	p.open = e.Done != e.Total
	if !p.open {
		fmt.Fprintln(p.w)
	}
}

// logf writes one log line on a line of its own.
func (p *progressLine) logf(format string, a ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open {
		fmt.Fprintln(p.w)
		p.open = false
	}
	fmt.Fprintln(p.w, strings.TrimRight(fmt.Sprintf(format, a...), "\n"))
}

func listExperiments(w io.Writer) {
	fmt.Fprintln(w, "registered experiments (run with -experiment NAME):")
	for _, e := range hbmrh.Experiments() {
		fmt.Fprintf(w, "  %-13s %s\n", e.Name, e.Title)
	}
	fmt.Fprintln(w, "  paper         suite: sweep + fig6 + trrstudy at the given budget")
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
