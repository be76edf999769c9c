package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	hbmrh "github.com/safari-repro/hbmrh"
)

// runFleet is the `characterize fleet` subcommand: one command that
// partitions an experiment across local shard worker processes, watches
// them, retries failures and stragglers from their journals, and merges
// the result. It takes the same study flags as single-process
// characterize (fleet.Study.RegisterFlags); -workers here counts shard
// worker processes.
func runFleet(args []string) {
	fs := flag.NewFlagSet("characterize fleet", flag.ExitOnError)
	var study hbmrh.FleetStudy
	study.RegisterFlags(fs)
	var (
		workers    = fs.Int("workers", 2, "shard worker processes")
		chunk      = fs.Int("chunk", 1, "jobs per checkpoint: each worker journals a sealed artifact every N jobs")
		dir        = fs.String("dir", "", "journal + shard directory (default: a temp dir; a fixed dir makes reruns resume)")
		retries    = fs.Int("retries", 2, "relaunches per failed or stalled shard (-1 = none)")
		backoff    = fs.Bool("retry-backoff", true, "capped exponential backoff with deterministic jitter between relaunches")
		stall      = fs.Duration("stall", 0, "straggler gate: kill and retry a worker silent for this long (0 = off)")
		killAfter  = fs.String("kill-after", "", "fault injection for tests: I:K kills worker I after K journaled chunks (first launch only)")
		failpoints = fs.String("failpoints", "", "failpoint spec armed in every worker's first launch (internal/failpoint; relaunches come back clean)")
		progress   = fs.Bool("progress", false, "stream aggregate job completion and worker lifecycle on stderr")
		storeDir   = fs.String("store", "", "artifact store directory: auto-ingest every shard after the merge (serve with resultsd)")
		csvOut     = fs.String("csv", "", "summary CSV file (\"-\" = stdout)")
		jsonOut    = fs.String("json", "", "summary JSON file (\"-\" = stdout)")
		artifact   = fs.String("artifact", "", "merged artifact file (\"-\" = stdout)")
		groupBy    = fs.String("group-by", "", "export axis (default: the artifact's stored axis)")
	)
	fs.Parse(args)
	if study.Experiment == "" {
		log.Fatal("fleet needs -experiment NAME (see characterize -experiment list)")
	}
	if fs.NArg() != 0 {
		log.Fatalf("fleet takes no positional arguments (got %q)", fs.Args())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec := hbmrh.FleetSpec{
		Study:            study,
		Workers:          *workers,
		Chunk:            *chunk,
		Dir:              *dir,
		Retries:          *retries,
		StallTimeout:     *stall,
		WorkerFailpoints: *failpoints,
		Ctx:              ctx,
	}
	if !*backoff {
		spec.Backoff = -1
	}
	if *storeDir != "" {
		st, err := hbmrh.OpenArtifactStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		spec.Store = st
	}
	if *killAfter != "" {
		var i, k int
		if _, err := fmt.Sscanf(*killAfter, "%d:%d", &i, &k); err != nil || fmt.Sprintf("%d:%d", i, k) != *killAfter || k < 1 {
			log.Fatalf("bad -kill-after %q: want I:K, e.g. 0:1", *killAfter)
		}
		spec.KillAfter = map[int]int{i: k}
	}
	if *progress {
		spec.Progress = printProgress
		spec.Log = func(format string, a ...any) {
			line := fmt.Sprintf(format, a...)
			fmt.Fprintln(os.Stderr, strings.TrimRight(line, "\n"))
		}
	}

	start := time.Now()
	a, err := hbmrh.RunFleet(spec)
	if err != nil {
		log.Fatal(err)
	}
	if *progress {
		fmt.Fprintf(os.Stderr, "fleet: done in %s\n", time.Since(start).Round(time.Millisecond))
	}
	if err := exportArtifact(os.Stdout, a, *groupBy, *csvOut, *jsonOut, *artifact); err != nil {
		log.Fatal(err)
	}
}
