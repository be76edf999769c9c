package torture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/safari-repro/hbmrh/internal/failpoint"
	"github.com/safari-repro/hbmrh/internal/fleet"
	"github.com/safari-repro/hbmrh/internal/query"
	"github.com/safari-repro/hbmrh/internal/store"
)

// TestMain doubles the test binary as the fleet worker, exactly as
// cmd/characterize and the fleet tests do, so torture runs exercise the
// real subprocess protocol — including -failpoints arming in the worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == fleet.WorkerCommand {
		os.Exit(fleet.WorkerMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// tortureSeed fixes the fault schedule: ScheduleHit spreads the "which
// occurrence fails" choice across sites deterministically, so every run
// tortures the same instants and a failure reproduces exactly.
const tortureSeed = 0xD15EA5ED

// plan is one site's torture schedule: either a worker-process spec
// (delivered via Spec.WorkerFailpoints to every worker's first launch)
// or an in-process spec (armed in this process, where the coordinator,
// store and query service run), plus the stall gate when the fault is a
// wedged worker. ingest is the HTTP status the first POST /v1/ingest
// must answer when the fault fires on the ingest path; zero means every
// ingest must succeed.
type plan struct {
	worker string
	inproc string
	stall  time.Duration
	ingest int
}

// schedule maps every registered site to its torture plan. Process-kill
// and torn-write-then-die faults go to worker-process sites; in-process
// sites get error/tear actions and recover by retry or reopen (the
// moral equivalent of a service restart). A site without a schedule
// fails the harness: registering a failpoint obliges you to torture it.
func schedule(t *testing.T, site string) plan {
	t.Helper()
	hit := failpoint.ScheduleHit(tortureSeed, site, 2)
	switch site {
	case "fleet/journal/header-write":
		// Torn header: the journal's first line dies mid-write. The resumed
		// worker must reject the journal (ExitJournal) and the coordinator
		// must restart the shard fresh.
		return plan{worker: site + "=tearkill:7@1"}
	case "fleet/journal/header-sync":
		return plan{worker: site + "=kill@1"}
	case "fleet/journal/record-write":
		// Torn chunk record: the sealed artifact exists but its journal
		// line is half-written. The torn tail must be dropped and the chunk
		// rerun — deterministically, to identical bytes.
		return plan{worker: fmt.Sprintf("%s=tearkill:20@%d", site, hit)}
	case "fleet/journal/record-sync":
		return plan{worker: fmt.Sprintf("%s=kill@%d", site, hit)}
	case "fleet/write/payload":
		// Torn chunk artifact in the temp file: the rename never happens,
		// so the journal never references the torn bytes.
		return plan{worker: fmt.Sprintf("%s=tearkill:100@%d", site, hit)}
	case "fleet/write/sync":
		return plan{worker: fmt.Sprintf("%s=kill@%d", site, hit)}
	case "fleet/write/rename":
		return plan{worker: fmt.Sprintf("%s=kill@%d", site, hit)}
	case "fleet/worker/chunk":
		// A wedged worker: stalls far past the gate; the coordinator must
		// kill and relaunch it, and the resume must not repeat sealed work.
		return plan{worker: fmt.Sprintf("%s=stall:4s@%d", site, hit), stall: time.Second}
	case "fleet/worker/out":
		// Death after the final chunk seal, before the shard output: the
		// relaunch has nothing left to measure, only to reassemble.
		return plan{worker: site + "=kill@1"}
	case "fleet/launcher/start":
		// A refused spawn: the coordinator must treat it as a retryable
		// attempt with backoff, not a fatal run error.
		return plan{inproc: site + "=error@1"}
	case "store/ingest":
		return plan{inproc: site + "=error@1", ingest: http.StatusServiceUnavailable}
	case "store/merge":
		// Merge failure after a successful persist: the store must keep
		// serving the previous sealed view (degraded), quarantine the
		// accepted object, and the service-restart retry must restore full
		// data from a clean re-ingest.
		return plan{inproc: site + "=error@1", ingest: http.StatusServiceUnavailable}
	case "store/object/write":
		// Torn object persist: the store "crashes" mid-write, leaving a
		// corrupt objects/*.json; reopening must quarantine it (degraded,
		// not dead) and the re-ingest must restore full data.
		return plan{inproc: site + "=tear:64@1", ingest: http.StatusServiceUnavailable}
	case "query/render":
		return plan{inproc: site + "=error@1"}
	case "query/ingest":
		// An injected fault is transient: 503, like a failed persist.
		return plan{inproc: site + "=error@1", ingest: http.StatusServiceUnavailable}
	}
	t.Fatalf("failpoint site %q has no torture schedule — every registered site must be tortured (add it to schedule())", site)
	return plan{}
}

// outputs are the cycle's observable bytes: the merged artifact the
// fleet returned, and the query service's summary/CSV/artifact renders
// from the store it ingested into. Byte-identity of all four against the
// fault-free baseline is the pass criterion.
type outputs struct {
	artifact    []byte
	summary     []byte
	csv         []byte
	served      []byte
	health      string
	quarantined int
}

// runCycle runs one fleet → ingest → query cycle under the given plan,
// recovering from injected faults the way an operator (or supervisor)
// would: a failed fleet run is re-run against the same journals, a
// failed ingest restarts the service (reopen store + new server) and
// retries, a failed query is retried. Only a plan's ingest fault may
// fail an ingest, and it must fail the first one with the plan's class.
func runCycle(t *testing.T, dir string, p plan) outputs {
	t.Helper()
	var logMu sync.Mutex
	var fleetLog strings.Builder
	spec := fleet.Spec{
		Study:            fleet.Study{Experiment: "rowpress", Chip: "small", Rows: 1, Hammers: 60000},
		Workers:          2,
		Chunk:            1,
		Dir:              filepath.Join(dir, "fleet"),
		Retries:          3,
		Backoff:          20 * time.Millisecond,
		StallTimeout:     p.stall,
		WorkerFailpoints: p.worker,
		Log: func(format string, a ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(&fleetLog, format+"\n", a...)
		},
	}
	art, err := fleet.Run(spec)
	if err != nil {
		// An in-process fault escaped into the run; the rerun resumes from
		// the journals and must succeed (sites fire once per schedule).
		t.Logf("fleet run failed (%v); re-running against the same journals", err)
		if art, err = fleet.Run(spec); err != nil {
			t.Fatalf("fleet rerun after injected fault: %v", err)
		}
	}
	// A kill schedule the workers never hit would make recovery pass
	// vacuously — require the coordinator's log to show the casualty.
	if p.worker != "" || p.stall > 0 {
		logMu.Lock()
		lg := fleetLog.String()
		logMu.Unlock()
		if !strings.Contains(lg, "died (failpoint)") && !strings.Contains(lg, "stalled") {
			t.Fatalf("worker failpoint %q never fired; fleet log:\n%s", p.worker, lg)
		}
	}
	out := outputs{}
	if out.artifact, err = art.MarshalIndented(); err != nil {
		t.Fatal(err)
	}

	// Ingest every shard through the query service's POST endpoint, the
	// same bytes `characterize fleet -store` would feed it.
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	h := query.New(st).Handler()
	shards, err := filepath.Glob(filepath.Join(dir, "fleet", "shard-*.json"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shard artifacts in %s (err %v)", dir, err)
	}
	sort.Strings(shards)
	for i, path := range shards {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := http.StatusOK
		if i == 0 && p.ingest != 0 {
			want = p.ingest // the site fires on the first ingest
		}
		code, body := post(h, data)
		if code != want {
			t.Fatalf("ingest of %s: HTTP %d (%s), want %d",
				filepath.Base(path), code, bytes.TrimSpace(body), want)
		}
		if code != http.StatusOK {
			// Service "crash": reopen the store from disk — quarantining
			// whatever the fault tore — and retry against the new instance.
			t.Logf("ingest of %s failed (HTTP %d: %s); restarting the service and retrying",
				filepath.Base(path), code, bytes.TrimSpace(body))
			if st, err = store.Open(storeDir); err != nil {
				t.Fatalf("reopening store after injected fault: %v", err)
			}
			h = query.New(st).Handler()
			if code, body := post(h, data); code != http.StatusOK {
				t.Fatalf("ingest retry of %s: HTTP %d: %s", filepath.Base(path), code, body)
			}
		}
	}

	out.summary = getRetry(t, h, "/v1/summary")
	out.csv = getRetry(t, h, "/v1/csv")
	out.served = getRetry(t, h, "/v1/artifact")
	var health struct {
		Status      string `json:"status"`
		Quarantined int    `json:"quarantined"`
	}
	if err := json.Unmarshal(getRetry(t, h, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" && health.Status != "degraded" {
		t.Fatalf("healthz status %q", health.Status)
	}
	out.health = health.Status
	out.quarantined = health.Quarantined
	return out
}

func post(h http.Handler, data []byte) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(data)))
	return w.Code, w.Body.Bytes()
}

// getRetry GETs path, retrying once on a non-200 (the injected render
// fault serves exactly one failure; the retry must hit clean code).
func getRetry(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	for attempt := 0; ; attempt++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code == http.StatusOK {
			return w.Body.Bytes()
		}
		if attempt >= 1 {
			t.Fatalf("GET %s: HTTP %d after retry: %s", path, w.Code, w.Body.Bytes())
		}
		t.Logf("GET %s failed (HTTP %d); retrying", path, w.Code)
	}
}

// TestTortureAllSites is the harness: a fault-free baseline cycle, then
// one faulted cycle per registered failpoint site, each required to
// recover to byte-identical outputs.
func TestTortureAllSites(t *testing.T) {
	sites := failpoint.Names()
	if len(sites) < 10 {
		t.Fatalf("only %d failpoint sites registered (%v); the torture matrix expects >= 10", len(sites), sites)
	}
	t.Logf("torturing %d sites: %s", len(sites), strings.Join(sites, ", "))

	failpoint.Reset()
	base := runCycle(t, t.TempDir(), plan{})
	if base.health != "ok" || base.quarantined != 0 {
		t.Fatalf("fault-free baseline unhealthy: %s (%d quarantined)", base.health, base.quarantined)
	}

	for _, site := range sites {
		p := schedule(t, site)
		t.Run(strings.ReplaceAll(site, "/", "_"), func(t *testing.T) {
			failpoint.Reset()
			if p.inproc != "" {
				if err := failpoint.Arm(p.inproc); err != nil {
					t.Fatal(err)
				}
			}
			t.Cleanup(failpoint.Reset)

			got := runCycle(t, t.TempDir(), p)
			for _, c := range []struct {
				name       string
				want, have []byte
			}{
				{"fleet artifact", base.artifact, got.artifact},
				{"/v1/summary", base.summary, got.summary},
				{"/v1/csv", base.csv, got.csv},
				{"/v1/artifact", base.served, got.served},
			} {
				if !bytes.Equal(c.want, c.have) {
					t.Errorf("%s differs from the fault-free baseline after recovery", c.name)
				}
			}
			// The torn object persist must have gone through quarantine —
			// degraded service, full data after re-ingest.
			if site == "store/object/write" {
				if got.health != "degraded" || got.quarantined == 0 {
					t.Errorf("torn object write never exercised quarantine (health %s, quarantined %d)",
						got.health, got.quarantined)
				}
			}
		})
	}
}
