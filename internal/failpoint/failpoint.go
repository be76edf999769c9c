// Package failpoint is a deterministic fault-injection registry for
// crash-consistency testing: durability-critical code declares named
// injection sites (Register), and a test or operator arms a subset of
// them with a reproducible schedule — "on the Nth time execution reaches
// site S, fail like THIS". Armed sites can return an injected error,
// stall, kill the process outright, or tear a write at a byte offset
// (write a prefix, then fail or die) — the four shapes a real crash,
// torn page or wedged worker takes.
//
// Sites are package-level handles:
//
//	var fpRename = failpoint.Register("fleet/write/rename")
//	...
//	if err := fpRename.Inject(); err != nil { return err }
//	if err := os.Rename(tmp, path); err != nil { ... }
//
// Disarmed sites cost one atomic load — they stay compiled into
// production binaries, which is the point: the torture harness
// (internal/torture, `make torture`) exercises the exact code that
// ships, not a test build.
//
// Arming is explicit and process-local. Tests call Arm/Reset; worker
// subprocesses receive a spec via the fleet's -failpoints flag, which
// the coordinator checks with Validate before any launch and passes to
// each worker's first launch only, so relaunched workers come back
// clean; standalone binaries may opt in to the HBMRH_FAILPOINTS
// environment variable via ArmFromEnv. Nothing arms implicitly.
//
// Spec grammar (semicolon-separated clauses):
//
//	site=action[:arg][@hit]
//
//	error            return ErrInjected from Inject/Write
//	stall:DUR        sleep DUR (time.ParseDuration), then proceed
//	kill             exit the process with ExitCode
//	tear:N           write sites only: write the first N payload bytes,
//	                 then return ErrInjected
//	tearkill:N       write the first N payload bytes, sync, then exit
//	@hit             fire on the hit-th time the site is reached
//	                 (1-based, per process; default 1)
//
// Hit counting is per-site and per-process, so a schedule is fully
// determined by the spec string — no clocks, no randomness. ScheduleHit
// derives per-site hit indices from a single seed when a caller wants a
// varied but reproducible schedule across many sites.
package failpoint

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected tags every failure this package fabricates; callers that
// need to distinguish injected faults from real ones (the torture
// harness, retry loops in tests) match it with errors.Is.
var ErrInjected = errors.New("failpoint: injected fault")

// ExitCode is the process exit status of kill and tearkill actions —
// distinct from the fleet's ExitJournal so coordinator logs name the
// cause.
const ExitCode = 5

// EnvVar is the spec variable ArmFromEnv reads.
const EnvVar = "HBMRH_FAILPOINTS"

// Action is what an armed site does when its scheduled hit arrives.
type Action uint8

const (
	// ActError returns ErrInjected.
	ActError Action = iota + 1
	// ActStall sleeps the armed duration, then proceeds normally.
	ActStall
	// ActKill exits the process with ExitCode.
	ActKill
	// ActTear (write sites) writes a prefix of the payload, then
	// returns ErrInjected.
	ActTear
	// ActTearKill (write sites) writes a prefix of the payload, syncs
	// it if the destination is a file, then exits with ExitCode.
	ActTearKill
)

// arming is one site's immutable armed state; swapping the pointer
// atomically arms/disarms without locking the hot path.
type arming struct {
	act   Action
	hit   uint64        // fire on this 1-based hit
	tear  int           // tear offset in bytes
	stall time.Duration // stall duration
}

// Site is one named injection point. Obtain with Register at package
// init; all methods are safe for concurrent use and nearly free while
// the site is disarmed.
type Site struct {
	name string
	arm  atomic.Pointer[arming]
	hits atomic.Uint64
}

var (
	regMu sync.Mutex
	sites = map[string]*Site{}

	// exit is swappable so kill actions are unit-testable.
	exit = os.Exit
)

// Register declares a site. Call once per name, from a package-level
// var; duplicate names panic (two call sites sharing a name would make
// hit schedules ambiguous).
func Register(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if sites[name] != nil {
		panic(fmt.Sprintf("failpoint: site %q registered twice", name))
	}
	s := &Site{name: name}
	sites[name] = s
	return s
}

// Names returns the sorted catalog of every registered site — the
// torture harness's worklist.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(sites))
	for n := range sites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Arm parses a spec string and arms each named site, resetting its hit
// counter so the schedule starts from the arming point. Unknown sites,
// unknown actions, malformed clauses and an argument on error or kill
// are errors (a typo must never silently arm nothing). Arming is
// all-or-nothing: every clause is validated before any site is armed,
// so a rejected spec leaves every site as it was.
func Arm(spec string) error {
	armSites, armings, err := parse(spec)
	if err != nil {
		return err
	}
	for i, s := range armSites {
		s.hits.Store(0)
		s.arm.Store(armings[i])
	}
	return nil
}

// Validate parses spec exactly as Arm does and returns Arm's error for
// it, arming nothing: a process that hands a spec to another one (the
// fleet coordinator to its workers) refuses a typo before it launches
// anything.
func Validate(spec string) error {
	_, _, err := parse(spec)
	return err
}

// parse checks every clause of spec against the grammar and the site
// catalog, returning each clause's site and the state arming it
// installs, in spec order.
func parse(spec string) (armSites []*Site, armings []*arming, err error) {
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, nil, fmt.Errorf("failpoint: bad clause %q: want site=action[:arg][@hit]", clause)
		}
		a := &arming{hit: 1}
		if at := strings.LastIndex(rest, "@"); at >= 0 {
			n, err := strconv.ParseUint(rest[at+1:], 10, 64)
			if err != nil || n == 0 {
				return nil, nil, fmt.Errorf("failpoint: bad hit index in %q (want @N, N >= 1)", clause)
			}
			a.hit = n
			rest = rest[:at]
		}
		act, arg, hasArg := strings.Cut(rest, ":")
		switch act {
		case "error", "kill":
			a.act = ActError
			if act == "kill" {
				a.act = ActKill
			}
			if hasArg {
				return nil, nil, fmt.Errorf("failpoint: %s takes no argument in %q", act, clause)
			}
		case "stall":
			a.act = ActStall
			if a.stall, err = time.ParseDuration(arg); err != nil || a.stall <= 0 {
				return nil, nil, fmt.Errorf("failpoint: bad stall duration in %q", clause)
			}
		case "tear", "tearkill":
			a.act = ActTear
			if act == "tearkill" {
				a.act = ActTearKill
			}
			if a.tear, err = strconv.Atoi(arg); err != nil || a.tear < 0 {
				return nil, nil, fmt.Errorf("failpoint: bad tear offset in %q (want a byte count)", clause)
			}
		default:
			return nil, nil, fmt.Errorf("failpoint: unknown action %q in %q", act, clause)
		}
		regMu.Lock()
		s := sites[name]
		regMu.Unlock()
		if s == nil {
			return nil, nil, fmt.Errorf("failpoint: unknown site %q in %q (catalog: %s)", name, clause, strings.Join(Names(), ", "))
		}
		armSites, armings = append(armSites, s), append(armings, a)
	}
	return armSites, armings, nil
}

// ArmFromEnv arms from the HBMRH_FAILPOINTS environment variable, a
// no-op when unset. Binaries opt in from main; library code never calls
// it, so tests and fleet workers are immune to inherited environments.
func ArmFromEnv() error {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil
	}
	return Arm(spec)
}

// Disarm clears one site; unknown names are a no-op.
func Disarm(name string) {
	regMu.Lock()
	s := sites[name]
	regMu.Unlock()
	if s != nil {
		s.arm.Store(nil)
		s.hits.Store(0)
	}
}

// Reset disarms every site and zeroes every hit counter.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range sites {
		s.arm.Store(nil)
		s.hits.Store(0)
	}
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// fire reports whether this call is the scheduled hit and returns the
// armed state when it is.
func (s *Site) fire() *arming {
	a := s.arm.Load()
	if a == nil {
		return nil
	}
	if s.hits.Add(1) != a.hit {
		return nil
	}
	return a
}

// Inject evaluates the site for non-write operations (a sync, a rename,
// a spawn, a render): it returns ErrInjected, stalls, kills, or — the
// overwhelmingly common case — does nothing. Tear actions on a non-write
// site degrade to ActError (there is no payload to tear).
func (s *Site) Inject() error {
	a := s.fire()
	if a == nil {
		return nil
	}
	switch a.act {
	case ActStall:
		time.Sleep(a.stall)
		return nil
	case ActKill, ActTearKill:
		exit(ExitCode)
		return nil // unreachable except under the test exit hook
	default:
		return fmt.Errorf("%w at %s", ErrInjected, s.name)
	}
}

// Write performs w.Write(data) through the site. Disarmed (or
// off-schedule) it is a plain write. Error/stall/kill actions apply
// before any byte is written; tear actions write data[:offset] (clamped),
// sync it when w is an *os.File so the torn prefix really is on disk,
// and then fail (tear) or die (tearkill) — the torn-write crash a
// journaled format must survive.
func (s *Site) Write(w io.Writer, data []byte) (int, error) {
	a := s.fire()
	if a == nil {
		return w.Write(data)
	}
	switch a.act {
	case ActStall:
		time.Sleep(a.stall)
		return w.Write(data)
	case ActKill:
		exit(ExitCode)
		return 0, nil
	case ActTear, ActTearKill:
		n := min(a.tear, len(data))
		wrote, err := w.Write(data[:n])
		if f, ok := w.(*os.File); ok {
			f.Sync()
		}
		if a.act == ActTearKill {
			exit(ExitCode)
		}
		if err != nil {
			return wrote, err
		}
		return wrote, fmt.Errorf("%w: torn write at %s after %d/%d bytes", ErrInjected, s.name, wrote, len(data))
	default:
		return 0, fmt.Errorf("%w at %s", ErrInjected, s.name)
	}
}

// ScheduleHit derives a deterministic 1-based hit index in [1, max] for
// a site from a seed: the reproducible "which occurrence fails" half of
// a torture schedule, with no global randomness.
func ScheduleHit(seed uint64, site string, max uint64) uint64 {
	if max <= 1 {
		return 1
	}
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	io.WriteString(h, site)
	return 1 + h.Sum64()%max
}

// setExitForTest swaps the process-exit hook, returning a restore
// function; tests in this package use it to observe kill actions.
func setExitForTest(f func(int)) (restore func()) {
	old := exit
	exit = f
	return func() { exit = old }
}
