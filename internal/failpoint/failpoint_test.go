package failpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// site registers a uniquely named site for one test and cleans its
// arming up afterwards.
func site(t *testing.T, name string) *Site {
	t.Helper()
	s := Register(name)
	t.Cleanup(func() {
		Disarm(name)
		regMu.Lock()
		delete(sites, name)
		regMu.Unlock()
	})
	return s
}

func TestDisarmedSiteIsTransparent(t *testing.T) {
	s := site(t, "test/transparent")
	for i := 0; i < 3; i++ {
		if err := s.Inject(); err != nil {
			t.Fatalf("disarmed Inject: %v", err)
		}
	}
	var buf bytes.Buffer
	if n, err := s.Write(&buf, []byte("payload")); err != nil || n != 7 {
		t.Fatalf("disarmed Write: n=%d err=%v", n, err)
	}
	if buf.String() != "payload" {
		t.Fatalf("disarmed Write wrote %q", buf.String())
	}
}

func TestErrorFiresOnScheduledHitOnly(t *testing.T) {
	s := site(t, "test/error-hit")
	if err := Arm("test/error-hit=error@3"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := s.Inject()
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: got %v, want ErrInjected", i, err)
			}
			if !strings.Contains(err.Error(), "test/error-hit") {
				t.Fatalf("injected error does not name its site: %v", err)
			}
		} else if err != nil {
			t.Fatalf("hit %d fired unexpectedly: %v", i, err)
		}
	}
}

func TestArmResetsHitCounter(t *testing.T) {
	s := site(t, "test/rearm")
	if err := Arm("test/rearm=error@1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first arming never fired: %v", err)
	}
	if err := Arm("test/rearm=error@2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(); err != nil {
		t.Fatalf("hit 1 after re-arm fired: %v", err)
	}
	if err := s.Inject(); !errors.Is(err, ErrInjected) {
		t.Fatalf("hit 2 after re-arm never fired: %v", err)
	}
}

func TestTearWritesPrefixThenFails(t *testing.T) {
	s := site(t, "test/tear")
	if err := Arm("test/tear=tear:4"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := s.Write(&buf, []byte("abcdefgh"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: got %v, want ErrInjected", err)
	}
	if n != 4 || buf.String() != "abcd" {
		t.Fatalf("torn write left %q (n=%d), want the 4-byte prefix", buf.String(), n)
	}
	// Off-schedule hits write normally again.
	buf.Reset()
	if n, err := s.Write(&buf, []byte("abcdefgh")); err != nil || n != 8 {
		t.Fatalf("post-fire Write: n=%d err=%v", n, err)
	}
}

func TestTearOffsetClampsToPayload(t *testing.T) {
	s := site(t, "test/tear-clamp")
	if err := Arm("test/tear-clamp=tear:999"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := s.Write(&buf, []byte("xy"))
	if !errors.Is(err, ErrInjected) || n != 2 || buf.String() != "xy" {
		t.Fatalf("clamped tear: n=%d err=%v buf=%q", n, err, buf.String())
	}
}

func TestKillCallsExit(t *testing.T) {
	s := site(t, "test/kill")
	var code = -1
	restore := setExitForTest(func(c int) { code = c })
	defer restore()
	if err := Arm("test/kill=kill"); err != nil {
		t.Fatal(err)
	}
	s.Inject()
	if code != ExitCode {
		t.Fatalf("kill exited with %d, want %d", code, ExitCode)
	}
}

func TestTearKillSyncsPrefixThenExits(t *testing.T) {
	s := site(t, "test/tearkill")
	var code = -1
	restore := setExitForTest(func(c int) { code = c })
	defer restore()
	if err := Arm("test/tearkill=tearkill:3"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "torn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s.Write(f, []byte("abcdef"))
	if code != ExitCode {
		t.Fatalf("tearkill exited with %d, want %d", code, ExitCode)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("torn file holds %q, want the 3-byte prefix", got)
	}
}

func TestStallSleepsThenProceeds(t *testing.T) {
	s := site(t, "test/stall")
	if err := Arm("test/stall=stall:30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Inject(); err != nil {
		t.Fatalf("stall returned %v, want nil", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("stall slept only %s", d)
	}
}

func TestArmRejectsBadSpecs(t *testing.T) {
	site(t, "test/parse")
	for _, spec := range []string{
		"nosuchsite=error",
		"test/parse",
		"test/parse=explode",
		"test/parse=error@0",
		"test/parse=error@x",
		"test/parse=stall",
		"test/parse=stall:xyz",
		"test/parse=tear:-1",
		"test/parse=tear:abc",
		"test/parse=error:junk",
		"test/parse=kill:",
		"test/parse=kill:junk@2",
	} {
		err := Arm(spec)
		if err == nil {
			t.Errorf("Arm(%q) accepted a bad spec", spec)
			continue
		}
		if verr := Validate(spec); verr == nil || verr.Error() != err.Error() {
			t.Errorf("Validate(%q) = %v, want Arm's error %q", spec, verr, err)
		}
	}
	// A bad clause must not have armed the site along the way.
	if err := sites["test/parse"].Inject(); err != nil {
		t.Fatalf("bad specs left the site armed: %v", err)
	}
}

// TestArmIsAllOrNothing pins that a spec with one bad clause arms
// nothing, even when the clauses before it name real sites.
func TestArmIsAllOrNothing(t *testing.T) {
	s := site(t, "test/atomic")
	for _, spec := range []string{
		"test/atomic=error;bogus",
		"test/atomic=error; nosuchsite=error",
		"test/atomic=error;test/atomic=explode",
		"test/atomic=error;test/atomic=error:junk",
	} {
		if err := Arm(spec); err == nil {
			t.Fatalf("Arm(%q) accepted a bad spec", spec)
		}
		if err := s.Inject(); err != nil {
			t.Fatalf("rejected spec %q left its valid clause armed: %v", spec, err)
		}
	}
}

// TestValidateArmsNothing pins that a spec Validate accepts is one Arm
// accepts, and that validating it leaves the site disarmed.
func TestValidateArmsNothing(t *testing.T) {
	s := site(t, "test/validate")
	if err := Validate("test/validate=error; test/validate=kill@3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(); err != nil {
		t.Fatalf("Validate armed the site: %v", err)
	}
}

func TestArmMultipleClauses(t *testing.T) {
	a := site(t, "test/multi-a")
	b := site(t, "test/multi-b")
	if err := Arm("test/multi-a=error; test/multi-b=error@2;"); err != nil {
		t.Fatal(err)
	}
	if err := a.Inject(); !errors.Is(err, ErrInjected) {
		t.Fatalf("site a never fired: %v", err)
	}
	if err := b.Inject(); err != nil {
		t.Fatalf("site b fired early: %v", err)
	}
	if err := b.Inject(); !errors.Is(err, ErrInjected) {
		t.Fatalf("site b never fired: %v", err)
	}
}

func TestArmFromEnv(t *testing.T) {
	s := site(t, "test/env")
	t.Setenv(EnvVar, "test/env=error")
	if err := ArmFromEnv(); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(); !errors.Is(err, ErrInjected) {
		t.Fatalf("env arming never fired: %v", err)
	}
	t.Setenv(EnvVar, "")
	Disarm("test/env")
	if err := ArmFromEnv(); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(); err != nil {
		t.Fatalf("empty env armed something: %v", err)
	}
}

func TestNamesSortedAndScheduleHitDeterministic(t *testing.T) {
	site(t, "test/zzz")
	site(t, "test/aaa")
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not strictly sorted: %q >= %q", names[i-1], names[i])
		}
	}
	for _, name := range names {
		h := ScheduleHit(42, name, 3)
		if h < 1 || h > 3 {
			t.Fatalf("ScheduleHit(42, %q, 3) = %d out of range", name, h)
		}
		if h != ScheduleHit(42, name, 3) {
			t.Fatalf("ScheduleHit not deterministic for %q", name)
		}
	}
	if ScheduleHit(7, "x", 0) != 1 || ScheduleHit(7, "x", 1) != 1 {
		t.Fatal("ScheduleHit must clamp max <= 1 to hit 1")
	}
}

// FuzzFailpointSpec arms arbitrary specs over a small catalog whose
// sites start in a known state (one armed, its hit counter advanced).
// Arm must never panic; a rejected spec must leave every site's arming
// and hit counter untouched; an accepted spec must arm exactly the
// sites its clauses name, with fresh hit counters, and leave the rest
// as they were.
func FuzzFailpointSpec(f *testing.F) {
	names := []string{"fuzz/a", "fuzz/b", "fuzz/c"}
	for _, n := range names {
		Register(n)
	}
	f.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		for _, n := range names {
			delete(sites, n)
		}
	})
	for _, spec := range []string{
		"", ";;", "fuzz/a=error", "fuzz/a=error;bogus", "fuzz/b=error:junk",
		"fuzz/a=stall:5ms@2; fuzz/c=tear:3", "fuzz/c=tearkill:0@9;fuzz/a=kill",
		"fuzz/a=error@0", "fuzz/b=kill;fuzz/b=stall:1s", "=error", "fuzz/a=tear:-1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		Reset()
		defer Reset()
		if err := Arm("fuzz/b=stall:1h@7"); err != nil {
			t.Fatal(err)
		}
		sites["fuzz/b"].Inject() // hit 1 of 7: advances the counter only
		type state struct {
			arm  *arming
			hits uint64
		}
		before := map[string]state{}
		for _, n := range names {
			s := sites[n]
			before[n] = state{s.arm.Load(), s.hits.Load()}
		}
		err := Arm(spec)
		named := map[string]bool{}
		if err == nil {
			for _, clause := range strings.Split(spec, ";") {
				if clause = strings.TrimSpace(clause); clause != "" {
					name, _, _ := strings.Cut(clause, "=")
					named[name] = true
				}
			}
		}
		for _, n := range names {
			s := sites[n]
			got := state{s.arm.Load(), s.hits.Load()}
			switch {
			case named[n]:
				if got.arm == nil || got.arm == before[n].arm || got.hits != 0 {
					t.Fatalf("Arm(%q) accepted but did not freshly arm %s: %+v", spec, n, got)
				}
			case got != before[n]:
				t.Fatalf("Arm(%q) (err %v) changed unnamed site %s: %+v -> %+v", spec, err, n, before[n], got)
			}
		}
		for name := range named {
			if _, ok := before[name]; !ok {
				t.Fatalf("Arm(%q) accepted a clause naming unknown site %q", spec, name)
			}
		}
	})
}
