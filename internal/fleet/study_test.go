package fleet

import (
	"context"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/experiments"
)

// fillNonZero sets every field of v, recursing into structs, to a
// distinct non-zero value. A field of a kind it cannot fill fails the
// test, so a new Study field gets a value here or a test update.
func fillNonZero(t *testing.T, v reflect.Value, path string, next *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		*next++
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("v%d", *next))
		case reflect.Int:
			f.SetInt(int64(*next))
		case reflect.Struct:
			fillNonZero(t, f, name+".", next)
		default:
			t.Fatalf("Study field %s has kind %s; teach fillNonZero to fill it", name, f.Kind())
		}
	}
}

// TestStudyArgsRoundTrip pins the one coordinator→worker encoding of a
// study: a Study with every field set goes through the worker argv and
// the worker's flag parse and comes back equal. A Study field without a
// flag in RegisterFlags comes back zero and fails here.
func TestStudyArgsRoundTrip(t *testing.T) {
	var s Study
	n := 0
	fillNonZero(t, reflect.ValueOf(&s).Elem(), "", &n)
	r := &run{spec: Spec{Study: s}, chunk: 3}
	argv := r.workerArgv(1, 2, 5, "journal", "shard.json", "site=error@1")
	if argv[0] != WorkerCommand {
		t.Fatalf("argv[0] = %q, want %q", argv[0], WorkerCommand)
	}
	w, failpoints, err := parseWorkerArgs(argv[1:])
	if err != nil {
		t.Fatalf("parsing %q: %v", argv, err)
	}
	want := WorkerSpec{Study: s, Worker: 1, Lo: 2, Hi: 5, Chunk: 3, Dir: "journal", Out: "shard.json"}
	if w != want || failpoints != "site=error@1" {
		t.Errorf("worker spec = %+v (failpoints %q), want %+v\n(argv %q)", w, failpoints, want, argv)
	}
}

// TestParseWorkerArgsRefusals pins the worker's refusals: an undeclared
// flag (the coordinator's -workers among them) and a missing required one.
func TestParseWorkerArgsRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment=rowpress", "-dir=d", "-out=o", "-workers=2"}, "not defined: -workers"},
		{[]string{"-experiment=rowpress", "-dir=d"}, "are required"},
	} {
		if _, _, err := parseWorkerArgs(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseWorkerArgs(%q) = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestFleetSection5AtBank pins that a fleet run measures the study's
// bank: the trrstudy at ch2.pc1.ba1 through one worker process yields
// the single-process artifact's bytes.
func TestFleetSection5AtBank(t *testing.T) {
	s := Study{Experiment: "trrstudy", Chip: "small", Iterations: 40, Bank: addr.BankAddr{Channel: 2, PseudoChannel: 1, Bank: 1}}
	want := singleProcessBytes(t, s)
	if !strings.Contains(string(want), `"bank": "ch2.pc1.ba1"`) {
		t.Fatalf("single-process artifact does not pin the bank:\n%s", want)
	}
	got := fleetBytes(t, Spec{Study: s, Workers: 1, Dir: t.TempDir()})
	if string(got) != string(want) {
		t.Fatalf("fleet artifact differs from the single-process run:\n%s\nwant\n%s", got, want)
	}
}

// TestDropUnreadDefaults pins how a parsed study meets the registry's
// unread-knob check: the non-zero defaults of -rows and -hammers reach
// only the experiments that read them, and a knob set on the command
// line stays, so the registry refuses it where it is unread.
func TestDropUnreadDefaults(t *testing.T) {
	parse := func(args ...string) Study {
		var s Study
		fs := flag.NewFlagSet("study", flag.ContinueOnError)
		s.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		s.DropUnreadDefaults(fs)
		return s
	}
	for _, tc := range []struct {
		args          []string
		rows, hammers int
	}{
		{[]string{"-experiment", "sweep"}, 24, core.DefaultHammers},
		{[]string{"-experiment", "crosschannel"}, 24, 0},
		{[]string{"-experiment", "trrbypass", "-hammers", "30000"}, 0, 30000},
		{[]string{"-experiment", "trrstudy"}, 0, 0},
		{[]string{"-experiment", "trrbypass", "-rows", "24"}, 24, core.DefaultHammers},
		{[]string{"-experiment", "paper"}, 24, core.DefaultHammers},
	} {
		s := parse(tc.args...)
		if s.Rows != tc.rows || s.Hammers != tc.hammers {
			t.Errorf("%q: rows %d, hammers %d; want %d, %d", tc.args, s.Rows, s.Hammers, tc.rows, tc.hammers)
		}
	}
	o, err := parse("-experiment", "trrbypass", "-rows", "24").Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Describe("trrbypass", o); err == nil || !strings.Contains(err.Error(), "Rows 24: trrbypass does not read it") {
		t.Errorf("-rows 24 to trrbypass: err = %v", err)
	}
}
