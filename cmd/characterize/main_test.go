package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hbmrh "github.com/safari-repro/hbmrh"
)

// TestPaperSuiteRefusesNegativeRows pins the paper suite's pre-flight: a
// negative -rows or -bankrows is refused while the suite is planned,
// naming the experiment that receives it, and the flag defaults plan.
func TestPaperSuiteRefusesNegativeRows(t *testing.T) {
	opts := hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip()}
	if suite, err := paperSuite(opts, 0, 16); err != nil || len(suite) != 3 {
		t.Fatalf("defaults: suite = %v, err = %v", suite, err)
	}
	for _, tc := range []struct {
		name           string
		rows, bankRows int
		want           string
	}{
		{"rows", -1, 16, "planning sweep: Rows -1: must be >= 0"},
		{"bankrows", 0, -2, "planning fig6: Rows -2: must be >= 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			suite, err := paperSuite(opts, tc.rows, tc.bankRows)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if suite != nil {
				t.Fatalf("suite = %v, want none on a refused knob", suite)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error spans lines: %q", err)
			}
		})
	}
}

// TestPaperSuitePassesBankToTRRStudyOnly pins that -channel/-pc/-bank
// reach trrstudy, the one suite study that reads them, and that sweep
// and fig6, which refuse a bank they do not read, plan without it.
func TestPaperSuitePassesBankToTRRStudyOnly(t *testing.T) {
	bank := hbmrh.BankAddr{Channel: 2, PseudoChannel: 1, Bank: 1}
	suite, err := paperSuite(hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Bank: bank}, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range suite {
		want := hbmrh.BankAddr{}
		if e.name == "trrstudy" {
			want = bank
		}
		if e.opts.Bank != want {
			t.Errorf("%s runs at bank %v, want %v", e.name, e.opts.Bank, want)
		}
	}
}

// TestPaperSuiteHandsEachStudyItsKnobs pins that the paper suite hands
// each study only the knobs it reads (-hammers to sweep and fig6,
// -iterations to trrstudy) and refuses a knob none of them reads.
func TestPaperSuiteHandsEachStudyItsKnobs(t *testing.T) {
	opts := hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Rows: 5, Hammers: 30000, Iterations: 7}
	suite, err := paperSuite(opts, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]int{"sweep": {5, 30000, 0}, "fig6": {2, 30000, 0}, "trrstudy": {0, 0, 7}}
	for _, e := range suite {
		if got := [3]int{e.opts.Rows, e.opts.Hammers, e.opts.Iterations}; got != want[e.name] {
			t.Errorf("%s runs at rows/hammers/iterations %v, want %v", e.name, got, want[e.name])
		}
	}
	opts.Seeds = 3
	_, err = paperSuite(opts, 5, 2)
	if wantErr := "Seeds 3: the paper suite does not read it (read by multichip)"; err == nil || err.Error() != wantErr {
		t.Errorf("-seeds 3: err = %v, want %q", err, wantErr)
	}
}

// TestExportArtifactUnderivableAxisWritesNothing pins the export
// pre-flight: asking a point-axis artifact for a channel view fails with
// the stored-axis hint before the report or any export file is written.
func TestExportArtifactUnderivableAxisWritesNothing(t *testing.T) {
	a, err := hbmrh.RunExperiment("crosschannel", hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Rows: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvOut := filepath.Join(dir, "out.csv")
	jsonOut := filepath.Join(dir, "out.json")
	artifact := filepath.Join(dir, "out.bin")
	for _, exports := range [][3]string{
		{csvOut, "", ""},
		{"", jsonOut, ""},
		{csvOut, jsonOut, artifact},
	} {
		var stdout bytes.Buffer
		err := exportArtifact(&stdout, a, "channel", exports[0], exports[1], exports[2])
		if err == nil || !strings.Contains(err.Error(), `(this artifact stores axis "point"; pass -group-by point)`) {
			t.Fatalf("exports %v: error = %v, want the stored-axis hint", exports, err)
		}
		if stdout.Len() != 0 {
			t.Fatalf("exports %v: wrote %d bytes to stdout before failing:\n%s", exports, stdout.Len(), stdout.String())
		}
		for _, p := range []string{csvOut, jsonOut, artifact} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("exports %v: %s exists after a failed export (stat: %v)", exports, filepath.Base(p), err)
			}
		}
	}

	// The stored axis exports normally, report first.
	var stdout bytes.Buffer
	if err := exportArtifact(&stdout, a, "point", csvOut, "", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "experiment crosschannel") {
		t.Fatalf("report missing:\n%s", stdout.String())
	}
	if data, err := os.ReadFile(csvOut); err != nil || !bytes.HasPrefix(data, []byte("point,metric,")) {
		t.Fatalf("csv export: %q, %v", data, err)
	}
}

// TestProgressLineKeepsLogLinesOffRedraws pins -progress on a terminal:
// the progress redraws ("\rjobs: N/M", no newline) and the fleet
// coordinator's log lines go to one writer, and no log line may land on
// the line a redraw holds (as in "jobs: 2/5fleet: worker 1 died").
func TestProgressLineKeepsLogLinesOffRedraws(t *testing.T) {
	var out bytes.Buffer
	p := &progressLine{w: &out}
	logs := []string{"fleet: worker 1 died (failpoint)", "fleet: relaunching shard 1", "fleet: done in 1s"}
	p.progress(hbmrh.EngineProgress{Done: 1, Total: 5})
	p.progress(hbmrh.EngineProgress{Done: 2, Total: 5})
	p.logf("%s\n", logs[0])
	p.logf("%s", logs[1])
	p.progress(hbmrh.EngineProgress{Done: 3, Total: 5})
	p.progress(hbmrh.EngineProgress{Done: 5, Total: 5})
	p.logf("%s", logs[2])
	lines := strings.Split(out.String(), "\n")
	seen := 0
	for _, line := range lines {
		if !strings.Contains(line, "fleet:") {
			continue
		}
		if strings.Contains(line, "jobs:") {
			t.Errorf("log line shares a line with a progress redraw: %q", line)
		}
		if line != logs[seen] {
			t.Errorf("log line %d = %q, want %q", seen, line, logs[seen])
		}
		seen++
	}
	if seen != len(logs) || lines[len(lines)-1] != "" {
		t.Fatalf("%d of %d log lines, output %q: want every log line whole and the output ending in a newline", seen, len(logs), out.String())
	}
}
