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
