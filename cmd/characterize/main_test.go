package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hbmrh "github.com/safari-repro/hbmrh"
)

func TestCheckBudgets(t *testing.T) {
	cases := []struct {
		name                                       string
		rows, bankRows, hammers, seeds, iterations int
		wantErr                                    string
	}{
		{"defaults", 0, 0, 0, 0, 0, ""},
		{"explicit", 2, 2, 30000, 32, 60, ""},
		{"negative rows", -1, 0, 0, 0, 0, "-rows -1"},
		{"negative bankrows", 0, -2, 0, 0, 0, "-bankrows -2"},
		{"negative hammers", 0, 0, -5, 0, 0, "-hammers -5"},
		{"negative seeds", 0, 0, 0, -2, 0, "-seeds -2"},
		{"negative iterations", 0, 0, 0, 0, -3, "-iterations -3"},
		{"first offender named", -1, 0, 0, -2, 0, "-rows -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkBudgets(tc.rows, tc.bankRows, tc.hammers, tc.seeds, tc.iterations)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr+":") {
				t.Fatalf("error = %v, want prefix %q", err, tc.wantErr)
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
