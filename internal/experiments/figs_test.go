package experiments

import (
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/results"
)

// TestFiguresRenderFromDecodedArtifacts pins that the figure reports
// read nothing the artifact file drops: a sweep or fig6 artifact renders
// the same bytes before and after a round trip through the codec, the
// fig6 one at a budget that leaves banks without a CV.
func TestFiguresRenderFromDecodedArtifacts(t *testing.T) {
	for _, name := range []string{"sweep", "fig6"} {
		a, err := Run(name, Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 30000})
		if err != nil {
			t.Fatal(err)
		}
		back, err := results.Decode(marshal(t, a))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Render(back), Render(a); got != want {
			t.Errorf("%s: decoded artifact renders\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestFiguresRenderFromLoneSlices renders single shard slices: a sweep
// slice without channel 0 (Fig. 5 once took its x axis from channel 0
// only) and a fig6 slice of banks that never flip.
func TestFiguresRenderFromLoneSlices(t *testing.T) {
	sweep, err := Run("sweep", Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 30000, Shard: 1, ShardCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sweep.Rows {
		if r.Channel != 2 && r.Channel != 3 {
			t.Fatalf("shard 1/4 measured channel %d", r.Channel)
		}
	}
	_, _, f5 := sweepFigs(sweep)
	if xs, series := f5.Profile("middle"); len(xs) == 0 || len(series) != 8 || len(series[2].Values) != len(xs) {
		t.Errorf("profile of a slice without channel 0: %d rows, %d series", len(xs), len(series))
	}
	out := Render(sweep)
	for _, want := range []string{"shard 1/4 covering jobs [2,+2)", "Fig. 3", "Fig. 4", "Fig. 5", "  ch2    ", "headlines: last-subarray"} {
		if !strings.Contains(out, want) {
			t.Errorf("slice render missing %q:\n%s", want, out)
		}
	}

	fig6, err := Run("fig6", Options{Cfg: config.SmallChip(), Rows: 1, Hammers: 5000, Shard: 0, ShardCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fig6.Banks {
		if b.HasCV() {
			t.Fatalf("bank %+v flipped at 5000 hammers; the slice is no longer all-zero", b)
		}
	}
	out = Render(fig6)
	for _, want := range []string{"Fig. 6", "(no data)", "bank mean BER 0.00-0.00%", "CV 0.00-0.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("all-zero fig6 slice render missing %q:\n%s", want, out)
		}
	}
}

// TestClaimsTable pins the paper-value table: unique IDs, every claim
// printable, and min HCfirst marked as set by calibration.
func TestClaimsTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims() {
		if seen[c.ID] || c.ID == "" || c.Figure == "" || c.Metric == "" || c.Paper == "" {
			t.Errorf("claim %+v: duplicate or incomplete", c)
		}
		seen[c.ID] = true
	}
	if got := paper("fig4.min_hcfirst"); got != "14531, calibrated to Fault.HCFloor" {
		t.Errorf("min HCfirst paper text %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("an unknown claim ID did not panic")
		}
	}()
	paper("nope")
}
