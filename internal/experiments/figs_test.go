package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/results"
)

// TestFiguresRenderFromDecodedArtifacts pins that the figure and Section
// 5 reports read nothing the artifact file drops: a sweep, fig6,
// trrstudy or utrrprobe artifact renders the same bytes before and after
// a round trip through the codec, the fig6 one at a budget that leaves
// banks without a CV.
func TestFiguresRenderFromDecodedArtifacts(t *testing.T) {
	for _, name := range []string{"sweep", "fig6", "trrstudy", "utrrprobe"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(name, e.Narrow(Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 30000}))
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
	for _, want := range []string{"Fig. 6", "(no data)", "bank mean BER 0.00-0.00%", "bank BER CV none"} {
		if !strings.Contains(out, want) {
			t.Errorf("all-zero fig6 slice render missing %q:\n%s", want, out)
		}
	}
}

// TestEveryClaimIsMeasured pins the claims table against the artifacts
// that measure it: on small-chip sweep, fig6 and trrstudy artifacts every
// claim, and only the claims of the artifact's tool, gets a measured
// text, printed in its figure's headline line and in the comparison
// table. A sweep whose hammer budget is below every threshold reads
// "none" for min HCfirst and the channel ratio and spread, not a
// sentinel, and so does a one-channel slice for the ratio and spread.
func TestEveryClaimIsMeasured(t *testing.T) {
	var arts []*results.Artifact
	measured, rendered := map[string]string{}, map[string]string{}
	for _, name := range []string{"sweep", "fig6", "trrstudy"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(name, e.Narrow(Options{Cfg: config.SmallChip(), Rows: 2}))
		if err != nil {
			t.Fatal(err)
		}
		arts = append(arts, a)
		for id, v := range measures[name](a) {
			measured[id], rendered[id] = v, Render(a)
			if i := slices.IndexFunc(claims, func(c Claim) bool { return c.ID == id }); i < 0 || claims[i].Tool != name {
				t.Errorf("%s measures %q, which is not one of its claims", name, id)
			}
		}
	}
	if len(measured) != len(claims) {
		t.Errorf("%d measured claims for %d in the table", len(measured), len(claims))
	}
	table := ClaimsTable(arts...)
	for _, c := range claims {
		v := measured[c.ID]
		if v == "" {
			t.Errorf("%s: not measured", c.ID)
			continue
		}
		if headline := c.Metric + " " + v + " (paper " + c.PaperText() + ")"; !strings.Contains(rendered[c.ID], headline) {
			t.Errorf("%s: %s report lacks %q", c.ID, c.Tool, headline)
		}
		if row := "| " + c.Figure + " | " + c.Metric + " | " + c.PaperText() + " | " + v + " |\n"; !strings.Contains(table, row) {
			t.Errorf("%s: table lacks %q:\n%s", c.ID, row, table)
		}
	}

	quiet, err := Run("sweep", Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 5000})
	if err != nil {
		t.Fatal(err)
	}
	m := measureSweep(quiet)
	for _, id := range []string{"fig4.min_hcfirst", "fig3.channel_ratio", "fig3.channel_spread"} {
		if m[id] != "none" {
			t.Errorf("%s at 5000 hammers reads %q, want none", id, m[id])
		}
	}
	slice, err := Run("sweep", Options{Cfg: config.SmallChip(), Rows: 2, Shard: 0, ShardCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	m = measureSweep(slice)
	for _, id := range []string{"fig3.channel_ratio", "fig3.channel_spread"} {
		if m[id] != "none" {
			t.Errorf("%s on a one-channel slice reads %q, want none", id, m[id])
		}
	}
}

// paper is the report text of the paper value of the claim with the
// given ID, for test messages. An unknown ID panics.
func paper(id string) string {
	for _, c := range claims {
		if c.ID == id {
			return c.PaperText()
		}
	}
	panic(fmt.Sprintf("experiments: no paper claim %q", id))
}

// TestClaimsTable pins the paper-value table: unique IDs, every claim
// printable, and min HCfirst marked as set by calibration.
func TestClaimsTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range claims {
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
