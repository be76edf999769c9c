package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/results"
)

// registryNames are the studies the registry must cover: every driver in
// the repo.
var registryNames = []string{
	"crosschannel", "fig6", "multichip", "rowpress", "sweep",
	"tempsweep", "trrbypass", "trrstudy", "utrrprobe",
}

func TestRegistryCoversEveryDriver(t *testing.T) {
	all := All()
	var got []string
	for _, e := range all {
		got = append(got, e.Name)
		if e.Title == "" || e.Plan == nil {
			t.Errorf("experiment %q missing title or plan", e.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(registryNames, ",") {
		t.Fatalf("registry = %v, want %v", got, registryNames)
	}
	for _, name := range registryNames {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "multichip") {
		t.Errorf("unknown lookup should list valid names, got %v", err)
	}
}

// TestEveryExperimentPlansDeterministically pins the plan contract for
// every registry entry: planning is pure (same options, same job list),
// keys are unique, and the declared axis is consistent.
func TestEveryExperimentPlansDeterministically(t *testing.T) {
	o := Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 2000, Seeds: 3, Iterations: 4}
	for _, e := range All() {
		p1, err := e.Plan(o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		p2, err := e.Plan(o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(p1.Jobs) == 0 || len(p1.Jobs) != len(p2.Jobs) {
			t.Fatalf("%s: plan sizes %d vs %d", e.Name, len(p1.Jobs), len(p2.Jobs))
		}
		if p1.Axis == "" || p1.Cfg == nil {
			t.Fatalf("%s: plan missing axis or config", e.Name)
		}
		seen := map[string]bool{}
		for i, j := range p1.Jobs {
			if j.Key == "" || seen[j.Key] {
				t.Fatalf("%s: job %d key %q empty or duplicate", e.Name, i, j.Key)
			}
			seen[j.Key] = true
			if j.Key != p2.Jobs[i].Key {
				t.Fatalf("%s: plan not deterministic: job %d %q vs %q", e.Name, i, j.Key, p2.Jobs[i].Key)
			}
		}
	}
}

// marshal renders an artifact for byte comparison.
func marshal(t *testing.T, a *results.Artifact) []byte {
	t.Helper()
	buf, err := a.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestPlannerEquivalenceMultiChipScan is the planner-determinism pin the
// refactor promises: a 32-seed fleet scan produces byte-identical
// artifacts under every planner at -parallel 1 and -parallel 8.
func TestPlannerEquivalenceMultiChipScan(t *testing.T) {
	if testing.Short() {
		t.Skip("32-seed scan x 7 planner/parallel combinations")
	}
	o := Options{Cfg: config.SmallChip(), Rows: 1, Seeds: 32, Parallel: 1, Planner: engine.PlanQueue}
	base, err := Run("multichip", o)
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, base)
	for _, planner := range []engine.Planner{engine.PlanContiguous, engine.PlanWeighted, engine.PlanStealing} {
		for _, parallel := range []int{1, 8} {
			o := o
			o.Planner, o.Parallel = planner, parallel
			a, err := Run("multichip", o)
			if err != nil {
				t.Fatalf("%v/parallel=%d: %v", planner, parallel, err)
			}
			if got := marshal(t, a); !bytes.Equal(got, want) {
				t.Fatalf("planner %v at parallel %d changed the artifact", planner, parallel)
			}
		}
	}
}

// TestLiftedExperimentsShardMergeMatchesSingleProcess is the refactor's
// acceptance pin: for each newly lifted driver shape (spatial axis with
// shared groups, point axis with per-job groups, single-job plans), a
// 2-way shard split plus merge reproduces the single-process artifact
// byte for byte.
func TestLiftedExperimentsShardMergeMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full studies")
	}
	cases := []struct {
		name   string
		shards int
		opts   Options
	}{
		{"sweep", 2, Options{Cfg: config.SmallChip(), Rows: 1, Hammers: 2000}},
		{"fig6", 2, Options{Cfg: config.SmallChip(), Rows: 1, Hammers: 2000}},
		{"tempsweep", 2, Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 2000}},
		{"rowpress", 2, Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 4000}},
		{"crosschannel", 2, Options{Cfg: config.SmallChip(), Rows: 2}},
		{"trrbypass", 2, Options{Cfg: config.SmallChip(), Hammers: 2000}},
		{"utrrprobe", 2, Options{Cfg: config.SmallChip()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			single, err := Run(tc.name, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var merged *results.Artifact
			for s := 0; s < tc.shards; s++ {
				o := tc.opts
				o.Shard, o.ShardCount = s, tc.shards
				shard, err := Run(tc.name, o)
				if err != nil {
					t.Fatal(err)
				}
				if s == 0 {
					merged = shard
					continue
				}
				if err := results.Merge(merged, shard); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(marshal(t, single), marshal(t, merged)) {
				t.Fatalf("%s: merged shards differ from single process:\n%s\nvs\n%s",
					tc.name, marshal(t, single), marshal(t, merged))
			}
		})
	}
}

// TestRunShardValidation pins the run-level shard errors.
func TestRunShardValidation(t *testing.T) {
	o := Options{Cfg: config.SmallChip(), Rows: 1}
	if _, err := Run("nope", o); err == nil {
		t.Error("unknown experiment accepted")
	}
	bad := o
	bad.Shard, bad.ShardCount = 2, 2
	if _, err := Run("crosschannel", bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range shard: %v", err)
	}
	// An empty shard slice is an explicit error, not an empty artifact
	// (crosschannel plans 2 jobs; 3 shards leave shard 0 empty).
	empty := o
	empty.Shard, empty.ShardCount = 0, 3
	if _, err := Run("crosschannel", empty); err == nil || !strings.Contains(err.Error(), "covers no jobs") {
		t.Errorf("empty shard: %v", err)
	}
}

// TestRenderedArtifactsMentionTheirAxis smoke-checks the generic render
// path for a point-axis artifact.
func TestRenderedArtifactsMentionTheirAxis(t *testing.T) {
	a, err := Run("crosschannel", Options{Cfg: config.SmallChip(), Rows: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := Render(a)
	for _, want := range []string{"crosschannel", "baseline", "coupled"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if a.Meta.JobAxis != "point" || a.Meta.JobCount != 2 {
		t.Errorf("crosschannel provenance: %+v", a.Meta)
	}
	if fmt.Sprintf("%v", a.Meta.JobKeys) != "[baseline coupled]" {
		t.Errorf("job keys %v", a.Meta.JobKeys)
	}
}

// TestNoExperimentIgnoresItsKnobs pins that every knob an experiment
// declares reading (Experiment.Reads) shapes its plan: changing Rows,
// Hammers, Iterations or Bank changes the plan's Params, so shards run
// with different budgets refuse to merge, and changing multichip's Seeds,
// its plan axis, changes the job count, whose job slice the artifact's
// provenance carries. Workers bounds device parallelism inside a job and
// never changes an artifact, so no plan shows it.
func TestNoExperimentIgnoresItsKnobs(t *testing.T) {
	base := Options{Cfg: config.SmallChip(), Rows: 2, Hammers: 20000, Seeds: 2, Iterations: 4}
	vary := map[string]func(o *Options){
		"Rows":       func(o *Options) { o.Rows = 3 },
		"Hammers":    func(o *Options) { o.Hammers = 30000 },
		"Seeds":      func(o *Options) { o.Seeds = 3 },
		"Iterations": func(o *Options) { o.Iterations = 5 },
		"Bank":       func(o *Options) { o.Bank = addr.BankAddr{Channel: 1} },
	}
	for _, e := range All() {
		o := e.Narrow(base)
		want, err := Describe(e.Name, o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, knob := range e.Reads {
			if knob == "Workers" {
				continue
			}
			changed := o
			vary[knob](&changed)
			got, err := Describe(e.Name, changed)
			if err != nil {
				t.Fatalf("%s with %s changed: %v", e.Name, knob, err)
			}
			if knob == "Seeds" && got.Jobs == want.Jobs {
				t.Errorf("%s: changing Seeds leaves %d jobs", e.Name, got.Jobs)
			}
			if knob != "Seeds" && reflect.DeepEqual(got.Params, want.Params) {
				t.Errorf("%s: changing %s leaves Params %v unchanged", e.Name, knob, got.Params)
			}
		}
	}
}

// TestPlansRefuseUnreadKnobs pins the knob check over every registered
// experiment and every knob it does not declare reading: a non-zero one
// is refused at plan time with one line naming the experiment, the knob
// and value, and the experiments that read it.
func TestPlansRefuseUnreadKnobs(t *testing.T) {
	for _, e := range All() {
		for _, k := range knobs {
			if slices.Contains(e.Reads, k) {
				continue
			}
			o := Options{Cfg: config.SmallChip()}
			if k == "Bank" {
				o.Bank = addr.BankAddr{Channel: 1, Bank: 3}
			} else {
				knob(&o, k).SetInt(7)
			}
			var readers []string
			for _, r := range All() {
				if slices.Contains(r.Reads, k) {
					readers = append(readers, r.Name)
				}
			}
			want := fmt.Sprintf("planning %s: %s %v: %s does not read it (read by %s)", e.Name, k, knob(&o, k), e.Name, strings.Join(readers, ", "))
			_, err := Describe(e.Name, o)
			if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
				t.Errorf("%s with %s: err = %v, want one line containing %q", e.Name, k, err, want)
			}
		}
	}
}

// TestExtensionPlansRejectRowsOffTheBank pins the plan-time check on the
// extension studies' victim placement: Rows that walk off the bank are
// refused with the largest Rows that fits, and that Rows plans.
func TestExtensionPlansRejectRowsOffTheBank(t *testing.T) {
	cases := []struct {
		name      string
		rows, fit int
	}{
		{"rowpress", 400, 165},
		{"tempsweep", 400, 165},
		{"crosschannel", 200, 100},
	}
	for _, tc := range cases {
		o := Options{Cfg: config.SmallChip(), Rows: tc.rows}
		_, err := Describe(tc.name, o)
		if want := fmt.Sprintf("at most %d fit", tc.fit); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s at rows %d: err = %v, want %q", tc.name, tc.rows, err, want)
		}
		for _, rows := range []int{tc.fit + 1, tc.fit} {
			o.Rows = rows
			_, err := Describe(tc.name, o)
			if fits := rows <= tc.fit; (err == nil) != fits {
				t.Errorf("%s at rows %d: err = %v, want fits = %v", tc.name, rows, err, fits)
			}
		}
	}
}

// TestRegionPlansRejectRowsPastTheRegion pins the plan-time bound on
// the studies that sample the paper's row regions: a sweep or multichip
// Rows larger than the regions, or a fig6 Rows whose three regions would
// overlap, is refused with the largest Rows that fits, and that Rows
// plans. Before the bound, -rows 5000 and -rows 100000 measured the same
// rows under different Params.
func TestRegionPlansRejectRowsPastTheRegion(t *testing.T) {
	cases := []struct {
		name      string
		cfg       *config.Config
		rows, fit int
	}{
		{"sweep", config.SmallChip(), 5000, 192},
		{"sweep", config.PaperChip(), 100000, 3072},
		{"multichip", config.SmallChip(), 100000, 192},
		{"fig6", config.SmallChip(), 400, 341},
	}
	for _, tc := range cases {
		for _, rows := range []int{tc.rows, tc.fit + 1, tc.fit} {
			_, err := Describe(tc.name, Options{Cfg: tc.cfg, Rows: rows})
			want := fmt.Sprintf("at most %d fit", tc.fit)
			switch {
			case rows > tc.fit && (err == nil || !strings.Contains(err.Error(), want)):
				t.Errorf("%s at rows %d: err = %v, want %q", tc.name, rows, err, want)
			case rows <= tc.fit && err != nil:
				t.Errorf("%s at rows %d: %v", tc.name, rows, err)
			}
		}
	}
}

// TestPlansRefuseUnreadBank pins the Bank check over every registered
// experiment: one that declares reading Bank plans at a non-zero bank, and
// every other one refuses it through Describe, Run and RunSlice alike,
// with a one-line error naming the knob and the experiment.
// (TestNoExperimentIgnoresItsKnobs pins that a declared reader's Params
// move with Bank.)
func TestPlansRefuseUnreadBank(t *testing.T) {
	for _, e := range All() {
		o := e.Narrow(Options{Cfg: config.SmallChip(), Rows: 1})
		o.Bank = addr.BankAddr{Channel: 1, Bank: 3}
		if slices.Contains(e.Reads, "Bank") {
			if _, err := Describe(e.Name, o); err != nil {
				t.Errorf("%s declares reading Bank but refuses Bank %v: %v", e.Name, o.Bank, err)
			}
			continue
		}
		_, derr := Describe(e.Name, o)
		_, rerr := Run(e.Name, o)
		_, serr := RunSlice(e.Name, o, 0, 1)
		want := fmt.Sprintf("planning %s: Bank ch1.pc0.ba3: %s does not read it", e.Name, e.Name)
		for entry, err := range map[string]error{"Describe": derr, "Run": rerr, "RunSlice": serr} {
			if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
				t.Errorf("%s via %s: err = %v, want one line containing %q", e.Name, entry, err, want)
			}
		}
		o.Bank = addr.BankAddr{}
		if _, err := Describe(e.Name, o); err != nil {
			t.Errorf("%s at the zero bank: %v", e.Name, err)
		}
	}
}

// TestPlansRejectNegativeKnobs pins the one options check: every
// registered experiment refuses each negative numeric knob at plan time,
// with an error naming the field and the value, whether or not the
// experiment reads that knob.
func TestPlansRejectNegativeKnobs(t *testing.T) {
	for i, field := range []string{"Rows", "Hammers", "Seeds", "Iterations", "Parallel", "Workers"} {
		t.Run(field, func(t *testing.T) {
			o := Options{Cfg: config.SmallChip()}
			v := -1 - i
			reflect.ValueOf(&o).Elem().FieldByName(field).SetInt(int64(v))
			want := fmt.Sprintf("%s %d: must be >= 0", field, v)
			for _, e := range All() {
				if _, err := e.Plan(o); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: err = %v, want %q", e.Name, err, want)
				}
			}
		})
	}
}

// TestMultiChipRefusesOversizedSeeds pins the Seeds cap: a count above
// it is refused at plan time, before the plan allocates a seed per chip,
// with an error naming the knob, the value and the cap. 1<<40 would ask
// for 8 TB of seeds; a 32-bit build plans its largest int instead.
func TestMultiChipRefusesOversizedSeeds(t *testing.T) {
	huge := int(min(int64(1)<<40, math.MaxInt))
	for _, n := range []int{maxSeeds + 1, huge} {
		_, _, err := plan("multichip", Options{Cfg: config.SmallChip(), Seeds: n})
		want := fmt.Sprintf("Seeds %d: too large, at most %d", n, maxSeeds)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Seeds %d: err = %v, want %q", n, err, want)
		}
	}
}
