package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/experiments"
)

// The traced replay must produce the registry's own artifact byte for
// byte, or the per-layer numbers describe a different computation.
func TestReplayMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    experiments.Options
	}{
		{"sweep", experiments.Options{Cfg: config.SmallChip(), Rows: 1, Parallel: 2}},
		{"multichip", experiments.Options{Cfg: config.SmallChip(), Rows: 1, Seeds: 3, Parallel: 2}},
	} {
		want, err := experiments.Run(tc.name, tc.o)
		if err != nil {
			t.Fatal(err)
		}
		e, err := experiments.Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Plan(tc.o)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(time.Now(), "test")
		layer := map[string]float64{}
		got, err := replayPlan(tr, p, tc.o, layer)
		if err != nil {
			t.Fatal(err)
		}
		gd, _ := artifactDigest(got)
		wd, _ := artifactDigest(want)
		if gd != wd {
			t.Errorf("%s: replay digest %s, experiments.Run %s", tc.name, gd, wd)
		}
		count := map[string]int{}
		for _, s := range tr.done() {
			count[s.Name]++
		}
		if n := len(p.Jobs); count["engine.job"] != n || count["engine.fold"] != n || count["engine.reduce"] != 1 || count["experiments.finish"] != 1 {
			t.Errorf("%s: spans %v for %d jobs", tc.name, count, n)
		}
		if p.Harness && layer["hbm.acts"] == 0 {
			t.Errorf("%s: harness plan recorded no device activations", tc.name)
		}
	}
}

func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h hist
	xs := make([]float64, 100000)
	for i := range xs {
		v := math.Exp(rng.NormFloat64()*2 + 10) // ns, spanning several decades
		xs[i] = math.Floor(v)
		h.record(int64(xs[i]))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
		if got := h.quantile(q); math.Abs(got-exact) > exact/32 {
			t.Errorf("q%.3f: histogram %.0f, exact %.0f (error %.2f%%)", q, got, exact, 100*math.Abs(got-exact)/exact)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want float64
	}{{0, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// Hand-computed: for three against three untied observations the null
// counts of U = 0..9 are 1 1 2 3 3 3 3 2 1 1 (of 20). In the tied case
// the mid-ranks give U = 2.5, and the normal approximation uses
// σ² = (4·5/12)·(10 − 36/72) with a continuity correction.
func TestMannWhitney(t *testing.T) {
	for _, tc := range []struct {
		a, b []float64
		u, p float64
	}{
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 0, 0.1},
		{[]float64{4, 5, 6}, []float64{1, 2, 3}, 9, 0.1},
		{[]float64{1, 3, 5}, []float64{2, 4, 6}, 3, 0.7},
		{[]float64{1, 2, 2, 3}, []float64{2, 3, 4, 4, 5}, 2.5, 0.0785458509511907},
	} {
		u, p := mannWhitney(tc.a, tc.b)
		if u != tc.u || math.Abs(p-tc.p) > 1e-9 {
			t.Errorf("mannWhitney(%v, %v) = U %v p %v, want U %v p %v", tc.a, tc.b, u, p, tc.u, tc.p)
		}
	}
}

// Children on parallel workers overlap each other and may overhang their
// parent; self time counts the covered part of the parent once.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "engine.reduce", ID: 1, Start: 0, End: 100},
		{Name: "engine.job", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "engine.job", ID: 3, Parent: 1, Start: 30, End: 70},
		{Name: "engine.fold", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "hbm.probe", ID: 5, Parent: 2, Start: 20, End: 30},
		{Name: "bench.digest", ID: 6, Start: 120, End: 125},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 30, 2: 30, 3: 40, 4: 30, 5: 10, 6: 5} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	if got := topLevelCover(spans); got != 105 {
		t.Errorf("top-level cover %d, want 105", got)
	}
	// Span IDs restart in every run, and one ID can name a job in one run
	// and a fold in another; the breakdown must not join runs by ID.
	other := append([]span(nil), spans...)
	other[2].ID, other[3].ID = 4, 3
	for _, row := range breakdown([][]span{spans, other}) {
		if row.Span == "engine.fold" && (row.Count != 1 || row.SelfMs != 30e-6) {
			t.Errorf("breakdown over two runs: %+v, want 1 fold with 30 ns self time", row)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	// The fewest timed runs an invocation takes must let a change whose
	// every run beats every base run come out improved.
	fewest := func(from float64) []float64 {
		xs := make([]float64, minTimedRounds)
		for i := range xs {
			xs[i] = from + float64(i)/100
		}
		return xs
	}
	for _, tc := range []struct {
		name         string
		better       string
		base, change []float64
		want         string
	}{
		{"spread beyond bound", "lower", []float64{1.0, 1.3, 0.8, 1.2, 0.9}, []float64{1.1, 0.8, 1.3, 1.0, 0.9}, "unresolved"},
		{"worse beyond bound", "lower", steady, []float64{1.20, 1.21, 1.19, 1.22, 1.20}, "regressed"},
		{"higher is better", "higher", steady, []float64{1.20, 1.21, 1.19, 1.22, 1.20}, "improved"},
		{"every run better", "lower", steady, []float64{0.85, 0.86, 0.84, 0.87, 0.85}, "improved"},
		{"fewest timed runs, every run better", "lower", fewest(1), fewest(0.8), "improved"},
		{"significant but within bound", "lower", steady, []float64{0.95, 0.96, 0.94, 0.95, 0.96}, "unchanged"},
		{"noisy but every run worse", "lower", []float64{1.0, 1.3, 0.8, 1.2, 0.9}, []float64{1.6, 1.7, 1.5, 1.8, 1.6}, "regressed"},
		{"within noise", "lower", steady, []float64{1.01, 0.99, 1.00, 1.02, 1.00}, "unchanged"},
	} {
		if got, _, _ := verdict(tc.better, 0.1, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Every seed selects an input set, and every input set has a golden
// digest, so every run's output is checked against a known answer.
func TestGoldenCoversEveryInputSet(t *testing.T) {
	g, err := goldenDigests()
	if err != nil {
		t.Fatal(err)
	}
	if g["fleet-cycle"][goldenKey("fleet-cycle", 0)] == "" {
		t.Error("no golden digest for fleet-cycle")
	}
	for _, w := range []string{"sweep-paper", "chipscan"} {
		if len(g[w]) != inputSets {
			t.Errorf("%s: %d golden digests, want %d", w, len(g[w]), inputSets)
		}
		for s := uint64(0); s < inputSets; s++ {
			if g[w][goldenKey(w, s)] == "" {
				t.Errorf("%s: no golden digest for input set %d", w, s)
			}
		}
	}
}

func TestArrivalOrder(t *testing.T) {
	order := arrivalOrder(7)
	if len(order) != serveShards-ingestBase {
		t.Fatalf("%d arrivals, want %d", len(order), serveShards-ingestBase)
	}
	inOrder := true
	for k, i := range order {
		lo := ingestBase + k/ingestWindow*ingestWindow
		if i < lo || i >= lo+ingestWindow {
			t.Fatalf("arrival %d is shard %d, outside its window [%d,%d)", k, i, lo, lo+ingestWindow)
		}
		inOrder = inOrder && i == ingestBase+k
	}
	if inOrder {
		t.Error("arrival order is fully in order; the pending path goes unexercised")
	}
}

// BENCHMARK.json repeats the catalog for automated runs; the two must
// agree, and the file must stay within its format's limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 || b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("file size %d, run_seconds %d, paths %v", len(data), b.RunSeconds, b.Paths)
	}
	if !equalJSON(b.Workloads, workloads) || !equalJSON(b.EndToEnd, endToEnd) || !equalJSON(b.PerLayer, perLayer) {
		t.Error("BENCHMARK.json workloads or metrics differ from the catalog in catalog.go")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or duplicate name, or why over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound > 0.25 {
			t.Errorf("metric %q: bad or duplicate name, unit %q, better %q or bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		seen[m.Name] = true
	}
	setup := endToEnd[0]
	if setup != (metricDef{"setup_s", "s", "lower", setup.Bound}) {
		t.Errorf("first end-to-end metric %+v, want setup_s in s, lower is better", setup)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > setup.Bound {
			t.Errorf("end-to-end metric %s: bound %v must be positive and at most setup_s's", m.Name, m.Bound)
		}
	}
}

func equalJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(x) == string(y)
}
