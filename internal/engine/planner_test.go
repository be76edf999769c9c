package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestPlannerCoversEveryIndexExactlyOnce drives every planner through
// Reduce over a range of job/worker shapes and checks the fundamental
// planner contract: each index runs exactly once.
func TestPlannerCoversEveryIndexExactlyOnce(t *testing.T) {
	shapes := []struct{ n, workers int }{
		{1, 1}, {7, 1}, {7, 3}, {8, 8}, {100, 4}, {100, 16}, {5, 8},
	}
	for _, p := range Planners() {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%v/n%d/w%d", p, sh.n, sh.workers), func(t *testing.T) {
				var mu sync.Mutex
				counts := make([]int, sh.n)
				weights := make([]float64, sh.n)
				for i := range weights {
					weights[i] = float64(1 + i%5)
				}
				err := Reduce(Options{Workers: sh.workers, Planner: p, Weights: weights}, sh.n,
					func(_ context.Context, i int) (int, error) {
						mu.Lock()
						counts[i]++
						mu.Unlock()
						return i, nil
					},
					func(int, int) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("index %d ran %d times", i, c)
					}
				}
			})
		}
	}
}

// TestPlannerOutputEquivalence checks that Reduce folds identical
// results under every planner at several worker counts, with
// deliberately skewed job durations to shake out ordering bugs.
func TestPlannerOutputEquivalence(t *testing.T) {
	const n = 64
	job := func(_ context.Context, i int) (int, error) {
		// Busy-skew: early jobs are much slower, inverting completion
		// order relative to index order.
		x := 0
		for k := 0; k < (n-i)*500; k++ {
			x += k
		}
		return i*i + x*0, nil
	}
	var want []int
	for _, p := range Planners() {
		for _, workers := range []int{1, 3, 8} {
			var folded []int
			err := Reduce(Options{Workers: workers, Planner: p}, n, job,
				func(i, v int) error {
					if i != len(folded) {
						return fmt.Errorf("fold out of order: got index %d, want %d", i, len(folded))
					}
					folded = append(folded, v)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = folded
			}
			if !reflect.DeepEqual(folded, want) {
				t.Fatalf("planner %v workers %d: Reduce diverged", p, workers)
			}
		}
	}
}

// TestWeightedBoundsPartition property-checks the weighted split: blocks
// are contiguous, disjoint and cover [0, n) for arbitrary weights.
func TestWeightedBoundsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		workers := 1 + rng.Intn(10)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(rng.Intn(4)) // zeros exercise the floor
		}
		bounds := weightedBounds(weights, workers)
		if len(bounds) != workers {
			t.Fatalf("%d blocks for %d workers", len(bounds), workers)
		}
		prev := 0
		for w, b := range bounds {
			if b[0] != prev || b[1] < b[0] {
				t.Fatalf("trial %d: block %d = %v not contiguous from %d (weights %v)", trial, w, b, prev, weights)
			}
			prev = b[1]
		}
		if prev != n {
			t.Fatalf("trial %d: blocks cover [0,%d), want [0,%d)", trial, prev, n)
		}
	}
}

// TestStealingAssignerRebalances pins that an exhausted worker steals
// from the largest remaining block and that every index is still handed
// out exactly once.
func TestStealingAssignerRebalances(t *testing.T) {
	a := newBlockAssigner(contiguousBounds(16, 2), true)
	// Worker 1 drains its block [8,16).
	for i := 8; i < 16; i++ {
		got, ok := a.next(1)
		if !ok || got != i {
			t.Fatalf("worker 1: got %d,%v want %d", got, ok, i)
		}
	}
	// Its next pop steals the upper half of worker 0's untouched [0,8).
	got, ok := a.next(1)
	if !ok || got != 4 {
		t.Fatalf("steal: got %d,%v want 4", got, ok)
	}
	seen := map[int]bool{}
	for i := 8; i < 16; i++ {
		seen[i] = true
	}
	seen[4] = true
	for {
		i, ok := a.next(0)
		if !ok {
			break
		}
		if seen[i] {
			t.Fatalf("index %d handed out twice", i)
		}
		seen[i] = true
	}
	for {
		i, ok := a.next(1)
		if !ok {
			break
		}
		if seen[i] {
			t.Fatalf("index %d handed out twice", i)
		}
		seen[i] = true
	}
	if len(seen) != 16 {
		t.Fatalf("covered %d of 16 indexes", len(seen))
	}
}

// TestParsePlanner round-trips every planner spelling and rejects junk.
func TestParsePlanner(t *testing.T) {
	for _, p := range Planners() {
		got, err := ParsePlanner(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParsePlanner("frontier"); err == nil {
		t.Fatal("want error for unknown planner")
	}
}

// FuzzParsePlanner pins the -planner trust boundary: ParsePlanner never
// panics, and an accepted spelling is the canonical one — it is exactly
// what the parsed planner prints as, and that parses back to the same
// planner.
func FuzzParsePlanner(f *testing.F) {
	for _, p := range Planners() {
		f.Add(p.String())
	}
	for _, s := range []string{"", "Queue", "queue ", "planner(0)", "frontier"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlanner(s)
		if err != nil {
			return
		}
		if p.String() != s {
			t.Fatalf("%q accepted as %v, which prints as %q", s, p, p.String())
		}
		if again, err := ParsePlanner(p.String()); err != nil || again != p {
			t.Fatalf("%q: round trip gave %v, %v", s, again, err)
		}
	})
}

// TestWeightsLengthValidated pins the weights/jobs length check.
func TestWeightsLengthValidated(t *testing.T) {
	err := Reduce(Options{Planner: PlanWeighted, Weights: []float64{1, 2}}, 3,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(int, int) error { return nil })
	if err == nil {
		t.Fatal("want error for mismatched weights length")
	}
}
