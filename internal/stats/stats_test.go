package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownSample(t *testing.T) {
	// Odd-length sample with known Tukey hinges.
	xs := []float64{7, 1, 3, 5, 9}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 9 {
		t.Fatalf("extrema wrong: %+v", s)
	}
	if s.Median != 5 {
		t.Errorf("median = %v, want 5", s.Median)
	}
	if s.Q1 != 2 { // median of {1,3}
		t.Errorf("q1 = %v, want 2", s.Q1)
	}
	if s.Q3 != 8 { // median of {7,9}
		t.Errorf("q3 = %v, want 8", s.Q3)
	}
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if s.IQR() != 6 {
		t.Errorf("IQR = %v, want 6", s.IQR())
	}
}

func TestSummarizeEvenSample(t *testing.T) {
	xs := []float64{4, 2, 6, 8}
	s := Summarize(xs)
	if s.Median != 5 {
		t.Errorf("median = %v, want 5", s.Median)
	}
	if s.Q1 != 3 || s.Q3 != 7 {
		t.Errorf("quartiles = (%v, %v), want (3, 7)", s.Q1, s.Q3)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Summarize(nil) should panic")
		}
	}()
	Summarize(nil)
}

func TestSummarizeSingleElement(t *testing.T) {
	s := Summarize([]float64{42})
	if s.Min != 42 || s.Max != 42 || s.Median != 42 || s.Mean != 42 {
		t.Fatalf("single-element summary wrong: %+v", s)
	}
	if s.StdDev != 0 {
		t.Errorf("stddev = %v, want 0", s.StdDev)
	}
}

func TestSummaryOrderingProperty(t *testing.T) {
	// min <= q1 <= median <= q3 <= max for any non-empty sample.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw)+1)
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		xs = append(xs, 1) // guarantee non-empty
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCV(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	wantCV := s.StdDev / 2.0
	if math.Abs(s.CV()-wantCV) > 1e-12 {
		t.Errorf("CV = %v, want %v", s.CV(), wantCV)
	}
	zero := Summary{Mean: 0, StdDev: 1}
	if !math.IsNaN(zero.CV()) {
		t.Error("CV of zero-mean summary should be NaN")
	}
}

func TestMedianAgainstSort(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw)+1)
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		xs = append(xs, 0)
		m := Median(xs)
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		// At least half the sample on each side.
		below, above := 0, 0
		for _, x := range sorted {
			if x <= m {
				below++
			}
			if x >= m {
				above++
			}
		}
		return below*2 >= len(xs) && above*2 >= len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndMinMax(t *testing.T) {
	xs := []float64{2, -1, 5}
	if got := Mean(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", got)
	}
	lo, hi := MinMax(xs)
	if lo != -1 || hi != 5 {
		t.Errorf("MinMax = (%v, %v), want (-1, 5)", lo, hi)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestSummaryStringIsStable(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	want := "n=4 min=1 q1=1.5 med=2.5 q3=3.5 max=4 mean=2.5"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSummarizeSingleElementQuartiles(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Q1 != 7 || s.Q3 != 7 {
		t.Fatalf("single-element quartiles = (%v, %v), want (7, 7)", s.Q1, s.Q3)
	}
	if s.IQR() != 0 {
		t.Fatalf("IQR = %v, want 0", s.IQR())
	}
}
