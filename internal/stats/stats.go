// Package stats provides the statistics layer under the paper's figures
// and the repo's distributable artifacts.
//
// The batch side is the figure vocabulary: box-and-whiskers five-number
// summaries (Figs. 3-4, Summarize) and means and coefficients of
// variation (Fig. 6, Summary.CV).
//
// The streaming side is what makes sharded runs merge exactly. Stream is
// a bounded-memory accumulator (exact small-sample buffer up to a
// cutoff, then histogram bins) whose sums are ExactSum values — Shewchuk
// compensated summation keeping the exact running sum as non-overlapping
// partials — so Stream.Merge is associative and commutative bit for bit,
// not just approximately. That exactness is the base of the repo-wide
// byte-identity guarantee: shard artifacts merged in any grouping render
// the same bytes as a single-process run (see internal/results and
// DESIGN.md §6-§7, §10). Streams serialize through one versioned JSON
// form (codec.go), validated on decode.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a box-and-whiskers description of a sample, following the
// paper's footnote 2: the box spans the first and third quartiles (medians
// of the lower and upper halves), whiskers span min and max, and the circle
// marker is the mean.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
	StdDev float64
}

// CV returns the coefficient of variation: standard deviation normalized
// to the mean (Fig. 6's x-axis). It returns NaN for a zero mean.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return math.NaN()
	}
	return s.StdDev / s.Mean
}

// IQR returns the interquartile range.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// String renders the five-number summary compactly for logs and reports.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// Summarize computes the five-number summary plus mean and standard
// deviation of xs. It copies and sorts internally; xs is not modified.
// It panics on an empty sample, which always indicates a harness bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return summarizeSorted(sorted)
}

// summarizeSorted is Summarize over an already-sorted sample. Moments are
// accumulated in sorted order (exactly what Summarize always did, since it
// sums after sorting), so callers holding a sorted view — Stream.Summary
// over its memoized sorted sample — get bit-identical results without the
// copy.
func summarizeSorted(sorted []float64) Summary {
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against rounding for near-constant samples
	}

	// Quartiles as medians of the lower and upper halves (Tukey hinges),
	// matching the paper's definition. A single-element sample is its own
	// quartile on both sides.
	half := len(sorted) / 2
	lower := sorted[:half]
	var upper []float64
	if len(sorted)%2 == 0 {
		upper = sorted[half:]
	} else {
		upper = sorted[half+1:]
	}
	q1, q3 := median(lower), median(upper)
	if len(sorted) == 1 {
		q1, q3 = sorted[0], sorted[0]
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     q1,
		Median: median(sorted),
		Q3:     q3,
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		StdDev: math.Sqrt(variance),
	}
}

// median of a sorted slice; returns the single element for n=1 and the
// midpoint average for even n. Empty input returns NaN (only reachable for
// a 1-element Summarize, whose halves are empty).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	// Average the two central elements without overflowing for values
	// near the float64 limits.
	return sorted[n/2-1]/2 + sorted[n/2]/2
}

// Median computes the median of xs without requiring pre-sorting.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return median(sorted)
}

// Mean returns the arithmetic mean of xs, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MinMax returns the extrema of xs. It panics on an empty sample.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty sample")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
