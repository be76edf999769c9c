package addr_test

import (
	"fmt"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// TestBoundsAgreesWithSameSubarray pins Bounds, the one-lookup form the
// device's disturb and coupling paths use, to SameSubarray and IsEdge:
// for every row of both presets and every distance up to the blast
// radius, a neighbour lies inside [start, end) exactly when it shares the
// row's subarray, and the row is an edge exactly when it sits at either
// end of that range.
func TestBoundsAgreesWithSameSubarray(t *testing.T) {
	for name, cfg := range map[string]*config.Config{"paper": config.PaperChip(), "small": config.SmallChip()} {
		l := cfg.Layout()
		radius := cfg.Fault.BlastRadius()
		for row := 0; row < l.Rows(); row++ {
			start, end := l.Bounds(row)
			if row < start || row >= end {
				t.Fatalf("%s: row %d outside its own bounds [%d, %d)", name, row, start, end)
			}
			if edge := row == start || row == end-1; edge != l.IsEdge(row) {
				t.Fatalf("%s: row %d in [%d, %d): edge %v, IsEdge %v", name, row, start, end, edge, l.IsEdge(row))
			}
			for dist := 1; dist <= radius; dist++ {
				for _, nb := range []int{row - dist, row + dist} {
					if nb < 0 || nb >= l.Rows() {
						continue
					}
					if in := nb >= start && nb < end; in != l.SameSubarray(row, nb) {
						t.Fatalf("%s: row %d, neighbour %d: inside [%d, %d) %v, SameSubarray %v",
							name, row, nb, start, end, in, l.SameSubarray(row, nb))
					}
				}
			}
		}
	}
}

// searchLocate is the layout's original binary search over subarray
// starts, kept as the oracle the per-row table must agree with.
func searchLocate(l *addr.SubarrayLayout, row int) (sa, offset int) {
	lo, hi := 0, l.Count()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if l.Start(mid) <= row {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, row - l.Start(lo)
}

// checkAgainstSearch compares every table lookup of l with the binary
// search oracle, row by row, and checks the out-of-range panics.
func checkAgainstSearch(t *testing.T, name string, l *addr.SubarrayLayout) {
	t.Helper()
	for row := 0; row < l.Rows(); row++ {
		wantSA, wantOff := searchLocate(l, row)
		if sa, off := l.Locate(row); sa != wantSA || off != wantOff {
			t.Fatalf("%s: Locate(%d) = (%d, %d), search says (%d, %d)", name, row, sa, off, wantSA, wantOff)
		}
		start, end := l.Bounds(row)
		if start != l.Start(wantSA) || end != l.End(wantSA) {
			t.Fatalf("%s: Bounds(%d) = [%d, %d), search says [%d, %d)", name, row, start, end, l.Start(wantSA), l.End(wantSA))
		}
		if edge := wantOff == 0 || wantOff == l.Size(wantSA)-1; l.IsEdge(row) != edge {
			t.Fatalf("%s: IsEdge(%d) = %v, search says %v", name, row, l.IsEdge(row), edge)
		}
		for _, other := range []int{row - 1, row + 1, 0, l.Rows() - 1} {
			if other < 0 || other >= l.Rows() {
				continue
			}
			otherSA, _ := searchLocate(l, other)
			if got := l.SameSubarray(row, other); got != (otherSA == wantSA) {
				t.Fatalf("%s: SameSubarray(%d, %d) = %v, search says %v", name, row, other, got, otherSA == wantSA)
			}
		}
	}
	for _, row := range []int{-1, l.Rows()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Locate(%d) did not panic outside a layout of %d rows", name, row, l.Rows())
				}
			}()
			l.Locate(row)
		}()
	}
}

// TestLayoutTableMatchesSearch pins the per-row subarray table to the
// binary search it replaced: on both presets and on random layouts,
// 1-row subarrays included, every lookup agrees for every row, and
// Locate still panics just outside the layout.
func TestLayoutTableMatchesSearch(t *testing.T) {
	for name, cfg := range map[string]*config.Config{"paper": config.PaperChip(), "small": config.SmallChip()} {
		checkAgainstSearch(t, name, cfg.Layout())
	}
	s := rng.NewStream(0x5AB_A77A)
	for round := 0; round < 200; round++ {
		sizes := make([]int, 1+s.Intn(12))
		for i := range sizes {
			switch s.Intn(3) {
			case 0:
				sizes[i] = 1
			case 1:
				sizes[i] = 1 + s.Intn(4)
			default:
				sizes[i] = 1 + s.Intn(100)
			}
		}
		l, err := addr.NewSubarrayLayout(sizes)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstSearch(t, fmt.Sprint(sizes), l)
	}
}
