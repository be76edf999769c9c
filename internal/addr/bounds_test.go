package addr_test

import (
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
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
