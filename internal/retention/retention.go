// Package retention implements the data-retention profiler that the
// U-TRR methodology (Section 5) builds on: for a given row, find the wait
// time T after which retention errors reliably appear unless the row is
// refreshed. Retention failures then serve as a side channel revealing
// whether an in-DRAM mechanism refreshed the row.
package retention

import (
	"errors"
	"fmt"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/core"
)

// Profiler measures per-row retention times through a harness's DRAM
// Bender programs.
type Profiler struct {
	h *core.Harness
	// Pattern is the byte written to every cell before waiting. The
	// measured retention time is that of the weakest cell charged under
	// this pattern, so it is pattern-dependent, as on real silicon.
	Pattern byte
	// MaxSec bounds the search: rows whose weakest cell outlasts MaxSec
	// are reported as unprofilable.
	MaxSec float64
	// Precision is the relative width at which the binary search stops.
	Precision float64
}

// NewProfiler returns a profiler with the defaults used throughout the
// reproduction: all-ones data, a 64-second ceiling, 5 % precision.
func NewProfiler(h *core.Harness) *Profiler {
	return &Profiler{h: h, Pattern: 0xFF, MaxSec: 64, Precision: 0.05}
}

// errTooStrong marks a row that shows no retention error within MaxSec,
// the one probe failure FindRow's scan skips.
var errTooStrong = errors.New("shows no errors")

// Probe runs one program that writes the pattern to the row, waits
// waitSec of simulated time and reads the row back, and returns the
// number of retention errors.
func (p *Profiler) Probe(b addr.BankAddr, row int, waitSec float64) (int, error) {
	res, err := p.h.Exec(func(bb *bender.Builder) {
		bb.WriteRowFill(b, row, p.Pattern)
		bb.Wait(int64(waitSec * 1e12))
		bb.ReadRowOut(b, row)
	})
	if err != nil {
		return 0, fmt.Errorf("retention: %w", err)
	}
	return core.CountFlips(res.Reads, p.Pattern), nil
}

// RowRetention finds the smallest wait time (within Precision) at which
// the row exhibits at least one retention error. Retention failures are
// monotone in the wait time, so exponential probing followed by binary
// search is exact.
func (p *Profiler) RowRetention(b addr.BankAddr, row int) (float64, error) {
	lo := 0.0
	hi := 0.1
	for {
		n, err := p.Probe(b, row, hi)
		if err != nil {
			return 0, err
		}
		if n > 0 {
			break
		}
		lo = hi
		hi *= 2
		if hi > p.MaxSec {
			return 0, fmt.Errorf("retention: row %v/%d %w within %.0f s", b, row, errTooStrong, p.MaxSec)
		}
	}
	for hi-lo > p.Precision*hi {
		mid := (lo + hi) / 2
		n, err := p.Probe(b, row, mid)
		if err != nil {
			return 0, err
		}
		if n > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// FindRow scans rows starting at startRow for one whose retention time
// falls inside [loSec, hiSec], the convenient band the U-TRR experiment
// needs (long enough to schedule commands inside T/2 windows, short
// enough to keep iterations fast). It returns the row and its measured
// retention time. A bank outside the device geometry is an error that
// names the bank.
func (p *Profiler) FindRow(b addr.BankAddr, startRow, maxScan int, loSec, hiSec float64) (int, float64, error) {
	g := p.h.Device().Geometry()
	// An out-of-range bank is bad input, not a bank without a usable row:
	// reject it with an error naming it before any probe runs.
	if !b.Valid(g) {
		return 0, 0, fmt.Errorf("retention: bank %v out of range (%d channels, %d pseudo channels, %d banks)",
			b, g.Channels, g.PseudoChannels, g.Banks)
	}
	if startRow < 0 || startRow >= g.Rows {
		return 0, 0, fmt.Errorf("retention: start row %d out of range", startRow)
	}
	saveMax := p.MaxSec
	p.MaxSec = hiSec * 4 // no point searching far beyond the band
	defer func() { p.MaxSec = saveMax }()
	for i := 0; i < maxScan && startRow+i < g.Rows; i++ {
		row := startRow + i
		t, err := p.RowRetention(b, row)
		if errors.Is(err, errTooStrong) {
			continue // row too strong for the band; keep scanning
		}
		if err != nil {
			return 0, 0, err
		}
		if t >= loSec && t <= hiSec {
			return row, t, nil
		}
	}
	return 0, 0, fmt.Errorf("retention: no row with retention in [%.2f, %.2f] s among %d rows from %d",
		loSec, hiSec, maxScan, startRow)
}
