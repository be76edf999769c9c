// Package retention implements the data-retention profiler that the
// U-TRR methodology (Section 5) builds on: for a given row, find the wait
// time T after which retention errors reliably appear unless the row is
// refreshed. Retention failures then serve as a side channel revealing
// whether an in-DRAM mechanism refreshed the row.
package retention

import (
	"fmt"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/hbm"
)

// Profiler measures per-row retention times on a device.
type Profiler struct {
	dev *hbm.Device
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
func NewProfiler(d *hbm.Device) *Profiler {
	return &Profiler{dev: d, Pattern: 0xFF, MaxSec: 64, Precision: 0.05}
}

// Probe writes the pattern to the row, waits waitSec of simulated time,
// reads the row back and returns the number of retention errors.
func (p *Profiler) Probe(b addr.BankAddr, row int, waitSec float64) (int, error) {
	g := p.dev.Geometry()
	pattern := make([]byte, g.RowBytes())
	for i := range pattern {
		pattern[i] = p.Pattern
	}
	if err := hbm.WriteRow(p.dev, b, row, pattern); err != nil {
		return 0, fmt.Errorf("retention: %w", err)
	}
	if err := p.dev.AdvanceTime(int64(waitSec * 1e12)); err != nil {
		return 0, fmt.Errorf("retention: %w", err)
	}
	got, err := hbm.ReadRow(p.dev, b, row)
	if err != nil {
		return 0, fmt.Errorf("retention: %w", err)
	}
	return hbm.CountMismatches(got, pattern), nil
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
			return 0, fmt.Errorf("retention: row %v/%d shows no errors within %.0f s", b, row, p.MaxSec)
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
	g := p.dev.Geometry()
	// An out-of-range bank is bad input, not a bank without a usable row:
	// every probe would fail and the scan below would swallow the errors.
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
		if err != nil {
			continue // row too strong for the band; keep scanning
		}
		if t >= loSec && t <= hiSec {
			return row, t, nil
		}
	}
	return 0, 0, fmt.Errorf("retention: no row with retention in [%.2f, %.2f] s among %d rows from %d",
		loSec, hiSec, maxScan, startRow)
}
