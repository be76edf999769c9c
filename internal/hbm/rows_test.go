package hbm

import (
	"fmt"

	"github.com/safari-repro/hbmrh/internal/addr"
)

// Test-only row helpers. They compose device commands with the waits the
// timing rules require, so the device's own tests can drive it without a
// DRAM Bender program; everything outside this package reaches the device
// through programs (internal/bender).

// writeRow opens a logical row, writes the full row image, and closes it.
// data must be exactly one row long.
func writeRow(d *Device, b addr.BankAddr, logicalRow int, data []byte) error {
	g := d.Geometry()
	if len(data) != g.RowBytes() {
		return fmt.Errorf("hbm: writeRow of %d bytes, row holds %d: %w", len(data), g.RowBytes(), ErrAddress)
	}
	if err := openRow(d, b, logicalRow); err != nil {
		return err
	}
	n := g.ColumnBytes
	for col := 0; col < g.Columns; col++ {
		if err := d.Write(flat(d, b), col, data[col*n:(col+1)*n]); err != nil {
			return err
		}
	}
	return closeRow(d, b)
}

// readRow opens a logical row, reads the full row image, and closes it.
// Activation senses the row, so any pending bitflips materialize here.
func readRow(d *Device, b addr.BankAddr, logicalRow int) ([]byte, error) {
	g := d.Geometry()
	if err := openRow(d, b, logicalRow); err != nil {
		return nil, err
	}
	out := make([]byte, g.RowBytes())
	n := g.ColumnBytes
	for col := 0; col < g.Columns; col++ {
		if err := d.Read(flat(d, b), col, out[col*n:(col+1)*n]); err != nil {
			return nil, err
		}
	}
	if err := closeRow(d, b); err != nil {
		return nil, err
	}
	return out, nil
}

// refreshRow refreshes one row by activating and precharging it, the
// building block of the U-TRR methodology's step 2.
func refreshRow(d *Device, b addr.BankAddr, logicalRow int) error {
	if err := openRow(d, b, logicalRow); err != nil {
		return err
	}
	return closeRow(d, b)
}

// openRow activates a row and waits until column accesses are legal.
func openRow(d *Device, b addr.BankAddr, logicalRow int) error {
	t := d.Config().Timing
	start := d.Now()
	if err := d.Activate(flat(d, b), logicalRow, false); err != nil {
		return err
	}
	return waitUntil(d, start+t.TRCD)
}

// closeRow waits out tRAS, precharges, and waits out tRP, leaving the bank
// ready for the next activation.
func closeRow(d *Device, b addr.BankAddr) error {
	t := d.Config().Timing
	// The last activate happened at most a row's worth of column accesses
	// ago; wait until tRAS is satisfied relative to it.
	bankStart := d.lastActOf(b)
	if err := waitUntil(d, bankStart+t.TRAS); err != nil {
		return err
	}
	if err := d.Precharge(flat(d, b)); err != nil {
		return err
	}
	return d.AdvanceTime(t.TRP)
}

func (d *Device) lastActOf(b addr.BankAddr) int64 {
	if !b.Valid(d.cfg.Geometry) {
		return farPast
	}
	return d.banks[flat(d, b)].lastAct
}

// flat returns bank b's BankAddr.Flat index, the address every bank
// command takes.
func flat(d *Device, b addr.BankAddr) int { return b.Flat(d.cfg.Geometry) }

// hammerPair runs n double-sided hammers of rows la and lb in bank b,
// each activation held open for holdPS.
func hammerPair(d *Device, b addr.BankAddr, la, lb, n int, holdPS int64) error {
	return d.Hammer(flat(d, b), [2]int{la, lb}, 2, int64(n), holdPS)
}

// hammerSingle runs n single-sided hammers of row in bank b.
func hammerSingle(d *Device, b addr.BankAddr, row, n int, holdPS int64) error {
	return d.Hammer(flat(d, b), [2]int{row}, 1, int64(n), holdPS)
}

func waitUntil(d *Device, deadline int64) error {
	if gap := deadline - d.Now(); gap > 0 {
		return d.AdvanceTime(gap)
	}
	return nil
}

// countMismatches compares a read row image against the written pattern
// and returns the number of differing bits.
func countMismatches(got, want []byte) int {
	n := 0
	for i := range got {
		d := got[i] ^ want[i]
		for d != 0 {
			d &= d - 1
			n++
		}
	}
	return n
}
