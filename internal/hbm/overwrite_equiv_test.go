package hbm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// The DRAM Bender runner issues ActivateOverwrite for an ACT whose row the
// program rewrites in full before anything reads it, skipping the sense's
// bitflips. These tests run random programs twice — with the runner's
// fast paths on and with DisableFastPath — and require identical reads,
// errors, clocks, activity counters and per-row physical state. Only
// BitflipsCommitted and ECCCorrections may differ: they no longer count
// the dead flips.
//
// Hammer loops are emitted with unequal holds, a shape the bulk hammer
// path declines, so both runs execute them per iteration: bulk
// application sums disturbance in a different floating-point order, and
// its equivalence is pinned by the bender package's own tests.

// overwriteProgram decodes a script of 3-byte operations into a bender
// program over a few neighbouring rows, mixing full fills with every
// shape that must not be elided. It returns the program and, when the
// script's first byte is odd, RunSegments boundaries (some inside fill
// blocks); the rest of that byte picks the boundary whose cancellation
// check stops the run (see runOverwriteScript).
func overwriteProgram(d *Device, script []byte) (*bender.Program, []int) {
	g := d.Geometry()
	tm := d.Config().Timing
	m := d.Mapper()
	b := bender.NewBuilder(tm, g)
	segmented := len(script) > 0 && script[0]&1 == 1
	var bounds []int
	mark := func() {
		if n := b.Len(); segmented && (len(bounds) == 0 || bounds[len(bounds)-1] < n) {
			bounds = append(bounds, n)
		}
	}
	open := func(ba addr.BankAddr, row int) {
		b.Act(ba, row)
		b.Wait(tm.TRCD - tm.TCK)
	}
	closeRow := func(ba addr.BankAddr) {
		b.Wait(tm.TRAS)
		b.Pre(ba)
		b.Wait(tm.TRP)
	}
	payload := func(v byte) []byte { return bytes.Repeat([]byte{v}, g.ColumnBytes) }
	writeCols := func(ba addr.BankAddr, from, to int, v byte) {
		for col := from; col < to; col++ {
			b.Wr(ba, col, payload(v))
		}
	}
	cols := g.Columns
	for i := 0; i+2 < len(script); i += 3 {
		op, a, v := script[i], script[i+1], script[i+2]
		ba := addr.BankAddr{
			Channel:       int(a&1) * (g.Channels - 1),
			PseudoChannel: int(a>>1) & 1,
			Bank:          int(a>>2) % g.Banks,
		}
		other := ba
		other.Bank = (ba.Bank + 1) % g.Banks
		// Rows straddle a subarray boundary so fills, reads and hammers
		// keep landing on each other's neighbours.
		phys := 40 + int(v)%16
		row := m.ToLogical(phys)
		mark()
		switch op % 12 {
		case 0: // full fill: elided
			b.WriteRowFill(ba, row, a^v)
		case 1: // partial cover
			open(ba, row)
			skip := int(v) % cols
			writeCols(ba, 0, skip, a)
			writeCols(ba, skip+1, cols, a)
			closeRow(ba)
		case 2: // a read inside the block
			open(ba, row)
			k := int(a>>3) % cols
			writeCols(ba, 0, k, v)
			b.Rd(ba, int(v)%cols)
			writeCols(ba, k, cols, v)
			closeRow(ba)
		case 3: // a write to a second open bank inside the block
			open(other, m.ToLogical(phys+1))
			open(ba, row)
			writeCols(ba, 0, cols/2, a)
			b.Wr(other, int(v)%cols, payload(v))
			writeCols(ba, cols/2, cols, a)
			closeRow(ba)
			closeRow(other)
		case 4: // a hammer loop around the row, executed per iteration
			aggA, aggB := m.ToLogical(phys-1), m.ToLogical(phys+1)
			b.Loop(500+int64(v)*40, func(b *bender.Builder) {
				b.Act(ba, aggA)
				b.Wait(tm.TRAS - tm.TCK)
				b.Pre(ba)
				b.Wait(tm.TRP - tm.TCK)
				b.Act(ba, aggB)
				b.Wait(2*tm.TRAS - tm.TCK)
				b.Pre(ba)
				b.Wait(tm.TRP - tm.TCK)
			})
		case 5: // idle up to ~25 s: retention decay
			b.Wait((int64(v) + 1) * 100_000_000_000)
		case 6: // a periodic refresh (and, every few, TRR victim refreshes)
			b.Wait(tm.TRFC)
			b.Ref(ba.Channel, ba.PseudoChannel)
			b.Wait(tm.TRFC)
		case 7:
			b.ReadRowOut(ba, row)
		case 8: // the writes inside a loop
			open(ba, row)
			b.Loop(1+int64(v%2), func(b *bender.Builder) { writeCols(ba, 0, cols, a) })
			closeRow(ba)
		case 9: // toggle on-die ECC
			b.MRS(ba.Channel, MRECC, uint32(v&1))
		case 10: // a full fill with a segment boundary inside
			open(ba, row)
			writeCols(ba, 0, cols/2, a)
			mark()
			writeCols(ba, cols/2, cols, a)
			closeRow(ba)
		default:
			if v < 16 { // a write before tRCD: the program fails here
				b.Act(ba, row)
				writeCols(ba, 0, cols, a)
				closeRow(ba)
			} else { // a full fill with an extra wait: elided
				open(ba, row)
				b.Wait(int64(v))
				writeCols(ba, 0, cols, a)
				closeRow(ba)
			}
		}
	}
	mark()
	prog, err := b.Build()
	if err != nil {
		panic(err) // the generator only emits valid instructions
	}
	return prog, bounds
}

var errStopped = errors.New("stopped at a segment boundary")

// runOverwriteScript runs one script on a fast-path and a
// fast-path-disabled device, fails the test on any divergence, and
// returns how many flips the fast run skipped.
func runOverwriteScript(t *testing.T, script []byte) int64 {
	t.Helper()
	fast, err := New(equivConfig())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(equivConfig())
	if err != nil {
		t.Fatal(err)
	}
	exec := func(d *Device, disableFast bool) ([]byte, int64, error) {
		prog, bounds := overwriteProgram(d, script)
		r := bender.NewRunner(d.Config().Timing)
		r.DisableFastPath = disableFast
		var res *bender.Result
		var err error
		if bounds != nil {
			// Cancel at one boundary, as a cancelled context would: a
			// block elided across it would stop half rewritten.
			checks, stopAt := 0, int(script[0]>>1)
			check := func() error {
				if checks++; checks == stopAt {
					return errStopped
				}
				return nil
			}
			res, _, err = r.RunSegments(d, d.Geometry(), prog, bounds, check)
		} else {
			res, err = r.Run(d, d.Geometry(), prog)
		}
		if err != nil {
			return nil, 0, err
		}
		return bytes.Join(res.Reads, nil), res.Elapsed, nil
	}
	fReads, fElapsed, fErr := exec(fast, false)
	sReads, sElapsed, sErr := exec(slow, true)
	if fmt.Sprint(fErr) != fmt.Sprint(sErr) {
		t.Fatalf("errors diverge: fast %v, disabled %v", fErr, sErr)
	}
	if !bytes.Equal(fReads, sReads) || fElapsed != sElapsed {
		t.Fatalf("reads or elapsed diverge (elapsed %d vs %d)", fElapsed, sElapsed)
	}
	if fast.Now() != slow.Now() {
		t.Fatalf("clocks diverge: fast %d, disabled %d", fast.Now(), slow.Now())
	}
	fs, ss := fast.Stats(), slow.Stats()
	skipped := ss.BitflipsCommitted - fs.BitflipsCommitted
	if skipped < 0 {
		t.Fatalf("fast run committed more flips (%d) than the disabled run (%d)",
			fs.BitflipsCommitted, ss.BitflipsCommitted)
	}
	fs.BitflipsCommitted, ss.BitflipsCommitted = 0, 0
	fs.ECCCorrections, ss.ECCCorrections = 0, 0
	if fs != ss {
		t.Fatalf("stats diverge:\nfast     %+v\ndisabled %+v", fs, ss)
	}
	compareRows(t, fast, slow)
	return skipped
}

// FuzzOverwriteEquivalence is the differential fuzz target pinning the
// runner's overwrite-block elision to plain activation. `go test`
// exercises the seed corpus; `go test -fuzz=FuzzOverwriteEquivalence
// ./internal/hbm` digs.
func FuzzOverwriteEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 3, 5, 0, 200, 0, 1, 3, 7, 1, 3})            // fill, idle, refill, read
	f.Add([]byte{1, 2, 4, 4, 2, 5, 5, 0, 90, 1, 2, 4, 7, 2, 4})    // segmented: fill, hammer, idle, partial, read
	f.Add([]byte{2, 6, 9, 5, 0, 255, 2, 6, 9, 3, 6, 9, 8, 6, 9})   // read inside, second bank, loop-wrapped
	f.Add([]byte{9, 0, 1, 10, 1, 8, 5, 0, 150, 11, 1, 8, 7, 1, 8}) // ECC on, split fill, idle, padded fill
	f.Add([]byte{6, 4, 0, 0, 4, 3, 6, 4, 0, 4, 4, 3, 11, 4, 3})    // refreshes, hammer, failing fill
	f.Add([]byte{9, 0, 0, 5, 0, 255, 10, 0, 3})                    // segmented: ECC off, idle, fill cancelled half way
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 60 {
			script = script[:60] // bound per-input work
		}
		runOverwriteScript(t, script)
	})
}

// TestOverwriteEquivalenceRandomScripts complements the fuzz corpus with
// a deterministic randomized sweep, and checks the sweep really skips
// dead flips (else it would prove nothing about the elision).
func TestOverwriteEquivalenceRandomScripts(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential sweep")
	}
	s := rng.NewStream(0x0E_5E)
	var skipped int64
	for round := 0; round < 12; round++ {
		script := make([]byte, 3*16)
		for i := range script {
			script[i] = byte(s.Next())
		}
		t.Run(fmt.Sprintf("round%02d", round), func(t *testing.T) {
			skipped += runOverwriteScript(t, script)
		})
	}
	if skipped == 0 {
		t.Fatal("no round skipped a dead flip")
	}
}
