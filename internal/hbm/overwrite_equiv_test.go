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
// program rewrites in full (one WRROW) before anything reads it, skipping
// the sense's bitflips. These tests run random programs twice — with the
// runner's fast paths on and with DisableFastPath — and require identical
// reads, errors, clocks, activity counters and per-row physical state.
// Only BitflipsCommitted and ECCCorrections may differ: they no longer
// count the dead flips. The WRROW differential below also respells every
// WRROW as per-column WRs and requires the same outcome.
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
	writeRow := func(ba addr.BankAddr, v byte) { b.WrRow(ba, payload(v)) }
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
		switch op % 16 {
		case 0: // full WRROW fill: elided
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
		case 8: // the row write inside a loop
			open(ba, row)
			b.Loop(1+int64(v%2), func(b *bender.Builder) { writeRow(ba, a) })
			closeRow(ba)
		case 9: // toggle on-die ECC
			b.MRS(ba.Channel, MRECC, uint32(v&1))
		case 10: // a full per-column cover with a segment boundary inside
			open(ba, row)
			writeCols(ba, 0, cols/2, a)
			mark()
			writeCols(ba, cols/2, cols, a)
			closeRow(ba)
		case 11:
			if v < 16 { // a write before tRCD: the program fails here
				b.Act(ba, row)
				writeCols(ba, 0, cols, a)
				closeRow(ba)
			} else { // a WRROW fill with an extra wait: elided
				open(ba, row)
				b.Wait(int64(v))
				writeRow(ba, a)
				closeRow(ba)
			}
		case 12: // a WRROW before tRCD: the program fails here
			b.Act(ba, row)
			b.Wait(int64(v) % (tm.TRCD - tm.TCK))
			writeRow(ba, a)
			closeRow(ba)
		case 13: // a read before the WRROW
			open(ba, row)
			b.Rd(ba, int(v)%cols)
			writeRow(ba, a)
			closeRow(ba)
		case 14: // a WRROW on a second open bank inside the block
			open(other, m.ToLogical(phys+1))
			open(ba, row)
			writeRow(other, v)
			writeRow(ba, a)
			closeRow(ba)
			closeRow(other)
		default: // a segment boundary between the ACT and the WRROW
			open(ba, row)
			mark()
			writeRow(ba, a)
			closeRow(ba)
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

// runScriptProgram runs a program built from script on d and returns its
// reads, concatenated, and its elapsed time. With bounds it runs them as
// segments and cancels at the boundary the rest of script's first byte
// picks, as a cancelled context would: a block elided across it would
// stop half rewritten.
func runScriptProgram(d *Device, script []byte, prog *bender.Program, bounds []int,
	disableFast bool) ([]byte, int64, error) {
	r := bender.NewRunner(d.Config().Timing)
	r.DisableFastPath = disableFast
	var res *bender.Result
	var err error
	if bounds != nil {
		checks, stopAt := 0, int(script[0]>>1)
		check := func() error {
			if checks++; checks == stopAt {
				return errStopped
			}
			return nil
		}
		live := make([]bool, len(bounds))
		for i := range live {
			live[i] = true
		}
		res, _, err = r.RunSegments(d, d.Geometry(), prog, bounds, live, check)
	} else {
		res, err = r.Run(d, d.Geometry(), prog)
	}
	if err != nil {
		return nil, 0, err
	}
	return bytes.Join(res.Reads, nil), res.Elapsed, nil
}

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
		return runScriptProgram(d, script, prog, bounds, disableFast)
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
	f.Add([]byte{0, 5, 2, 5, 0, 200, 12, 5, 2, 13, 5, 2})          // fill, idle, WRROW before tRCD
	f.Add([]byte{3, 1, 7, 5, 1, 220, 13, 1, 7, 14, 1, 7, 8, 1, 7}) // segmented: read before WRROW, second bank, looped WRROW
	f.Add([]byte{5, 2, 6, 5, 2, 180, 15, 2, 6, 7, 2, 6})           // segmented: WRROW cancelled between ACT and WRROW
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

// expandRowWrites respells every OpWrRow of prog as one OpWr of the same
// payload per column, in column order, and moves the segment bounds with
// the instructions they precede.
func expandRowWrites(prog *bender.Program, bounds []int, columns int) (*bender.Program, []int) {
	out := &bender.Program{Data: prog.Data}
	var moved []int
	next := 0
	for i, in := range prog.Instrs {
		for ; next < len(bounds) && bounds[next] == i; next++ {
			moved = append(moved, len(out.Instrs))
		}
		if in.Op != bender.OpWrRow {
			out.Instrs = append(out.Instrs, in)
			continue
		}
		for col := 0; col < columns; col++ {
			wr := in
			wr.Op, wr.Col = bender.OpWr, col
			out.Instrs = append(out.Instrs, wr)
		}
	}
	for ; next < len(bounds); next++ {
		moved = append(moved, len(out.Instrs))
	}
	return out, moved
}

// runWriteRowScript runs one script's program as built (with WRROWs) and
// respelled per column, each with the runner's fast paths on and off, and
// fails the test on any divergence between the spellings: reads, errors,
// clocks, every activity counter and every row's data, disturbance and
// charge clock. With the fast paths on, only WRROW blocks are elided, so
// there the WRROW spelling may count fewer flips, never more.
func runWriteRowScript(t *testing.T, script []byte) {
	t.Helper()
	type outcome struct {
		dev     *Device
		reads   []byte
		elapsed int64
		err     error
	}
	exec := func(perColumn, disableFast bool) outcome {
		d, err := New(equivConfig())
		if err != nil {
			t.Fatal(err)
		}
		prog, bounds := overwriteProgram(d, script)
		if perColumn {
			prog, bounds = expandRowWrites(prog, bounds, d.Geometry().Columns)
		}
		reads, elapsed, err := runScriptProgram(d, script, prog, bounds, disableFast)
		return outcome{d, reads, elapsed, err}
	}
	for _, disableFast := range []bool{false, true} {
		row, col := exec(false, disableFast), exec(true, disableFast)
		if fmt.Sprint(row.err) != fmt.Sprint(col.err) {
			t.Fatalf("DisableFastPath=%v: errors diverge: WRROW %v, per-column %v", disableFast, row.err, col.err)
		}
		if !bytes.Equal(row.reads, col.reads) || row.elapsed != col.elapsed {
			t.Fatalf("DisableFastPath=%v: reads or elapsed diverge (elapsed %d vs %d)",
				disableFast, row.elapsed, col.elapsed)
		}
		if row.dev.Now() != col.dev.Now() {
			t.Fatalf("DisableFastPath=%v: clocks diverge: WRROW %d, per-column %d",
				disableFast, row.dev.Now(), col.dev.Now())
		}
		rs, cs := row.dev.Stats(), col.dev.Stats()
		if !disableFast {
			if rs.BitflipsCommitted > cs.BitflipsCommitted {
				t.Fatalf("WRROW spelling committed more flips (%d) than per-column (%d)",
					rs.BitflipsCommitted, cs.BitflipsCommitted)
			}
			rs.BitflipsCommitted, cs.BitflipsCommitted = 0, 0
			rs.ECCCorrections, cs.ECCCorrections = 0, 0
		}
		if rs != cs {
			t.Fatalf("DisableFastPath=%v: stats diverge:\nWRROW      %+v\nper-column %+v", disableFast, rs, cs)
		}
		compareRows(t, row.dev, col.dev)
	}
}

// FuzzWriteRowEquivalence is the differential fuzz target pinning WRROW to
// the per-column writes it replaces, on the overwrite fuzzer's programs.
// `go test` exercises the seed corpus; `go test
// -fuzz=FuzzWriteRowEquivalence ./internal/hbm` digs.
func FuzzWriteRowEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 3, 5, 0, 200, 0, 1, 3, 7, 1, 3})            // fill, idle, refill, read
	f.Add([]byte{2, 6, 9, 5, 0, 255, 8, 6, 9, 14, 6, 9, 7, 6, 9})  // idle, looped WRROW, second bank, read
	f.Add([]byte{9, 0, 1, 5, 1, 150, 11, 1, 8, 13, 1, 8, 7, 1, 8}) // ECC on, idle, padded fill, read before WRROW
	f.Add([]byte{5, 4, 0, 0, 4, 3, 4, 4, 3, 15, 4, 3, 12, 4, 3})   // segmented: fill, hammer, boundary, failing WRROW
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 60 {
			script = script[:60] // bound per-input work
		}
		runWriteRowScript(t, script)
	})
}

// TestWriteRowEquivalenceRandomScripts complements the fuzz corpus with a
// deterministic randomized sweep.
func TestWriteRowEquivalenceRandomScripts(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential sweep")
	}
	s := rng.NewStream(0x3A_11)
	for round := 0; round < 12; round++ {
		script := make([]byte, 3*16)
		for i := range script {
			script[i] = byte(s.Next())
		}
		t.Run(fmt.Sprintf("round%02d", round), func(t *testing.T) {
			runWriteRowScript(t, script)
		})
	}
}
