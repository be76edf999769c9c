package hbm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// The DRAM Bender runner executes validated programs on the device's
// unchecked core (the *Resolved methods), with the banks validation
// resolved. These tests decode random byte scripts into programs —
// out-of-range banks, rows and columns, mistimed commands, nested loops,
// bad loop structure and segment bounds included — and pin that core to
// the public checked methods twice:
//
//   - The runner, with its fast paths off, against a plain interpreter
//     that validates the program the way the runner does and then issues
//     every instruction through the public checked methods, unrolling
//     loops. Same error class (and the same message for device errors),
//     reads, segments, clock, counters and row state.
//   - The runner with its fast paths on, once on the device and once on
//     a view that routes every resolved command back through the checked
//     methods. Both make the same bulk-hammer and overwrite decisions, so
//     everything, bitflip counters included, must agree.

// runnerConfig is equivConfig with RowHammer thresholds a hundredth as
// high, so the hammer loops the plain interpreter unrolls flip bits while
// they stay short.
func runnerConfig() *config.Config {
	cfg := equivConfig()
	cfg.Fault.HCFloor /= 100
	for i := range cfg.Fault.Channels {
		cfg.Fault.Channels[i].MedianHC /= 100
	}
	return cfg
}

// runnerScript is a decoded script: the program and, for a segmented
// run, its bounds, which segments run, and the boundary whose
// cancellation check stops it.
type runnerScript struct {
	prog   *bender.Program
	bounds []int  // nil for a plain Run
	live   []bool // live[j]: segment j runs
	stopAt int    // the check that fails, counting from 1; 0 never fails
}

// decodeRunnerScript decodes a script: the first byte's low bit selects a
// segmented run and the rest picks the stopping boundary (as in
// overwriteProgram); then every 4 bytes (op, a, b, c) emit one command
// shape on the bank a names, at the row or column b names, with a wait c
// picks. Byte values at the top of a range name out-of-range operands
// and broken structure, which validation must reject. Segment j of a
// segmented run runs when bit j%64 of live is set.
func decodeRunnerScript(d *Device, script []byte, live uint64) runnerScript {
	g := d.Geometry()
	tm := d.Config().Timing
	m := d.Mapper()
	var rs runnerScript
	p := &bender.Program{}
	for _, v := range []byte{0x00, 0xFF, 0x55} {
		p.Data = append(p.Data, bytes.Repeat([]byte{v}, g.ColumnBytes))
	}
	p.Data = append(p.Data, make([]byte, g.ColumnBytes-1)) // a payload of the wrong size
	emit := func(in bender.Instr) { p.Instrs = append(p.Instrs, in) }
	bankOf := func(a byte) addr.BankAddr {
		if a >= 0xF0 {
			return [4]addr.BankAddr{
				{Channel: g.Channels},
				{PseudoChannel: -1},
				{Bank: g.Banks},
				{Channel: -1},
			}[a&3]
		}
		return addr.BankAddr{
			Channel:       int(a&1) * (g.Channels - 1),
			PseudoChannel: int(a>>1) & 1,
			Bank:          int(a>>2) % g.Banks,
		}
	}
	bankInstr := func(op bender.Op, ba addr.BankAddr) bender.Instr {
		return bender.Instr{Op: op, Ch: ba.Channel, PC: ba.PseudoChannel, Bank: ba.Bank}
	}
	// Rows fall in one of three 16-row windows, mid-subarray (where
	// hammers flip bits soonest) or straddling a subarray boundary, so
	// fills, reads and hammers keep landing on each other's neighbours.
	phys := func(b byte) int { return [3]int{16, 40, 64}[(b>>4)%3] + int(b)%16 }
	rowOf := func(b byte) int {
		if b >= 0xF8 {
			return [2]int{-1, g.Rows}[b&1]
		}
		return m.ToLogical(phys(b))
	}
	colOf := func(b byte) int {
		if b >= 0xF8 {
			return [2]int{-1, g.Columns}[b&1]
		}
		return int(b) % g.Columns
	}
	dataOf := func(c byte) int {
		switch c {
		case 0xFF:
			return len(p.Data) // outside the table
		case 0xFE:
			return len(p.Data) - 1 // the short payload
		}
		return int(c) % 3
	}
	wait := func(c byte) {
		var ps int64
		switch c % 8 {
		case 0: // none: the next command is likely mistimed
		case 1:
			ps = tm.TCK
		case 2:
			ps = tm.TRCD - tm.TCK
		case 3:
			ps = tm.TRAS
		case 4:
			ps = tm.TRP
		case 5:
			ps = tm.TRC
		case 6:
			ps = tm.TRFC
		default: // idle up to ~3 s: retention decay
			ps = int64(c>>3) * 100_000_000_000
		}
		if ps > 0 {
			emit(bender.Instr{Op: bender.OpWait, Arg: ps})
		}
	}
	segmented := len(script) > 0 && script[0]&1 == 1
	if segmented {
		rs.stopAt = int(script[0] >> 1)
	}
	mark := func() {
		if n := len(p.Instrs); segmented && (len(rs.bounds) == 0 || rs.bounds[len(rs.bounds)-1] < n) {
			rs.bounds = append(rs.bounds, n)
		}
	}
	depth := 0
	for i := 1; i+3 < len(script); i += 4 {
		op, a, b, c := script[i], script[i+1], script[i+2], script[i+3]
		ba := bankOf(a)
		switch op % 16 {
		case 0:
			in := bankInstr(bender.OpAct, ba)
			in.Row = rowOf(b)
			emit(in)
			wait(c)
		case 1:
			emit(bankInstr(bender.OpPre, ba))
			wait(c)
		case 2:
			in := bankInstr(bender.OpRd, ba)
			in.Col = colOf(b)
			emit(in)
			wait(c)
		case 3:
			in := bankInstr(bender.OpWr, ba)
			in.Col, in.Data = colOf(b), dataOf(c)
			emit(in)
		case 4:
			in := bankInstr(bender.OpWrRow, ba)
			in.Data = dataOf(c)
			emit(in)
		case 5:
			emit(bender.Instr{Op: bender.OpPreA, Ch: ba.Channel, PC: ba.PseudoChannel})
			wait(c)
		case 6:
			emit(bender.Instr{Op: bender.OpRef, Ch: ba.Channel, PC: ba.PseudoChannel})
			wait(c)
		case 7: // toggle on-die ECC
			emit(bender.Instr{Op: bender.OpMRS, Ch: ba.Channel, Row: MRECC, Arg: int64(b & 1)})
		case 8:
			if c == 0xFF {
				emit(bender.Instr{Op: bender.OpWait, Arg: -1})
			} else {
				wait(c)
			}
		case 9: // a hammer loop, with equal holds (bulk-applicable) when c is even
			aggA, aggB := rowOf(b), m.ToLogical(phys(b)+2)
			hold := tm.TRAS - tm.TCK
			emit(bender.Instr{Op: bender.OpLoop, Arg: 1 + int64(c>>2)*400})
			for k, row := range []int{aggA, aggB} {
				act := bankInstr(bender.OpAct, ba)
				act.Row = row
				emit(act)
				emit(bender.Instr{Op: bender.OpWait, Arg: hold + int64(k)*int64(c&1)*tm.TRAS})
				emit(bankInstr(bender.OpPre, ba))
				emit(bender.Instr{Op: bender.OpWait, Arg: tm.TRP - tm.TCK})
			}
			emit(bender.Instr{Op: bender.OpEndLoop})
		case 10: // open a loop; a count of 0 is invalid
			if depth < 2 {
				n := 1 + int64(b%2)
				if c == 0xFF {
					n = 0
				}
				emit(bender.Instr{Op: bender.OpLoop, Arg: n})
				depth++
			}
		case 11: // close a loop, or a stray close
			if depth > 0 {
				emit(bender.Instr{Op: bender.OpEndLoop})
				depth--
			} else if c == 0xFF {
				emit(bender.Instr{Op: bender.OpEndLoop})
			}
		case 12: // an overwrite block; odd c writes the row before tRCD
			act := bankInstr(bender.OpAct, ba)
			act.Row = rowOf(b)
			emit(act)
			emit(bender.Instr{Op: bender.OpWait, Arg: tm.TRCD - tm.TCK - int64(c&1)*tm.TCK})
			wr := bankInstr(bender.OpWrRow, ba)
			wr.Data = int(c>>1) % 3
			emit(wr)
			emit(bender.Instr{Op: bender.OpWait, Arg: tm.TRAS})
			emit(bankInstr(bender.OpPre, ba))
			emit(bender.Instr{Op: bender.OpWait, Arg: tm.TRP})
		case 13: // a segment boundary; inside a loop or out of order when c says so
			switch {
			case !segmented:
			case depth == 0:
				mark()
			case c == 0xFF:
				rs.bounds = append(rs.bounds, len(p.Instrs))
			}
			if segmented && c == 0xFE && len(rs.bounds) > 0 {
				rs.bounds = append(rs.bounds, rs.bounds[len(rs.bounds)-1])
			}
		case 14: // a row read-out
			act := bankInstr(bender.OpAct, ba)
			act.Row = rowOf(b)
			emit(act)
			emit(bender.Instr{Op: bender.OpWait, Arg: tm.TRCD - tm.TCK})
			for col := 0; col < g.Columns; col++ {
				rd := bankInstr(bender.OpRd, ba)
				rd.Col = col
				emit(rd)
			}
			emit(bender.Instr{Op: bender.OpWait, Arg: tm.TRAS})
			emit(bankInstr(bender.OpPre, ba))
			emit(bender.Instr{Op: bender.OpWait, Arg: tm.TRP})
		default: // an end, inside a loop only when c says so
			if depth == 0 || c == 0xFF {
				emit(bender.Instr{Op: bender.OpEnd})
			}
		}
	}
	for ; depth > 0; depth-- {
		emit(bender.Instr{Op: bender.OpEndLoop})
	}
	mark()
	for j := range rs.bounds {
		rs.live = append(rs.live, live&(1<<(j%64)) != 0)
	}
	rs.prog = p
	return rs
}

// runOutcome is everything a run leaves that the differentials compare.
type runOutcome struct {
	err     error
	reads   [][]byte
	segs    []bender.Segment
	elapsed int64
}

// errorClass names the kind of a run's error: a validation error (any
// error that wraps no device sentinel), or the device sentinel it wraps.
func errorClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, errStopped):
		return "stopped"
	case errors.Is(err, ErrAddress):
		return "address"
	case errors.Is(err, ErrTiming):
		return "timing"
	case errors.Is(err, ErrState):
		return "state"
	}
	return "invalid"
}

// stopCheck returns the cancellation check of a segmented run that fails
// at its stopAt-th call.
func (rs runnerScript) stopCheck() func() error {
	checks := 0
	return func() error {
		if checks++; checks == rs.stopAt {
			return errStopped
		}
		return nil
	}
}

// runWithRunner runs the script's program on t, a view of d, through a
// fresh runner.
func runWithRunner(t bender.Target, d *Device, rs runnerScript, disableFast bool) runOutcome {
	r := bender.NewRunner(d.Config().Timing)
	r.DisableFastPath = disableFast
	var res *bender.Result
	var segs []bender.Segment
	var err error
	if rs.bounds != nil {
		res, segs, err = r.RunSegments(t, d.Geometry(), rs.prog, rs.bounds, rs.live, rs.stopCheck())
	} else {
		res, err = r.Run(t, d.Geometry(), rs.prog)
	}
	if err != nil {
		return runOutcome{err: err}
	}
	out := runOutcome{segs: slices.Clone(segs), elapsed: res.Elapsed}
	for _, col := range res.Reads {
		out.reads = append(out.reads, bytes.Clone(col))
	}
	return out
}

// errHalt is how checkedRun.exec reports an OpEnd.
var errHalt = errors.New("halt")

// checkedRun is the plain interpreter: the script's program, executed
// instruction by instruction through the public checked methods.
type checkedRun struct {
	d      *Device
	rs     runnerScript
	ends   []int // ends[i] is the OpEndLoop matching the OpLoop at i
	check  func() error
	k      int // the next segment bound
	reads  [][]byte
	segs   []bender.Segment
	readAt int   // the reads the open segment starts at
	nowAt  int64 // the time the open segment starts at
}

// runChecked validates the script's program as the runner does —
// ascending bounds, the program, no bound inside a loop — and then runs
// it on d through the public checked methods, unrolling loops and
// omitting the dead segments.
func runChecked(d *Device, rs runnerScript) runOutcome {
	instrs := rs.prog.Instrs
	for j, b := range rs.bounds {
		if b < 0 || b > len(instrs) || (j > 0 && b <= rs.bounds[j-1]) {
			return runOutcome{err: errors.New("segment bounds not ascending")}
		}
	}
	if err := (&bender.Program{Instrs: instrs, Data: rs.prog.Data}).Validate(d.Geometry()); err != nil {
		return runOutcome{err: err}
	}
	c := &checkedRun{d: d, rs: rs, ends: make([]int, len(instrs)), check: rs.stopCheck()}
	var open []int
	depth := make([]int, len(instrs)+1) // depth[i]: loops open before instruction i
	for i, in := range instrs {
		depth[i] = len(open)
		switch in.Op {
		case bender.OpLoop:
			open = append(open, i)
		case bender.OpEndLoop:
			c.ends[open[len(open)-1]] = i
			open = open[:len(open)-1]
		}
	}
	for _, b := range rs.bounds {
		if depth[b] > 0 {
			return runOutcome{err: fmt.Errorf("segment bound %d inside a loop", b)}
		}
	}
	start := d.Now()
	c.nowAt = start
	if err := c.exec(0, len(instrs), true); err != nil && err != errHalt {
		return runOutcome{err: err}
	}
	for c.k < len(rs.bounds) {
		c.mark()
	}
	return runOutcome{reads: c.reads, segs: c.segs, elapsed: d.Now() - start}
}

// mark closes the open segment.
func (c *checkedRun) mark() {
	c.segs = append(c.segs, bender.Segment{Reads: [2]int{c.readAt, len(c.reads)}, Elapsed: c.d.Now() - c.nowAt})
	c.readAt, c.nowAt = len(c.reads), c.d.Now()
	c.k++
}

// exec runs instrs[from:to] once; top marks the program's top level,
// where segment boundaries fall.
func (c *checkedRun) exec(from, to int, top bool) error {
	instrs := c.rs.prog.Instrs
	for ip := from; ip < to; ip++ {
		for top && c.k < len(c.rs.bounds) && ip >= c.rs.bounds[c.k] {
			c.mark()
			if err := c.check(); err != nil {
				return err
			}
		}
		if top && c.k < len(c.rs.bounds) && !c.rs.live[c.k] {
			ip = c.rs.bounds[c.k] - 1 // the loop's ip++ lands on the bound
			continue
		}
		in := instrs[ip]
		if in.Op == bender.OpLoop {
			for it := int64(0); it < in.Arg; it++ {
				if err := c.exec(ip+1, c.ends[ip], false); err != nil {
					return fmt.Errorf("loop iteration %d: %w", it, err)
				}
			}
			ip = c.ends[ip]
			continue
		}
		if err := c.step(in); err != nil {
			return err
		}
	}
	return nil
}

// step issues one instruction through the public checked methods.
func (c *checkedRun) step(in bender.Instr) error {
	d := c.d
	ba := addr.BankAddr{Channel: in.Ch, PseudoChannel: in.PC, Bank: in.Bank}
	switch in.Op {
	case bender.OpAct:
		return d.Activate(ba, in.Row)
	case bender.OpPre:
		return d.Precharge(ba)
	case bender.OpPreA:
		return d.PrechargeAll(in.Ch, in.PC)
	case bender.OpRd:
		buf := make([]byte, d.Geometry().ColumnBytes)
		if err := d.ReadInto(ba, in.Col, buf); err != nil {
			return err
		}
		c.reads = append(c.reads, buf)
		return nil
	case bender.OpWr:
		return d.Write(ba, in.Col, c.rs.prog.Data[in.Data])
	case bender.OpWrRow:
		return d.WriteRow(ba, c.rs.prog.Data[in.Data])
	case bender.OpRef:
		return d.Refresh(in.Ch, in.PC)
	case bender.OpMRS:
		return d.WriteModeRegister(in.Ch, in.Row, uint32(in.Arg))
	case bender.OpWait:
		return d.AdvanceTime(in.Arg)
	case bender.OpEndLoop:
		return nil
	case bender.OpEnd:
		return errHalt
	}
	return fmt.Errorf("cannot execute %s", in.Op)
}

// checkedCore is a view of a device whose resolved commands go back
// through the public checked methods, so a runner driving it makes the
// fast-path decisions a runner driving the device's unchecked core makes.
type checkedCore struct{ *Device }

func (c checkedCore) bank(flat int) addr.BankAddr { return addr.BankFromFlat(c.Geometry(), flat) }

func (c checkedCore) ActivateResolved(bank, row int, overwrite bool) error {
	if overwrite {
		return c.ActivateOverwrite(c.bank(bank), row)
	}
	return c.Activate(c.bank(bank), row)
}

func (c checkedCore) PrechargeResolved(bank int) error { return c.Precharge(c.bank(bank)) }

func (c checkedCore) ReadResolved(bank, col int, dst []byte) error {
	return c.ReadInto(c.bank(bank), col, dst)
}

func (c checkedCore) WriteResolved(bank, col int, data []byte) error {
	return c.Write(c.bank(bank), col, data)
}

func (c checkedCore) WriteRowResolved(bank int, data []byte) error {
	return c.WriteRow(c.bank(bank), data)
}

func (c checkedCore) HammerResolved(bank int, rows [2]int, nrows, n int, holdPS int64) error {
	if nrows == 2 {
		return c.HammerPairHold(c.bank(bank), rows[0], rows[1], n, holdPS)
	}
	return c.HammerSingleHold(c.bank(bank), rows[0], n, holdPS)
}

// compareOutcomes fails the test unless two runs of one script agree on
// their error class (and message, for a device error or a stop), reads,
// segments and elapsed time, and their devices on clock, counters and
// every row's state.
func compareOutcomes(t *testing.T, what string, x, y runOutcome, dx, dy *Device) {
	t.Helper()
	cx, cy := errorClass(x.err), errorClass(y.err)
	if cx != cy || (cx != "invalid" && fmt.Sprint(x.err) != fmt.Sprint(y.err)) {
		t.Fatalf("%s: errors diverge: %v (%s) vs %v (%s)", what, x.err, cx, y.err, cy)
	}
	if !reflect.DeepEqual(x.reads, y.reads) || !reflect.DeepEqual(x.segs, y.segs) || x.elapsed != y.elapsed {
		t.Fatalf("%s: reads, segments or elapsed diverge (elapsed %d vs %d, segments %v vs %v)",
			what, x.elapsed, y.elapsed, x.segs, y.segs)
	}
	if dx.Now() != dy.Now() {
		t.Fatalf("%s: clocks diverge: %d vs %d", what, dx.Now(), dy.Now())
	}
	if dx.Stats() != dy.Stats() {
		t.Fatalf("%s: stats diverge:\n%+v\n%+v", what, dx.Stats(), dy.Stats())
	}
	compareRows(t, dx, dy)
}

// runRunnerScript runs both differentials on one script and returns the
// outcome and the counters of the plain interpreter's run.
func runRunnerScript(t *testing.T, script []byte, live uint64) (runOutcome, Stats) {
	t.Helper()
	var devs [4]*Device
	var scripts [4]runnerScript
	for i := range devs {
		d, err := New(runnerConfig())
		if err != nil {
			t.Fatal(err)
		}
		devs[i], scripts[i] = d, decodeRunnerScript(d, script, live)
	}
	ref := runChecked(devs[0], scripts[0])
	slow := runWithRunner(devs[1], devs[1], scripts[1], true)
	compareOutcomes(t, "checked commands vs runner without fast paths", ref, slow, devs[0], devs[1])
	core := runWithRunner(devs[2], devs[2], scripts[2], false)
	view := runWithRunner(checkedCore{devs[3]}, devs[3], scripts[3], false)
	compareOutcomes(t, "unchecked core vs checked view with fast paths", core, view, devs[2], devs[3])
	return ref, devs[0].Stats()
}

// FuzzRunnerMatchesCheckedCommands is the differential fuzz target
// pinning the runner's unchecked device core to the public checked
// commands. `go test` exercises the seed corpus (testdata/fuzz holds
// more); `go test -fuzz=FuzzRunnerMatchesCheckedCommands ./internal/hbm`
// digs.
func FuzzRunnerMatchesCheckedCommands(f *testing.F) {
	const all = ^uint64(0)                                                                                        // every segment live
	f.Add([]byte{0, 12, 0, 3, 2, 8, 0, 0, 247, 14, 0, 3, 0}, all)                                                 // fill, idle, read-out
	f.Add([]byte{1, 7, 4, 0, 0, 12, 4, 9, 4, 9, 4, 8, 252, 13, 0, 0, 0, 14, 4, 9, 0, 9, 4, 8, 201}, all)          // segmented: ECC off, fill, bulk hammer, boundary, read-out, slow hammer
	f.Add([]byte{0, 0, 0, 3, 1, 2, 0, 1, 0, 3, 0, 1, 0, 1, 0, 0, 3}, all)                                         // act, mistimed read
	f.Add([]byte{0, 10, 0, 1, 0, 12, 1, 2, 2, 11, 0, 0, 0, 7, 0, 1, 0}, all)                                      // looped fill, ECC
	f.Add([]byte{0, 0, 0xF1, 3, 2, 14, 0, 0xF8, 0}, all)                                                          // bank and row out of range
	f.Add([]byte{0, 12, 0, 3, 2, 2, 0, 0xF9, 3, 3, 0, 0, 0xFE}, all)                                              // column out of range, short payload
	f.Add([]byte{0, 12, 0, 3, 1, 6, 0, 0, 6, 0, 0, 3, 0, 6, 0, 0, 6}, all)                                        // WRROW before tRCD
	f.Add([]byte{5, 12, 0, 3, 2, 13, 0, 0, 0, 12, 0, 4, 2, 13, 0, 0, 0, 8, 0, 0, 3}, all)                         // segmented, stopped at the second boundary
	f.Add([]byte{1, 10, 0, 0, 0, 13, 0, 0, 0xFF, 11, 0, 0, 0}, all)                                               // a bound inside a loop
	f.Add([]byte{0, 10, 0, 0, 0xFF, 11, 0, 0, 0, 15, 0, 0, 0, 11, 0, 0, 0xFF}, all)                               // zero count, end, stray endloop
	f.Add([]byte{0, 9, 6, 40, 120, 5, 6, 0, 4, 15, 0, 0, 0, 14, 6, 40, 0}, all)                                   // hammer, prea, end before the read-out
	f.Add([]byte{1, 7, 4, 0, 0, 12, 4, 9, 4, 9, 4, 8, 252, 13, 0, 0, 0, 14, 4, 9, 0, 9, 4, 8, 201}, uint64(0b10)) // segmented, the fill and bulk hammer skipped
	f.Add([]byte{5, 12, 0, 3, 2, 13, 0, 0, 0, 12, 0, 4, 2, 13, 0, 0, 0, 8, 0, 0, 3}, uint64(0b101))               // segmented, the middle segment skipped, stopped at the second boundary
	f.Fuzz(func(t *testing.T, script []byte, live uint64) {
		if len(script) > 65 {
			script = script[:65] // bound per-input work
		}
		runRunnerScript(t, script, live)
	})
}

// TestRunnerMatchesCheckedCommandsRandomScripts complements the fuzz
// corpus with a deterministic randomized sweep, and checks the sweep
// reaches every outcome class the differential distinguishes and senses
// bitflips (else it would prove little about the sense).
func TestRunnerMatchesCheckedCommandsRandomScripts(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential sweep")
	}
	s := rng.NewStream(0xC0_4E)
	classes := map[string]int{}
	var flips int64
	// Every other round draws only the well-formed block shapes (ECC
	// toggles, waits, hammer loops, fills and read-outs) on in-range
	// operands, so it runs long enough to hammer and sense flips; the
	// other rounds draw every byte at random.
	blocks := []byte{7, 8, 9, 12, 14}
	for round := 0; round < 96; round++ {
		script := make([]byte, 1+4*12)
		for i := range script {
			script[i] = byte(s.Next())
		}
		if round%2 == 1 {
			for i := 1; i+3 < len(script); i += 4 {
				script[i] = blocks[int(script[i])%len(blocks)]
				script[i+1] %= 0xF0
				script[i+2] %= 0xF8
				if script[i] != 8 {
					script[i+3] &^= 1 // legal timing
				}
			}
		}
		live := s.Next() // segments run where its bits are set
		t.Run(fmt.Sprintf("round%02d", round), func(t *testing.T) {
			out, stats := runRunnerScript(t, script, live)
			classes[errorClass(out.err)]++
			flips += stats.BitflipsCommitted
		})
	}
	for _, class := range []string{"none", "invalid", "timing", "state"} {
		if classes[class] == 0 {
			t.Errorf("no round ended with error class %q: %v", class, classes)
		}
	}
	if flips == 0 {
		t.Error("no round sensed a bitflip")
	}
	t.Logf("outcome classes %v, %d flips", classes, flips)
}
