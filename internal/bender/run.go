package bender

import (
	"fmt"
	"io"
	"math"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
)

// Target is the device-side interface the interpreter drives. It is the
// command-level surface of the simulated HBM2 stack; *hbm.Device
// implements it.
type Target interface {
	Activate(b addr.BankAddr, row int) error
	Precharge(b addr.BankAddr) error
	PrechargeAll(ch, pc int) error
	Read(b addr.BankAddr, col int) ([]byte, error)
	Write(b addr.BankAddr, col int, data []byte) error
	// WriteRow writes data to every column of the open row: the state,
	// counters and clock that Columns back-to-back Writes of it leave.
	WriteRow(b addr.BankAddr, data []byte) error
	Refresh(ch, pc int) error
	WriteModeRegister(ch, index int, value uint32) error
	AdvanceTime(ps int64) error
	HammerPairHold(b addr.BankAddr, rowA, rowB, n int, holdPS int64) error
	HammerSingleHold(b addr.BankAddr, row, n int, holdPS int64) error
	Now() int64
}

// ResolvedTarget is the optional Target extension the interpreter
// executes validated programs through: the device's unchecked core. Each
// method is a bank command of Target taking the bank as the BankAddr.Flat
// index Program.Validate resolved, and skipping the address proof the
// checked method makes; every timing and bank-state check, and its
// error, stays. The interpreter uses it only when Geometry equals the
// geometry the program was validated against. *hbm.Device implements it.
type ResolvedTarget interface {
	Geometry() addr.Geometry
	// ActivateResolved is Activate. With overwrite it opens an overwrite
	// block — an ACT whose row the program rewrites in full (a WRROW,
	// then the bank's PRE, with nothing but waits in between) before
	// anything can read it — and must do everything Activate does except
	// latching the sense's bitflips, which the write erases unobserved.
	ActivateResolved(bank, row int, overwrite bool) error
	PrechargeResolved(bank int) error
	// ReadResolved reads a column into dst, a runner-owned arena slice,
	// instead of allocating a fresh slice per read.
	ReadResolved(bank, col int, dst []byte) error
	WriteResolved(bank, col int, data []byte) error
	WriteRowResolved(bank int, data []byte) error
	// HammerResolved is HammerSingleHold (nrows 1) or HammerPairHold
	// (nrows 2) of rows[:nrows].
	HammerResolved(bank int, rows [2]int, nrows, n int, holdPS int64) error
}

// Result carries a program's outputs.
type Result struct {
	// Reads holds the data of every OpRd in program order (the read FIFO).
	Reads [][]byte
	// Elapsed is the simulated time the program occupied, in picoseconds.
	Elapsed int64
}

// Segment is one slice of a segmented run (see RunSegments): the
// half-open range of Result.Reads it produced and the simulated time it
// occupied. Because every device command advances the clock
// deterministically, a segment's Elapsed equals what the same
// instructions would have measured as a standalone program.
type Segment struct {
	// Reads is the [start, end) index range into Result.Reads.
	Reads [2]int
	// Elapsed is the segment's simulated duration in picoseconds.
	Elapsed int64
}

// Runner executes programs against a Target. A Runner owns reusable
// execution state (the result, the read arena, the loop bookkeeping), so
// steady-state program execution allocates nothing: the Result returned
// by Run — including every Reads entry — is valid only until the next Run
// on the same Runner.
type Runner struct {
	// Timing lets the loop fast path prove a hammer loop is
	// timing-legal and reproduce its exact simulated duration. With a
	// zero Timing the fast path is disabled.
	Timing config.Timing
	// DisableFastPath forces per-iteration execution of all loops and
	// plain activations for overwrite blocks (see ResolvedTarget). Both fast
	// paths are semantically equivalent (asserted by tests, differential
	// fuzzing and an ablation benchmark); disabling them exists for those
	// comparisons.
	DisableFastPath bool
	// Trace, when non-nil, receives one line per executed command (and
	// one summary line per bulk-applied hammer loop), timestamped with
	// the simulated clock — the command log a logic analyzer on the
	// DRAM bus would capture.
	Trace io.Writer

	// Reusable execution scratch (see the type comment).
	res     Result
	readBuf []byte
	frames  []loopFrame

	// Segmented-run state (see RunSegments); segBounds is nil during a
	// plain Run.
	segBounds   []int
	segLive     []bool
	segIdx      int
	segs        []Segment
	segCheck    func() error
	segLastRead int
	segLastNow  int64
}

// plan is a program's fast-path plan: every decision that depends only
// on the instruction stream, the timing and the column count, made once
// per validated program and reused by every re-run, including runs after
// SetLoopCount, which changes none of them (a loop count is no part of a
// hammer shape, and an overwrite block holds no loop). The program holds
// it (Program.plan), keyed by the program's identity (a copied Program
// shares the pointer, not the plan's validity) and validation
// generation and by the runner's timing and the column count.
type plan struct {
	prog   *Program
	gen    uint64
	timing config.Timing
	cols   int
	// at[i] is, for an OpAct opening an overwrite block (see
	// overwriteEnd), the index of the block's closing OpPre; for an
	// OpLoop the bulk hammer path applies to (see matchHammerLoop and
	// fastPathLegal), the index of its shape in hammers; and -1
	// otherwise. Whether a segment boundary splits an overwrite block is
	// checked at run time by exec.
	at      []int32
	hammers []hammerShape
}

// loopFrame tracks one active loop: where its body starts, its total
// iteration count, and how many iterations remain.
type loopFrame struct {
	body  int
	total int64
	left  int64
}

func (r *Runner) trace(t Target, format string, args ...any) {
	if r.Trace == nil {
		return
	}
	fmt.Fprintf(r.Trace, "[%14d ps] %s\n", t.Now(), fmt.Sprintf(format, args...))
}

// NewRunner returns a Runner with the loop fast path armed for the given
// timing parameters.
func NewRunner(t config.Timing) *Runner { return &Runner{Timing: t} }

// Run validates and executes prog against t. The returned Result and its
// Reads slices are owned by the Runner and valid until the next Run.
func (r *Runner) Run(t Target, g addr.Geometry, prog *Program) (*Result, error) {
	if err := prog.Validate(g); err != nil {
		return nil, err
	}
	r.res.Reads = r.res.Reads[:0]
	r.res.Elapsed = 0
	r.readBuf = r.readBuf[:0]
	r.frames = r.frames[:0]
	start := t.Now()
	if err := r.exec(t, g, prog); err != nil {
		return nil, err
	}
	r.res.Elapsed = t.Now() - start
	return &r.res, nil
}

// RunSegments is Run with intra-program boundaries: bounds[j] is the
// instruction index (strictly ascending, at top level — not inside a
// loop body, which is rejected) at which segment j ends, and the
// returned Segments record each segment's read range and simulated
// duration. This is the batched probe primitive: concatenating k probe
// programs and running them with k boundaries pays validation, jump
// building, and dispatch setup once while still attributing reads and
// elapsed time per probe.
//
// live, as long as bounds, says which segments run: a dead segment is
// skipped without issuing a command, and its Segment records no reads
// and no time, so a run equals one of the program with the dead
// segments left out. Instructions after the last bound always run.
//
// check, when non-nil, runs at every boundary except the last; a non-nil
// error aborts execution with that error (the batched equivalent of
// checking cancellation between probes). The Result and Segments are
// owned by the Runner and valid until the next Run/RunSegments.
func (r *Runner) RunSegments(t Target, g addr.Geometry, prog *Program, bounds []int, live []bool,
	check func() error) (*Result, []Segment, error) {
	if len(live) != len(bounds) {
		return nil, nil, fmt.Errorf("bender: %d live flags for %d segments", len(live), len(bounds))
	}
	for j, b := range bounds {
		if b < 0 || b > len(prog.Instrs) || (j > 0 && b <= bounds[j-1]) {
			return nil, nil, fmt.Errorf("bender: segment bounds not ascending within program")
		}
	}
	if err := prog.Validate(g); err != nil {
		return nil, nil, err
	}
	// A bound b is inside a loop when some top-level loop L..E has
	// L < b <= E. Both lists ascend, so one merge checks them all.
	k := 0
	for _, b := range bounds {
		for k < len(prog.loops) && int(prog.jumps[prog.loops[k]]) < b {
			k++
		}
		if k < len(prog.loops) && int(prog.loops[k]) < b {
			return nil, nil, fmt.Errorf("bender: segment bound %d inside the loop at instr %d", b, prog.loops[k])
		}
	}
	r.res.Reads = r.res.Reads[:0]
	r.res.Elapsed = 0
	r.readBuf = r.readBuf[:0]
	r.frames = r.frames[:0]
	r.segBounds = bounds
	r.segLive = live
	r.segIdx = 0
	r.segs = r.segs[:0]
	r.segCheck = check
	r.segLastRead = 0
	start := t.Now()
	r.segLastNow = start
	err := r.exec(t, g, prog)
	if err == nil {
		// Close any boundaries at or past the final instruction (the
		// last bound is typically len(Instrs)). No check between them:
		// all work is already done.
		for r.segIdx < len(r.segBounds) {
			r.markSegment(t)
		}
		r.res.Elapsed = t.Now() - start
	}
	r.segBounds = nil
	r.segLive = nil
	r.segCheck = nil
	if err != nil {
		return nil, nil, err
	}
	return &r.res, r.segs, nil
}

// markSegment closes the current segment at the simulated present.
func (r *Runner) markSegment(t Target) {
	now := t.Now()
	r.segs = append(r.segs, Segment{
		Reads:   [2]int{r.segLastRead, len(r.res.Reads)},
		Elapsed: now - r.segLastNow,
	})
	r.segLastRead = len(r.res.Reads)
	r.segLastNow = now
	r.segIdx++
}

// wrapLoopErr decorates an execution error with the iteration number of
// every enclosing loop, innermost first, matching the recursive
// interpreter's historical error format.
func (r *Runner) wrapLoopErr(err error) error {
	for i := len(r.frames) - 1; i >= 0; i-- {
		f := r.frames[i]
		err = fmt.Errorf("loop iteration %d: %w", f.total-f.left, err)
	}
	return err
}

// exec runs the whole program with an explicit loop stack — no per-run
// tree construction, no recursion, no allocation. Bank commands go to the
// device's unchecked core when it has one (see ResolvedTarget), with the
// banks validation resolved.
func (r *Runner) exec(t Target, g addr.Geometry, prog *Program) error {
	instrs, jumps, banks := prog.Instrs, prog.jumps, prog.banks
	rt, _ := t.(ResolvedTarget)
	if rt != nil && rt.Geometry() != g {
		rt = nil
	}
	var pl *plan
	if !r.DisableFastPath && r.Timing.TCK > 0 {
		pl = r.planFor(prog, g.Columns)
	}
	// bound is the next segment boundary; exec runs straight to it, or
	// jumps to it when the segment is dead.
	bound := r.nextBound()
	ip := 0
	if r.deadSegment() {
		ip = bound
	}
	for ip < len(instrs) {
		if ip >= bound {
			for r.segIdx < len(r.segBounds) && ip >= r.segBounds[r.segIdx] {
				r.markSegment(t)
				if r.segCheck != nil {
					if err := r.segCheck(); err != nil {
						return err
					}
				}
			}
			bound = r.nextBound()
			if r.deadSegment() {
				ip = bound
				continue
			}
		}
		in := &instrs[ip]
		switch in.Op {
		case OpLoop:
			if pl != nil && pl.at[ip] >= 0 {
				if err := r.runHammerFast(t, rt, &pl.hammers[pl.at[ip]], in.Arg); err != nil {
					return r.wrapLoopErr(err)
				}
				ip = int(jumps[ip]) + 1
				continue
			}
			r.frames = append(r.frames, loopFrame{body: ip + 1, total: in.Arg, left: in.Arg})
			ip++
			continue
		case OpEndLoop:
			f := &r.frames[len(r.frames)-1]
			f.left--
			if f.left > 0 {
				ip = f.body
			} else {
				r.frames = r.frames[:len(r.frames)-1]
				ip++
			}
			continue
		case OpEnd:
			// Execution halts; trailing instructions (if any) are ignored,
			// matching the original recursive interpreter's semantics.
			return nil
		}
		if r.Trace != nil {
			r.traceInstr(t, in)
		}
		var err error
		switch in.Op {
		case OpWait:
			err = t.AdvanceTime(in.Arg)
		case OpAct:
			if rt != nil {
				// An overwrite block stays one only if no segment boundary
				// (a cancellation check) falls between its ACT and its PRE.
				overwrite := pl != nil && pl.at[ip] >= 0 && int(pl.at[ip]) < bound
				err = rt.ActivateResolved(int(banks[ip]), in.Row, overwrite)
			} else {
				err = t.Activate(bankOf(in), in.Row)
			}
		case OpPre:
			if rt != nil {
				err = rt.PrechargeResolved(int(banks[ip]))
			} else {
				err = t.Precharge(bankOf(in))
			}
		case OpRd:
			var data []byte
			if rt != nil {
				data = r.arenaAlloc(g.ColumnBytes)
				err = rt.ReadResolved(int(banks[ip]), in.Col, data)
			} else {
				data, err = t.Read(bankOf(in), in.Col)
			}
			if err == nil {
				r.res.Reads = append(r.res.Reads, data)
			}
		case OpWr:
			if rt != nil {
				err = rt.WriteResolved(int(banks[ip]), in.Col, prog.Data[in.Data])
			} else {
				err = t.Write(bankOf(in), in.Col, prog.Data[in.Data])
			}
		case OpWrRow:
			if rt != nil {
				err = rt.WriteRowResolved(int(banks[ip]), prog.Data[in.Data])
			} else {
				err = t.WriteRow(bankOf(in), prog.Data[in.Data])
			}
		case OpPreA:
			err = t.PrechargeAll(in.Ch, in.PC)
		case OpRef:
			err = t.Refresh(in.Ch, in.PC)
		case OpMRS:
			err = t.WriteModeRegister(in.Ch, in.Row, uint32(in.Arg))
		default:
			err = fmt.Errorf("bender: cannot execute %s", in.Op)
		}
		if err != nil {
			return r.wrapLoopErr(err)
		}
		ip++
	}
	return nil
}

// nextBound returns the next segment boundary of a segmented run, or
// math.MaxInt when none is left (always, in a plain Run).
func (r *Runner) nextBound() int {
	if r.segIdx < len(r.segBounds) {
		return r.segBounds[r.segIdx]
	}
	return math.MaxInt
}

// deadSegment reports whether the segment a segmented run is in is one
// its live mask skips.
func (r *Runner) deadSegment() bool {
	return r.segIdx < len(r.segLive) && !r.segLive[r.segIdx]
}

// arenaAlloc carves n bytes out of the runner's read arena. When a block
// fills up, a larger one is started; slices handed out earlier keep their
// old backing block alive, so they stay valid until the next Run.
func (r *Runner) arenaAlloc(n int) []byte {
	if len(r.readBuf)+n > cap(r.readBuf) {
		blockSize := 2 * (len(r.readBuf) + n)
		if blockSize < 4096 {
			blockSize = 4096
		}
		r.readBuf = make([]byte, 0, blockSize)
	}
	off := len(r.readBuf)
	r.readBuf = r.readBuf[:off+n]
	return r.readBuf[off : off+n : off+n]
}

// planFor returns prog's fast-path plan (see plan), building it on the
// program's first run with this timing and column count.
func (r *Runner) planFor(prog *Program, columns int) *plan {
	if prog.plan == nil {
		prog.plan = new(plan)
	}
	pl := prog.plan
	if pl.prog == prog && pl.gen == prog.gen && pl.timing == r.Timing && pl.cols == columns {
		return pl
	}
	if cap(pl.at) < len(prog.Instrs) {
		pl.at = make([]int32, len(prog.Instrs))
	}
	pl.at = pl.at[:len(prog.Instrs)]
	pl.hammers = pl.hammers[:0]
	for i := range prog.Instrs {
		pl.at[i] = -1
		switch prog.Instrs[i].Op {
		case OpAct:
			pl.at[i] = int32(r.overwriteEnd(prog.Instrs, i, columns))
		case OpLoop:
			h, ok := matchHammerLoop(prog.Instrs[i+1 : prog.jumps[i]])
			if !ok || !h.uniform {
				continue
			}
			h.tck = r.Timing.TCK
			h.bank = int(prog.banks[i+1])
			if r.fastPathLegal(h) {
				pl.at[i] = int32(len(pl.hammers))
				pl.hammers = append(pl.hammers, h)
			}
		}
	}
	pl.prog, pl.gen, pl.timing, pl.cols = prog, prog.gen, r.Timing, columns
	return pl
}

// overwriteEnd returns the index of the closing OpPre when the OpAct at
// instrs[act] opens an overwrite block, and -1 otherwise: it is followed
// only by OpWaits and same-bank OpWrRows (each covering the whole row),
// with at least one OpWrRow, then closed by the bank's OpPre. The block
// must also be unable to stop part way, or the unsensed row could be
// observed before it is fully rewritten: every WRROW must be at least
// tRCD after the ACT and the PRE at least tRAS after it (the device would
// reject them otherwise), and no RunSegments boundary — a cancellation
// check — may fall inside it (exec checks that one per run). Validation
// already guaranteed operand ranges and payload sizes, so nothing else in
// the block can fail. Per-column OpWrs end the block: a row rewritten
// column by column is sensed in full, which is correct, just not elided.
func (r *Runner) overwriteEnd(instrs []Instr, act, columns int) int {
	a := &instrs[act]
	tm := r.Timing
	covered := false
	// since is the simulated time from the ACT to the next command,
	// saturated once it satisfies every constraint checked here.
	limit := max(tm.TRCD, tm.TRAS)
	since := tm.TCK
	advance := func(ps int64) {
		if ps >= limit-since {
			since = limit
		} else {
			since += ps
		}
	}
	for i := act + 1; i < len(instrs); i++ {
		in := &instrs[i]
		switch in.Op {
		case OpWait:
			advance(in.Arg)
		case OpWrRow:
			if in.Ch != a.Ch || in.PC != a.PC || in.Bank != a.Bank || since < tm.TRCD {
				return -1
			}
			covered = true
			advance(int64(columns) * tm.TCK)
		case OpPre:
			if in.Ch == a.Ch && in.PC == a.PC && in.Bank == a.Bank && covered && since >= tm.TRAS {
				return i
			}
			return -1
		default:
			return -1
		}
	}
	return -1
}

// fastPathLegal checks that the loop body satisfies tRAS and tRP on its
// own, so bulk application cannot mask a timing bug, and that the bulk
// path's hold-derived activation period never exceeds the body's actual
// per-iteration time (the pad must be non-negative).
func (r *Runner) fastPathLegal(h hammerShape) bool {
	tm := r.Timing
	if h.minActHold < tm.TRAS-tm.TCK || h.minPreGap < tm.TRP-tm.TCK {
		return false
	}
	slowPer := h.perIterWaits + int64(h.nrows)*2*tm.TCK
	return slowPer >= int64(h.nrows)*(h.hold()+tm.TRP)
}

// hold returns the per-activation open time the bulk path should model:
// the wait between ACT and PRE plus the ACT command cycle itself.
func (h hammerShape) hold() int64 { return h.minActHold + h.tck }

// hammerShape describes a recognized pure hammer loop.
type hammerShape struct {
	addr  addr.BankAddr
	bank  int    // addr's BankAddr.Flat index
	rows  [2]int // 1 (single-sided) or 2 (double-sided) aggressors
	nrows int
	// perIterWaits is the sum of explicit waits in one iteration.
	perIterWaits int64
	// minActHold is the smallest wait between an ACT and its PRE;
	// minPreGap the smallest wait after a PRE. RowPress amplification
	// depends on the hold time, so all ACT holds in the body must agree
	// for the bulk path to apply (uniform is true then).
	minActHold int64
	minPreGap  int64
	uniform    bool
	tck        int64
}

// matchHammerLoop recognizes the canonical hammer body the paper's tests
// use: per aggressor, ACT row / WAIT / PRE / WAIT, all on one bank, with
// one or two distinct rows. Anything else falls back to per-iteration
// execution.
func matchHammerLoop(body []Instr) (hammerShape, bool) {
	var h hammerShape
	if len(body)%4 != 0 || len(body) == 0 || len(body) > 8 {
		return h, false
	}
	groups := len(body) / 4
	for gi := 0; gi < groups; gi++ {
		g := body[gi*4 : gi*4+4]
		if g[0].Op != OpAct || g[1].Op != OpWait || g[2].Op != OpPre || g[3].Op != OpWait {
			return h, false
		}
		ba := bankOf(&g[0])
		if bankOf(&g[2]) != ba {
			return h, false
		}
		if gi == 0 {
			h.addr = ba
			h.minActHold = g[1].Arg
			h.minPreGap = g[3].Arg
			h.uniform = true
		} else if ba != h.addr {
			return h, false
		}
		if g[1].Arg != h.minActHold {
			h.uniform = false
		}
		if g[1].Arg < h.minActHold {
			h.minActHold = g[1].Arg
		}
		if g[3].Arg < h.minPreGap {
			h.minPreGap = g[3].Arg
		}
		h.rows[h.nrows] = g[0].Row
		h.nrows++
		h.perIterWaits += g[1].Arg + g[3].Arg
	}
	switch h.nrows {
	case 1:
	case 2:
		if h.rows[0] == h.rows[1] {
			return h, false
		}
	default:
		return h, false
	}
	return h, true
}

// traceInstr renders one instruction for the trace log.
func (r *Runner) traceInstr(t Target, in *Instr) {
	switch in.Op {
	case OpAct:
		r.trace(t, "act  ch%d.pc%d.ba%d row %d", in.Ch, in.PC, in.Bank, in.Row)
	case OpPre:
		r.trace(t, "pre  ch%d.pc%d.ba%d", in.Ch, in.PC, in.Bank)
	case OpPreA:
		r.trace(t, "prea ch%d.pc%d", in.Ch, in.PC)
	case OpRd:
		r.trace(t, "rd   ch%d.pc%d.ba%d col %d", in.Ch, in.PC, in.Bank, in.Col)
	case OpWr:
		r.trace(t, "wr   ch%d.pc%d.ba%d col %d (payload %d)", in.Ch, in.PC, in.Bank, in.Col, in.Data)
	case OpWrRow:
		r.trace(t, "wrrow ch%d.pc%d.ba%d (payload %d)", in.Ch, in.PC, in.Bank, in.Data)
	case OpRef:
		r.trace(t, "ref  ch%d.pc%d", in.Ch, in.PC)
	case OpMRS:
		r.trace(t, "mrs  ch%d MR%d = %#x", in.Ch, in.Row, uint32(in.Arg))
	case OpWait:
		r.trace(t, "wait %d ps", in.Arg)
	}
}

// runHammerFast applies a recognized hammer loop in bulk, on the
// device's unchecked core when rt is non-nil, then pads the clock so the
// total elapsed time matches per-iteration execution exactly.
// fastPathLegal already proved the pad is non-negative.
func (r *Runner) runHammerFast(t Target, rt ResolvedTarget, h *hammerShape, count int64) error {
	n := int(count)
	hold := h.hold()
	if r.Trace != nil { // guard so the variadic args are not boxed per call
		if h.nrows == 2 {
			r.trace(t, "loop %dx: double-sided hammer %v rows %d/%d (hold %d ps, bulk)",
				count, h.addr, h.rows[0], h.rows[1], hold)
		} else {
			r.trace(t, "loop %dx: single-sided hammer %v row %d (hold %d ps, bulk)",
				count, h.addr, h.rows[0], hold)
		}
	}
	var err error
	switch {
	case rt != nil:
		err = rt.HammerResolved(h.bank, h.rows, h.nrows, n, hold)
	case h.nrows == 2:
		err = t.HammerPairHold(h.addr, h.rows[0], h.rows[1], n, hold)
	default:
		err = t.HammerSingleHold(h.addr, h.rows[0], n, hold)
	}
	if err != nil {
		return err
	}
	tm := r.Timing
	slowPer := h.perIterWaits + int64(h.nrows)*2*tm.TCK
	bulkPer := int64(h.nrows) * (hold + tm.TRP)
	if pad := count * (slowPer - bulkPer); pad > 0 {
		return t.AdvanceTime(pad)
	}
	return nil
}
