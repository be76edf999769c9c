package bender

import (
	"fmt"
	"io"

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

// ReaderInto is the optional Target extension the interpreter prefers for
// column reads: the device copies into a runner-owned arena instead of
// allocating a fresh slice per read. *hbm.Device implements it.
type ReaderInto interface {
	ReadInto(b addr.BankAddr, col int, dst []byte) error
}

// Overwriter is the optional Target extension for overwrite blocks: an
// ACT whose row the program rewrites in full — a WRROW, then the bank's
// PRE, with nothing but waits in between — before anything can read it.
// ActivateOverwrite must do everything Activate does except latching the
// sense's bitflips, which the write erases unobserved.
// *hbm.Device implements it.
type Overwriter interface {
	ActivateOverwrite(b addr.BankAddr, row int) error
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
	// plain activations for overwrite blocks (see Overwriter). Both fast
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

	// The overwrite-block plan (see overwritePlan) of the program last
	// run with the fast path on, keyed by the program's identity and
	// validation generation and by the timing and column count the
	// decisions depend on.
	owProg   *Program
	owGen    uint64
	owTiming config.Timing
	owCols   int
	owPlan   []int32

	// Segmented-run state (see RunSegments); segBounds is nil during a
	// plain Run, which reduces the per-instruction overhead to one
	// length comparison.
	segBounds   []int
	segIdx      int
	segs        []Segment
	segCheck    func() error
	segLastRead int
	segLastNow  int64
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
// check, when non-nil, runs at every boundary except the last; a non-nil
// error aborts execution with that error (the batched equivalent of
// checking cancellation between probes). The Result and Segments are
// owned by the Runner and valid until the next Run/RunSegments.
func (r *Runner) RunSegments(t Target, g addr.Geometry, prog *Program, bounds []int,
	check func() error) (*Result, []Segment, error) {
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
// tree construction, no recursion, no allocation.
func (r *Runner) exec(t Target, g addr.Geometry, prog *Program) error {
	instrs := prog.Instrs
	jumps := prog.jumps
	ri, hasRI := t.(ReaderInto)
	fastOK := !r.DisableFastPath && r.Timing.TCK > 0
	ow, hasOW := t.(Overwriter)
	var owPlan []int32
	if fastOK && hasOW {
		owPlan = r.overwritePlan(prog, g.Columns)
	}
	ip := 0
	for ip < len(instrs) {
		for r.segIdx < len(r.segBounds) && ip >= r.segBounds[r.segIdx] {
			r.markSegment(t)
			if r.segCheck != nil {
				if err := r.segCheck(); err != nil {
					return err
				}
			}
		}
		in := &instrs[ip]
		switch in.Op {
		case OpLoop:
			end := int(jumps[ip])
			if fastOK {
				if h, ok := matchHammerLoop(instrs[ip+1 : end]); ok && h.uniform {
					h.tck = r.Timing.TCK
					if r.fastPathLegal(h) {
						if err := r.runHammerFast(t, h, in.Arg); err != nil {
							return r.wrapLoopErr(err)
						}
						ip = end + 1
						continue
					}
				}
			}
			r.frames = append(r.frames, loopFrame{body: ip + 1, total: in.Arg, left: in.Arg})
			ip++
		case OpEndLoop:
			f := &r.frames[len(r.frames)-1]
			f.left--
			if f.left > 0 {
				ip = f.body
			} else {
				r.frames = r.frames[:len(r.frames)-1]
				ip++
			}
		case OpWait:
			if r.Trace != nil {
				r.traceInstr(t, in)
			}
			if err := t.AdvanceTime(in.Arg); err != nil {
				return r.wrapLoopErr(err)
			}
			ip++
		case OpAct:
			var err error
			// An overwrite block stays one only if no segment boundary (a
			// cancellation check) falls between its ACT and its PRE.
			if owPlan != nil && owPlan[ip] >= 0 &&
				!(r.segIdx < len(r.segBounds) && r.segBounds[r.segIdx] <= int(owPlan[ip])) {
				if r.Trace != nil {
					r.traceInstr(t, in)
				}
				err = ow.ActivateOverwrite(addr.BankAddr{Channel: in.Ch, PseudoChannel: in.PC, Bank: in.Bank}, in.Row)
			} else {
				err = r.execInstr(t, prog, in)
			}
			if err != nil {
				return r.wrapLoopErr(err)
			}
			ip++
		case OpEnd:
			// Execution halts; trailing instructions (if any) are ignored,
			// matching the original recursive interpreter's semantics.
			return nil
		case OpRd:
			ba := addr.BankAddr{Channel: in.Ch, PseudoChannel: in.PC, Bank: in.Bank}
			if r.Trace != nil {
				r.traceInstr(t, in)
			}
			var data []byte
			var err error
			if hasRI {
				data = r.arenaAlloc(g.ColumnBytes)
				err = ri.ReadInto(ba, in.Col, data)
			} else {
				data, err = t.Read(ba, in.Col)
			}
			if err != nil {
				return r.wrapLoopErr(err)
			}
			r.res.Reads = append(r.res.Reads, data)
			ip++
		default:
			if err := r.execInstr(t, prog, in); err != nil {
				return r.wrapLoopErr(err)
			}
			ip++
		}
	}
	return nil
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

// overwritePlan returns, for every instruction of prog, the index of the
// closing OpPre when the instruction is an OpAct opening an overwrite
// block (see overwriteEnd), and -1 otherwise. The plan depends only on
// the instruction stream, the timing and the column count, so it is
// built once per validated program and reused by every re-run, including
// runs after SetLoopCount; the segment-boundary condition is checked at
// run time by exec.
func (r *Runner) overwritePlan(prog *Program, columns int) []int32 {
	if r.owProg == prog && r.owGen == prog.gen && r.owTiming == r.Timing && r.owCols == columns {
		return r.owPlan
	}
	if cap(r.owPlan) < len(prog.Instrs) {
		r.owPlan = make([]int32, len(prog.Instrs))
	}
	r.owPlan = r.owPlan[:len(prog.Instrs)]
	for i := range prog.Instrs {
		r.owPlan[i] = -1
		if prog.Instrs[i].Op == OpAct {
			r.owPlan[i] = int32(r.overwriteEnd(prog.Instrs, i, columns))
		}
	}
	r.owProg, r.owGen, r.owTiming, r.owCols = prog, prog.gen, r.Timing, columns
	return r.owPlan
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

func (r *Runner) execInstr(t Target, prog *Program, in *Instr) error {
	ba := addr.BankAddr{Channel: in.Ch, PseudoChannel: in.PC, Bank: in.Bank}
	if r.Trace != nil {
		r.traceInstr(t, in)
	}
	switch in.Op {
	case OpAct:
		return t.Activate(ba, in.Row)
	case OpPre:
		return t.Precharge(ba)
	case OpPreA:
		return t.PrechargeAll(in.Ch, in.PC)
	case OpWr:
		return t.Write(ba, in.Col, prog.Data[in.Data])
	case OpWrRow:
		return t.WriteRow(ba, prog.Data[in.Data])
	case OpRef:
		return t.Refresh(in.Ch, in.PC)
	case OpMRS:
		return t.WriteModeRegister(in.Ch, in.Row, uint32(in.Arg))
	default:
		return fmt.Errorf("bender: cannot execute %s", in.Op)
	}
}

// hammerShape describes a recognized pure hammer loop.
type hammerShape struct {
	bank  addr.BankAddr
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
		ba := addr.BankAddr{Channel: g[0].Ch, PseudoChannel: g[0].PC, Bank: g[0].Bank}
		pb := addr.BankAddr{Channel: g[2].Ch, PseudoChannel: g[2].PC, Bank: g[2].Bank}
		if ba != pb {
			return h, false
		}
		if gi == 0 {
			h.bank = ba
			h.minActHold = g[1].Arg
			h.minPreGap = g[3].Arg
			h.uniform = true
		} else if ba != h.bank {
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

// runHammerFast applies a recognized hammer loop in bulk, then pads the
// clock so the total elapsed time matches per-iteration execution
// exactly. fastPathLegal already proved the pad is non-negative.
func (r *Runner) runHammerFast(t Target, h hammerShape, count int64) error {
	n := int(count)
	hold := h.hold()
	if r.Trace != nil { // guard so the variadic args are not boxed per call
		if h.nrows == 2 {
			r.trace(t, "loop %dx: double-sided hammer %v rows %d/%d (hold %d ps, bulk)",
				count, h.bank, h.rows[0], h.rows[1], hold)
		} else {
			r.trace(t, "loop %dx: single-sided hammer %v row %d (hold %d ps, bulk)",
				count, h.bank, h.rows[0], hold)
		}
	}
	var err error
	if h.nrows == 2 {
		err = t.HammerPairHold(h.bank, h.rows[0], h.rows[1], n, hold)
	} else {
		err = t.HammerSingleHold(h.bank, h.rows[0], n, hold)
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
