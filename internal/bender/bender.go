// Package bender is the simulator's stand-in for the DRAM Bender FPGA
// testing infrastructure the paper uses: a small instruction set for DRAM
// command sequences, a program builder that inserts the waits the timing
// rules require, a text assembler/disassembler, and an interpreter that
// executes programs against the simulated HBM2 device at 1.66 ns command
// clock resolution.
//
// Like the real infrastructure, programs express tight activation loops
// with a LOOP instruction; the interpreter recognizes pure ACT/PRE hammer
// loops and applies them in bulk so hammering 256K times costs O(1)
// simulation work per loop instead of O(n). A row fill is one WRROW, which
// writes a payload to every column of the open row, rather than one WR per
// column; the interpreter activates a row that a WRROW rewrites in full
// before any read without computing the sense's bitflips, which the write
// would erase unseen (see run.go). Validation proves every operand in
// range once per program and resolves each bank command's bank to its
// flat index, which is how the interpreter addresses the device (see
// Target).
package bender

import (
	"fmt"
	"math"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
)

// Op enumerates the instruction set.
type Op uint8

// Instruction opcodes.
const (
	OpAct     Op = iota + 1 // activate a row: ch pc bank row
	OpPre                   // precharge a bank: ch pc bank
	OpPreA                  // precharge all banks in a pseudo channel: ch pc
	OpRd                    // read a column into the result FIFO: ch pc bank col
	OpWr                    // write a column from the data table: ch pc bank col data
	OpWrRow                 // write one data-table payload to every column of the open row: ch pc bank data
	OpRef                   // periodic refresh: ch pc
	OpMRS                   // mode register set: ch reg value
	OpWait                  // advance time by Arg picoseconds
	OpLoop                  // repeat the block until the matching OpEndLoop Arg times
	OpEndLoop               // close the innermost OpLoop block
	OpEnd                   // stop execution
)

// String returns the assembly mnemonic.
func (o Op) String() string {
	switch o {
	case OpAct:
		return "act"
	case OpPre:
		return "pre"
	case OpPreA:
		return "prea"
	case OpRd:
		return "rd"
	case OpWr:
		return "wr"
	case OpWrRow:
		return "wrrow"
	case OpRef:
		return "ref"
	case OpMRS:
		return "mrs"
	case OpWait:
		return "wait"
	case OpLoop:
		return "loop"
	case OpEndLoop:
		return "endloop"
	case OpEnd:
		return "end"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Instr is one instruction. Field use depends on Op:
//
//	OpAct:   Ch, PC, Bank, Row
//	OpPre:   Ch, PC, Bank
//	OpPreA:  Ch, PC
//	OpRd:    Ch, PC, Bank, Col
//	OpWr:    Ch, PC, Bank, Col, Data (index into Program.Data)
//	OpWrRow: Ch, PC, Bank, Data (index into Program.Data)
//	OpRef:   Ch, PC
//	OpMRS:   Ch, Row (register index), Arg (value, 0..2^32-1)
//	OpWait:  Arg (picoseconds)
//	OpLoop:  Arg (iteration count)
type Instr struct {
	Op           Op
	Ch, PC, Bank int
	Row, Col     int
	Arg          int64
	Data         int
}

// Program is an executable command sequence plus its write-data table.
//
// Validation (Validate, or a Runner's run, which validates first against
// the target's geometry) proves every operand in range and resolves each
// bank command's bank to its BankAddr.Flat index once; the runner then
// addresses the device with that table (see Target). After validation,
// SetLoopCount is the one supported change to a program: any other change
// to Instrs or Data is outside the API contract, and the runner would
// execute the resolved banks and the validated operands it no longer
// matches.
type Program struct {
	Instrs []Instr
	// Data holds write payloads referenced by OpWr and OpWrRow
	// instructions. Each entry must be exactly one column long.
	Data [][]byte

	// validFor caches the geometry the program last validated against, so
	// re-running the same program (the harness's steady state) skips the
	// per-instruction walk.
	validFor addr.Geometry
	valid    bool
	// jumps[i] is, for every OpLoop at index i, the index of its matching
	// OpEndLoop; loops lists the top-level OpLoop indexes in order;
	// banks[i] is, for every bank command (OpAct, OpPre, OpRd, OpWr,
	// OpWrRow) at index i, the BankAddr.Flat index of its bank under
	// validFor. All three are built by the validation walk, so a re-run
	// builds none of them.
	jumps []int32
	loops []int32
	banks []int32
	// gen identifies one validated instruction stream: it changes on every
	// validation walk, so a plan (see Runner.planFor) can tell a reused
	// *Program with new contents from the one it was made for.
	gen uint64
	// plan is the fast-path plan a runner made for this program, kept with
	// the program so a caller alternating between several programs plans
	// each once (see Runner.planFor).
	plan *plan
}

// SetLoopCount sets the iteration count of the OpLoop at instruction i to
// n. A loop count is the one operand whose change keeps a validated
// program valid, so the cached validation, jump table and runner plans
// survive it: re-running a batched probe program at new hammer counts
// pays no assembly, validation or planning. A non-loop index or a count
// below 1 is rejected and leaves the program unchanged.
func (p *Program) SetLoopCount(i int, n int64) error {
	if i < 0 || i >= len(p.Instrs) || p.Instrs[i].Op != OpLoop {
		return fmt.Errorf("bender: instr %d is not a loop", i)
	}
	if n <= 0 {
		return valErr(i, OpLoop, "loop count %d must be positive", n)
	}
	p.Instrs[i].Arg = n
	return nil
}

// valErr formats a per-instruction validation error. A plain function
// (rather than a closure in the validation loop) keeps the happy path
// allocation-free.
func valErr(i int, op Op, f string, args ...any) error {
	return fmt.Errorf("bender: instr %d (%s): %s", i, op, fmt.Sprintf(f, args...))
}

// Validate checks structural well-formedness against a geometry: operand
// ranges, loop nesting, data table references and payload sizes, and
// builds the loop jump table and the resolved bank table the runner
// executes with. A successful
// validation is cached per geometry, so the runner's revalidation on
// every Run is a no-op for already-checked programs.
func (p *Program) Validate(g addr.Geometry) error {
	if p.valid && p.validFor == g {
		return nil
	}
	p.valid = false
	p.gen++
	if cap(p.jumps) < len(p.Instrs) {
		p.jumps = make([]int32, len(p.Instrs))
		p.banks = make([]int32, len(p.Instrs))
	}
	p.jumps = p.jumps[:len(p.Instrs)]
	p.banks = p.banks[:len(p.Instrs)]
	p.loops = p.loops[:0]
	// open is the innermost unclosed OpLoop; each open loop's jumps entry
	// holds its enclosing loop until its OpEndLoop overwrites it, so the
	// nesting stack needs no storage of its own.
	depth, open := 0, int32(-1)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		p.banks[i] = int32(bankOf(in).Flat(g)) // meaningful once validBank holds
		switch in.Op {
		case OpAct:
			if !validBank(g, in) {
				return valErr(i, in.Op, "bank ch%d.pc%d.ba%d out of range", in.Ch, in.PC, in.Bank)
			}
			if in.Row < 0 || in.Row >= g.Rows {
				return valErr(i, in.Op, "row %d out of range", in.Row)
			}
		case OpPre:
			if !validBank(g, in) {
				return valErr(i, in.Op, "bank out of range")
			}
		case OpPreA, OpRef:
			if in.Ch < 0 || in.Ch >= g.Channels || in.PC < 0 || in.PC >= g.PseudoChannels {
				return valErr(i, in.Op, "pseudo channel ch%d.pc%d out of range", in.Ch, in.PC)
			}
		case OpRd:
			if !validBank(g, in) || in.Col < 0 || in.Col >= g.Columns {
				return valErr(i, in.Op, "bank/column out of range")
			}
		case OpWr, OpWrRow:
			if !validBank(g, in) || (in.Op == OpWr && (in.Col < 0 || in.Col >= g.Columns)) {
				return valErr(i, in.Op, "bank/column out of range")
			}
			if in.Data < 0 || in.Data >= len(p.Data) {
				return valErr(i, in.Op, "data index %d outside table of %d", in.Data, len(p.Data))
			}
			if len(p.Data[in.Data]) != g.ColumnBytes {
				return valErr(i, in.Op, "payload %d is %d bytes, column holds %d", in.Data, len(p.Data[in.Data]), g.ColumnBytes)
			}
		case OpMRS:
			if in.Ch < 0 || in.Ch >= g.Channels {
				return valErr(i, in.Op, "channel out of range")
			}
			if in.Row < 0 {
				return valErr(i, in.Op, "negative register index")
			}
			if in.Arg < 0 || in.Arg > math.MaxUint32 {
				return valErr(i, in.Op, "value %d outside 32 bits", in.Arg)
			}
		case OpWait:
			if in.Arg < 0 {
				return valErr(i, in.Op, "negative wait")
			}
		case OpLoop:
			if in.Arg <= 0 {
				return valErr(i, in.Op, "loop count %d must be positive", in.Arg)
			}
			if depth == 0 {
				p.loops = append(p.loops, int32(i))
			}
			p.jumps[i] = open
			open = int32(i)
			depth++
		case OpEndLoop:
			depth--
			if depth < 0 {
				return valErr(i, in.Op, "endloop without loop")
			}
			open, p.jumps[open] = p.jumps[open], int32(i)
		case OpEnd:
			if depth != 0 {
				return valErr(i, in.Op, "end inside loop")
			}
		default:
			return valErr(i, in.Op, "unknown opcode")
		}
	}
	if depth != 0 {
		return fmt.Errorf("bender: %d unclosed loop(s)", depth)
	}
	p.validFor = g
	p.valid = true
	return nil
}

func validBank(g addr.Geometry, in *Instr) bool { return bankOf(in).Valid(g) }

// bankOf returns the bank an instruction's Ch, PC and Bank operands name.
func bankOf(in *Instr) addr.BankAddr {
	return addr.BankAddr{Channel: in.Ch, PseudoChannel: in.PC, Bank: in.Bank}
}

// Builder assembles programs with the inter-command waits the timing
// parameters require, the way the DRAM Bender host library does.
//
// A Builder can be reused: Reset clears the instruction stream but keeps
// the interned write-payload table and all backing capacity, so a harness
// assembling one program per measurement allocates nothing in steady
// state. The *Program returned by Build aliases the Builder's buffers and
// is valid until the next Reset or instruction emit.
type Builder struct {
	timing config.Timing
	geom   addr.Geometry
	prog   Program
	// dataIndex deduplicates write payloads; it persists across Reset so
	// recurring fill patterns intern once per Builder, not per program.
	dataIndex map[string]int
	// built is the reusable Program handed out by Build.
	built Program
	// fillBuf is the reusable payload scratch of WriteRowFill.
	fillBuf []byte
}

// NewBuilder returns a builder for a device with the given timing and
// geometry.
func NewBuilder(t config.Timing, g addr.Geometry) *Builder {
	return &Builder{timing: t, geom: g, dataIndex: make(map[string]int)}
}

// Reset clears the instruction stream for assembling a new program. The
// interned payload table and instruction capacity are retained. Programs
// returned by earlier Build calls are invalidated.
func (b *Builder) Reset() {
	b.prog.Instrs = b.prog.Instrs[:0]
	b.prog.valid = false
}

// Build finalizes and validates the program. The returned Program aliases
// the Builder's buffers: it is valid until the next Reset or emit, and a
// subsequent Build call reuses the same Program value.
func (b *Builder) Build() (*Program, error) {
	if err := b.prog.Validate(b.geom); err != nil {
		return nil, err
	}
	// The built program keeps its plan's storage, marked stale: a run
	// plans the new contents into it.
	pl := b.built.plan
	if pl != nil {
		pl.gen = 0
	}
	b.built = b.prog
	b.built.plan = pl
	return &b.built, nil
}

func (b *Builder) emit(in Instr) *Builder {
	b.prog.Instrs = append(b.prog.Instrs, in)
	b.prog.valid = false
	return b
}

// Len reports the number of instructions emitted so far; batched callers
// record it after each probe block as a RunSegments boundary.
func (b *Builder) Len() int { return len(b.prog.Instrs) }

// Act emits a raw activate without waits.
func (b *Builder) Act(ba addr.BankAddr, row int) *Builder {
	return b.emit(Instr{Op: OpAct, Ch: ba.Channel, PC: ba.PseudoChannel, Bank: ba.Bank, Row: row})
}

// Pre emits a raw precharge without waits.
func (b *Builder) Pre(ba addr.BankAddr) *Builder {
	return b.emit(Instr{Op: OpPre, Ch: ba.Channel, PC: ba.PseudoChannel, Bank: ba.Bank})
}

// PreA emits a precharge-all for a pseudo channel.
func (b *Builder) PreA(ch, pc int) *Builder {
	return b.emit(Instr{Op: OpPreA, Ch: ch, PC: pc})
}

// Rd emits a column read.
func (b *Builder) Rd(ba addr.BankAddr, col int) *Builder {
	return b.emit(Instr{Op: OpRd, Ch: ba.Channel, PC: ba.PseudoChannel, Bank: ba.Bank, Col: col})
}

// Wr emits a column write, interning the payload in the data table.
func (b *Builder) Wr(ba addr.BankAddr, col int, payload []byte) *Builder {
	return b.emit(Instr{Op: OpWr, Ch: ba.Channel, PC: ba.PseudoChannel, Bank: ba.Bank, Col: col, Data: b.intern(payload)})
}

// WrRow emits a row write: the payload, interned in the data table, goes
// to every column of the bank's open row.
func (b *Builder) WrRow(ba addr.BankAddr, payload []byte) *Builder {
	return b.emit(Instr{Op: OpWrRow, Ch: ba.Channel, PC: ba.PseudoChannel, Bank: ba.Bank, Data: b.intern(payload)})
}

// intern returns the data-table index of payload, adding a copy on first
// use. The map lookup with an inline string conversion is allocation-free
// on an intern hit, which is every lookup after a pattern's first use.
func (b *Builder) intern(payload []byte) int {
	idx, ok := b.dataIndex[string(payload)]
	if !ok {
		idx = len(b.prog.Data)
		stored := append([]byte(nil), payload...)
		b.prog.Data = append(b.prog.Data, stored)
		b.dataIndex[string(stored)] = idx
	}
	return idx
}

// Ref emits a periodic refresh.
func (b *Builder) Ref(ch, pc int) *Builder {
	return b.emit(Instr{Op: OpRef, Ch: ch, PC: pc})
}

// MRS emits a mode register write.
func (b *Builder) MRS(ch, reg int, value uint32) *Builder {
	return b.emit(Instr{Op: OpMRS, Ch: ch, Row: reg, Arg: int64(value)})
}

// Wait emits a time advance of ps picoseconds.
func (b *Builder) Wait(ps int64) *Builder {
	if ps > 0 {
		b.emit(Instr{Op: OpWait, Arg: ps})
	}
	return b
}

// Loop emits a loop of n iterations around the instructions body adds.
func (b *Builder) Loop(n int64, body func(*Builder)) *Builder {
	b.emit(Instr{Op: OpLoop, Arg: n})
	body(b)
	return b.emit(Instr{Op: OpEndLoop})
}

// End emits an explicit end-of-program marker.
func (b *Builder) End() *Builder { return b.emit(Instr{Op: OpEnd}) }

// --- High-level helpers mirroring the paper's methodology ---

// DisableECC clears the on-die ECC enable bit of every channel, step 4 of
// the paper's interference-elimination setup.
func (b *Builder) DisableECC() *Builder {
	for ch := 0; ch < b.geom.Channels; ch++ {
		b.MRS(ch, eccModeRegister, 0)
	}
	return b
}

// eccModeRegister mirrors hbm.MRECC without importing the device package
// (bender targets an interface, not the concrete device).
const eccModeRegister = 4

// WriteRowFill opens a row, fills every column with the byte pattern in
// one WRROW, and closes the row, with all required waits. The WRROW takes
// the Columns command slots of per-column writes, so the timing is theirs.
func (b *Builder) WriteRowFill(ba addr.BankAddr, row int, fill byte) *Builder {
	if cap(b.fillBuf) < b.geom.ColumnBytes {
		b.fillBuf = make([]byte, b.geom.ColumnBytes)
	}
	payload := b.fillBuf[:b.geom.ColumnBytes]
	for i := range payload {
		payload[i] = fill
	}
	b.Act(ba, row)
	b.Wait(b.timing.TRCD - b.timing.TCK)
	b.WrRow(ba, payload)
	b.closeRow(ba, int64(b.geom.Columns+1))
	return b
}

// ReadRowOut opens a row, reads every column into the result FIFO, and
// closes the row.
func (b *Builder) ReadRowOut(ba addr.BankAddr, row int) *Builder {
	b.Act(ba, row)
	b.Wait(b.timing.TRCD - b.timing.TCK)
	for col := 0; col < b.geom.Columns; col++ {
		b.Rd(ba, col)
	}
	b.closeRow(ba, int64(b.geom.Columns+1))
	return b
}

// RefreshRow opens a row and closes it again with the required waits,
// restoring its charge: the activate-precharge refresh of the U-TRR
// methodology and of a controller's preventive refresh. It occupies
// tCK + tRAS + tRP, one tCK more than HammerSingle(ba, row, 1).
func (b *Builder) RefreshRow(ba addr.BankAddr, row int) *Builder {
	b.Act(ba, row)
	b.Wait(b.timing.TRCD - b.timing.TCK)
	return b.closeRow(ba, 1)
}

// closeRow pads to tRAS from the activate (which happened cmds commands
// ago), precharges, and waits out tRP.
func (b *Builder) closeRow(ba addr.BankAddr, cmds int64) *Builder {
	elapsed := cmds*b.timing.TCK + (b.timing.TRCD - b.timing.TCK)
	b.Wait(b.timing.TRAS - elapsed)
	b.Pre(ba)
	b.Wait(b.timing.TRP)
	return b
}

// HammerDouble emits the paper's double-sided RowHammer access pattern:
// n iterations of alternating activations of the two aggressor rows, each
// activation held for tRAS and separated by tRP. One iteration is one
// "hammer" (a pair of activations).
func (b *Builder) HammerDouble(ba addr.BankAddr, rowA, rowB int, n int64) *Builder {
	return b.Loop(n, func(b *Builder) {
		for _, r := range []int{rowA, rowB} {
			b.Act(ba, r)
			b.Wait(b.timing.TRAS - b.timing.TCK)
			b.Pre(ba)
			b.Wait(b.timing.TRP - b.timing.TCK)
		}
	})
}

// HammerSingle emits n single-sided activations of one aggressor row.
func (b *Builder) HammerSingle(ba addr.BankAddr, row int, n int64) *Builder {
	return b.Loop(n, func(b *Builder) {
		b.Act(ba, row)
		b.Wait(b.timing.TRAS - b.timing.TCK)
		b.Pre(ba)
		b.Wait(b.timing.TRP - b.timing.TCK)
	})
}

// HammerDoubleHold is HammerDouble with each activation held open for
// holdPS (>= tRAS) before its precharge — the RowPress access pattern,
// which the paper lists as future characterization work.
func (b *Builder) HammerDoubleHold(ba addr.BankAddr, rowA, rowB int, n, holdPS int64) *Builder {
	if holdPS < b.timing.TRAS {
		holdPS = b.timing.TRAS
	}
	return b.Loop(n, func(b *Builder) {
		for _, r := range []int{rowA, rowB} {
			b.Act(ba, r)
			b.Wait(holdPS - b.timing.TCK)
			b.Pre(ba)
			b.Wait(b.timing.TRP - b.timing.TCK)
		}
	})
}

// RefreshBurst emits n REF commands to a pseudo channel, spaced tRFC
// apart (the minimum legal spacing).
func (b *Builder) RefreshBurst(ch, pc int, n int64) *Builder {
	return b.Loop(n, func(b *Builder) {
		b.Ref(ch, pc)
		b.Wait(b.timing.TRFC - b.timing.TCK)
	})
}
