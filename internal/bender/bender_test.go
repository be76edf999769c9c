package bender_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/hbm"
)

func newDevice(t testing.TB) *hbm.Device {
	t.Helper()
	d, err := hbm.New(config.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func ba(ch, pc, bank int) addr.BankAddr {
	return addr.BankAddr{Channel: ch, PseudoChannel: pc, Bank: bank}
}

func run(t testing.TB, d *hbm.Device, p *bender.Program) *bender.Result {
	t.Helper()
	r := bender.NewRunner(d.Config().Timing)
	res, err := r.Run(d, d.Geometry(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteThenReadRowViaProgram(t *testing.T) {
	d := newDevice(t)
	g := d.Geometry()
	b := bender.NewBuilder(d.Config().Timing, g)
	b.WriteRowFill(ba(1, 0, 2), 50, 0xA5)
	b.ReadRowOut(ba(1, 0, 2), 50)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, d, prog)
	if len(res.Reads) != g.Columns {
		t.Fatalf("read %d columns, want %d", len(res.Reads), g.Columns)
	}
	for col, data := range res.Reads {
		for i, v := range data {
			if v != 0xA5 {
				t.Fatalf("col %d byte %d = %#x, want 0xA5", col, i, v)
			}
		}
	}
	if res.Elapsed <= 0 {
		t.Fatal("program consumed no simulated time")
	}
}

// buildHammerProgram creates the paper's full per-row test: set up the
// double-sided data pattern, hammer n times, read the victim back.
func buildHammerProgram(t *testing.T, d *hbm.Device, bank addr.BankAddr, physVictim int, n int64) *bender.Program {
	t.Helper()
	m := d.Mapper()
	lv := m.ToLogical(physVictim)
	la := m.ToLogical(physVictim - 1)
	lb := m.ToLogical(physVictim + 1)
	b := bender.NewBuilder(d.Config().Timing, d.Geometry())
	b.DisableECC()
	b.WriteRowFill(bank, lv, 0xFF)
	b.WriteRowFill(bank, la, 0x00)
	b.WriteRowFill(bank, lb, 0x00)
	b.HammerDouble(bank, la, lb, n)
	b.ReadRowOut(bank, lv)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func countFlips(res *bender.Result, want byte) int {
	n := 0
	for _, col := range res.Reads {
		for _, v := range col {
			d := v ^ want
			for d != 0 {
				d &= d - 1
				n++
			}
		}
	}
	return n
}

func TestHammerProgramInducesFlips(t *testing.T) {
	d := newDevice(t)
	layout := d.Config().Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	prog := buildHammerProgram(t, d, ba(7, 0, 0), phys, 256*1024)
	res := run(t, d, prog)
	if got := countFlips(res, 0xFF); got == 0 {
		t.Fatal("hammer program induced no flips in channel 7")
	}
}

func TestFastPathMatchesSlowPathExactly(t *testing.T) {
	layout := config.SmallChip().Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	const n = 2000 // keep the slow path affordable

	exec := func(disableFast bool) (*bender.Result, int64, hbm.Stats) {
		d := newDevice(t)
		prog := buildHammerProgram(t, d, ba(7, 0, 0), phys, n)
		r := bender.NewRunner(d.Config().Timing)
		r.DisableFastPath = disableFast
		res, err := r.Run(d, d.Geometry(), prog)
		if err != nil {
			t.Fatal(err)
		}
		return res, d.Now(), d.Stats()
	}

	fast, fastNow, fastStats := exec(false)
	slow, slowNow, slowStats := exec(true)

	if fastNow != slowNow {
		t.Errorf("device clocks diverge: fast %d ps, slow %d ps", fastNow, slowNow)
	}
	if fast.Elapsed != slow.Elapsed {
		t.Errorf("elapsed diverges: fast %d, slow %d", fast.Elapsed, slow.Elapsed)
	}
	if len(fast.Reads) != len(slow.Reads) {
		t.Fatalf("read counts diverge: %d vs %d", len(fast.Reads), len(slow.Reads))
	}
	for i := range fast.Reads {
		if !bytes.Equal(fast.Reads[i], slow.Reads[i]) {
			t.Fatalf("read %d differs between fast and slow paths", i)
		}
	}
	if fastStats.Acts != slowStats.Acts {
		t.Errorf("activation counts diverge: %d vs %d", fastStats.Acts, slowStats.Acts)
	}
}

func TestFastPathDeclinedForImpureLoops(t *testing.T) {
	// A loop that reads inside cannot use the bulk path; it must still
	// execute correctly and fill the FIFO once per iteration.
	d := newDevice(t)
	tm := d.Config().Timing
	b := bender.NewBuilder(tm, d.Geometry())
	b.WriteRowFill(ba(0, 0, 0), 9, 0x3C)
	b.Loop(5, func(b *bender.Builder) {
		b.Act(ba(0, 0, 0), 9)
		b.Wait(tm.TRCD - tm.TCK)
		b.Rd(ba(0, 0, 0), 0)
		b.Wait(tm.TRAS)
		b.Pre(ba(0, 0, 0))
		b.Wait(tm.TRP)
	})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, d, prog)
	if len(res.Reads) != 5 {
		t.Fatalf("%d reads, want 5", len(res.Reads))
	}
}

func TestNestedLoopsExecute(t *testing.T) {
	d := newDevice(t)
	tm := d.Config().Timing
	b := bender.NewBuilder(tm, d.Geometry())
	b.Loop(3, func(b *bender.Builder) {
		b.Loop(4, func(b *bender.Builder) {
			b.Ref(0, 0)
			b.Wait(tm.TRFC - tm.TCK)
		})
	})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run(t, d, prog)
	if got := d.Stats().Refreshes; got != 12 {
		t.Fatalf("%d refreshes, want 12", got)
	}
}

func TestProgramValidation(t *testing.T) {
	g := config.SmallChip().Geometry
	cases := map[string]bender.Program{
		"row out of range": {Instrs: []bender.Instr{{Op: bender.OpAct, Row: g.Rows}}},
		"bad channel":      {Instrs: []bender.Instr{{Op: bender.OpRef, Ch: g.Channels}}},
		"bad data index":   {Instrs: []bender.Instr{{Op: bender.OpWr}}},
		"unclosed loop":    {Instrs: []bender.Instr{{Op: bender.OpLoop, Arg: 2}}},
		"stray endloop":    {Instrs: []bender.Instr{{Op: bender.OpEndLoop}}},
		"zero loop count":  {Instrs: []bender.Instr{{Op: bender.OpLoop}, {Op: bender.OpEndLoop}}},
		"negative wait":    {Instrs: []bender.Instr{{Op: bender.OpWait, Arg: -1}}},
		"unknown op":       {Instrs: []bender.Instr{{Op: bender.Op(99)}}},
		"short payload": {
			Instrs: []bender.Instr{{Op: bender.OpWr}},
			Data:   [][]byte{{1, 2, 3}},
		},
		"row write bad data index": {Instrs: []bender.Instr{{Op: bender.OpWrRow}}},
		"row write short payload": {
			Instrs: []bender.Instr{{Op: bender.OpWrRow}},
			Data:   [][]byte{{1, 2, 3}},
		},
		"row write bank out of range": {
			Instrs: []bender.Instr{{Op: bender.OpWrRow, Bank: g.Banks}},
			Data:   [][]byte{make([]byte, g.ColumnBytes)},
		},
		"mode register value too wide": {Instrs: []bender.Instr{{Op: bender.OpMRS, Arg: 1 << 32}}},
	}
	for name, p := range cases {
		p := p
		if err := p.Validate(g); err == nil {
			t.Errorf("%s: invalid program accepted", name)
		}
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	g := config.SmallChip().Geometry
	src := `
# set up and hammer
mrs 0 4 0x0
act 0 0 0 100
wait 14000
wr 0 0 0 0 fill a5
wr 0 0 0 1 hex ` + strings.Repeat("0f", g.ColumnBytes) + `
wait 33000
pre 0 0 0
wait 14000
act 0 0 1 100
wait 14000
wrrow 0 0 1 fill 3c
wrrow 0 0 1 hex ` + strings.Repeat("c3", g.ColumnBytes) + `
wait 33000
pre 0 0 1
wait 14000
loop 1000
  act 0 0 0 99  ; aggressor
  wait 31334
  pre 0 0 0
  wait 12334
endloop
rd 0 0 0 0
ref 0 0
prea 0 0
end
`
	p1, err := bender.Assemble(src, g)
	if err != nil {
		t.Fatal(err)
	}
	text := bender.Disassemble(p1)
	p2, err := bender.Assemble(text, g)
	if err != nil {
		t.Fatalf("disassembly did not reassemble: %v\n%s", err, text)
	}
	if len(p1.Instrs) != len(p2.Instrs) {
		t.Fatalf("instruction counts differ: %d vs %d", len(p1.Instrs), len(p2.Instrs))
	}
	for i := range p1.Instrs {
		a, b := p1.Instrs[i], p2.Instrs[i]
		if a.Op != b.Op || a.Ch != b.Ch || a.PC != b.PC || a.Bank != b.Bank ||
			a.Row != b.Row || a.Col != b.Col || a.Arg != b.Arg {
			t.Fatalf("instr %d differs: %+v vs %+v", i, a, b)
		}
		if (a.Op == bender.OpWr || a.Op == bender.OpWrRow) && !bytes.Equal(p1.Data[a.Data], p2.Data[b.Data]) {
			t.Fatalf("instr %d payload differs", i)
		}
	}
	var rowWrites int
	for _, in := range p2.Instrs {
		if in.Op == bender.OpWrRow {
			want := bytes.Repeat([]byte{0x3c}, g.ColumnBytes)
			if rowWrites == 1 {
				want = bytes.Repeat([]byte{0xc3}, g.ColumnBytes)
			}
			if !bytes.Equal(p2.Data[in.Data], want) {
				t.Fatalf("wrrow %d payload %x, want %x", rowWrites, p2.Data[in.Data], want)
			}
			rowWrites++
		}
	}
	if rowWrites != 2 {
		t.Fatalf("%d wrrow instructions survived the round trip, want 2", rowWrites)
	}
}

func TestAssembleErrors(t *testing.T) {
	g := config.SmallChip().Geometry
	cases := map[string]string{
		"unknown op":     "frobnicate 1 2 3",
		"missing arg":    "act 0 0 0",
		"bad int":        "wait abc",
		"bad fill":       "wr 0 0 0 0 fill zz",
		"bad hex":        "wr 0 0 0 0 hex xyz",
		"short hex":      "wr 0 0 0 0 hex abcd",
		"bad mode":       "wr 0 0 0 0 random ff",
		"endloop extra":  "endloop 3",
		"row overflow":   "act 0 0 0 999999",
		"nested unclose": "loop 2\nloop 3\nendloop",
		"wrrow bad fill": "wrrow 0 0 0 fill zz",
		"wrrow bad hex":  "wrrow 0 0 0 hex xyz",
		"wrrow short":    "wrrow 0 0 0 hex abcd",
		"wrrow no data":  "wrrow 0 0 0 fill",
		"wrrow with col": "wrrow 0 0 0 0 fill ff",
		"wrrow bank":     fmt.Sprintf("wrrow 0 0 %d fill ff", g.Banks),
		"wrrow channel":  fmt.Sprintf("wrrow %d 0 0 fill ff", g.Channels),
		"wrrow bad int":  "wrrow 0 x 0 fill ff",
		"mrs negative":   "mrs 0 4 -1",
		"mrs too wide":   "mrs 0 4 0x100000000",
	}
	for name, src := range cases {
		if _, err := bender.Assemble(src, g); err == nil {
			t.Errorf("%s: assembler accepted %q", name, src)
		}
	}
}

func TestAssembledHammerUsesFastPath(t *testing.T) {
	// An assembled text program with the canonical hammer loop should
	// complete 256K iterations quickly (i.e. the fast path kicked in) and
	// produce flips.
	d := newDevice(t)
	layout := d.Config().Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	m := d.Mapper()
	prog := buildHammerProgram(t, d, ba(7, 0, 0), phys, 256*1024)
	text := bender.Disassemble(prog)
	p2, err := bender.Assemble(text, d.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, d, p2)
	if countFlips(res, 0xFF) == 0 {
		t.Fatal("assembled hammer program induced no flips")
	}
	_ = m
}

func TestRefreshBurstTriggersTRRPeriod(t *testing.T) {
	d := newDevice(t)
	tm := d.Config().Timing
	b := bender.NewBuilder(tm, d.Geometry())
	b.Wait(tm.TRFC) // space from power-up
	b.RefreshBurst(0, 0, 40)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run(t, d, prog)
	if got := d.Stats().Refreshes; got != 40 {
		t.Fatalf("%d refreshes, want 40", got)
	}
}

func TestOpStringCoversAll(t *testing.T) {
	ops := []bender.Op{
		bender.OpAct, bender.OpPre, bender.OpPreA, bender.OpRd, bender.OpWr, bender.OpWrRow,
		bender.OpRef, bender.OpMRS, bender.OpWait, bender.OpLoop, bender.OpEndLoop, bender.OpEnd,
	}
	seen := map[string]bool{}
	for _, op := range ops {
		s := op.String()
		if seen[s] {
			t.Fatalf("duplicate mnemonic %q", s)
		}
		seen[s] = true
	}
	if got := bender.Op(99).String(); got != "Op(99)" {
		t.Fatalf("unknown op renders as %q", got)
	}
}

func TestHammerDoubleHoldFastMatchesSlow(t *testing.T) {
	layout := config.SmallChip().Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	const n = 8000

	exec := func(disableFast bool) (*bender.Result, int64, int) {
		d := newDevice(t)
		tm := d.Config().Timing
		m := d.Mapper()
		lv := m.ToLogical(phys)
		la, lb := m.ToLogical(phys-1), m.ToLogical(phys+1)
		b := bender.NewBuilder(tm, d.Geometry())
		b.DisableECC()
		b.WriteRowFill(ba(7, 0, 0), lv, 0xFF)
		b.WriteRowFill(ba(7, 0, 0), la, 0x00)
		b.WriteRowFill(ba(7, 0, 0), lb, 0x00)
		// Hold each activation open 20x tRAS: the RowPress pattern.
		b.HammerDoubleHold(ba(7, 0, 0), la, lb, n, tm.TRAS*20)
		b.ReadRowOut(ba(7, 0, 0), lv)
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		r := bender.NewRunner(tm)
		r.DisableFastPath = disableFast
		res, err := r.Run(d, d.Geometry(), prog)
		if err != nil {
			t.Fatal(err)
		}
		return res, d.Now(), countFlips(res, 0xFF)
	}

	fast, fastNow, fastFlips := exec(false)
	slow, slowNow, slowFlips := exec(true)
	if fastNow != slowNow {
		t.Errorf("clocks diverge: %d vs %d", fastNow, slowNow)
	}
	if fastFlips != slowFlips {
		t.Errorf("flips diverge: fast %d, slow %d", fastFlips, slowFlips)
	}
	if fastFlips == 0 {
		t.Error("300 pressed hammers flipped nothing; RowPress amplification missing")
	}
	if fast.Elapsed != slow.Elapsed {
		t.Errorf("elapsed diverges: %d vs %d", fast.Elapsed, slow.Elapsed)
	}
}

func TestTraceLogsCommands(t *testing.T) {
	d := newDevice(t)
	tm := d.Config().Timing
	b := bender.NewBuilder(tm, d.Geometry())
	b.MRS(0, 4, 0)
	b.WriteRowFill(ba(0, 0, 0), 9, 0xAB)
	b.HammerDouble(ba(0, 0, 0), 8, 10, 100)
	b.ReadRowOut(ba(0, 0, 0), 9)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := bender.NewRunner(tm)
	r.Trace = &buf
	if _, err := r.Run(d, d.Geometry(), prog); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"mrs  ch0 MR4 = 0x0",
		"act  ch0.pc0.ba0 row 9",
		"wrrow ch0.pc0.ba0 (payload 0)",
		"double-sided hammer ch0.pc0.ba0 rows 8/10",
		"(hold 33000 ps, bulk)",
		"rd   ch0.pc0.ba0 col 0",
		"] pre  ch0.pc0.ba0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Timestamps must be non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var ts int64
		if _, err := fmt.Sscanf(line, "[%d ps]", &ts); err != nil {
			t.Fatalf("unparseable trace line %q", line)
		}
		if ts < last {
			t.Fatalf("trace timestamps regress: %d after %d", ts, last)
		}
		last = ts
	}
}

func TestTraceSlowPathLogsEveryIteration(t *testing.T) {
	d := newDevice(t)
	tm := d.Config().Timing
	b := bender.NewBuilder(tm, d.Geometry())
	b.HammerSingle(ba(0, 0, 0), 5, 3)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := bender.NewRunner(tm)
	r.Trace = &buf
	r.DisableFastPath = true
	if _, err := r.Run(d, d.Geometry(), prog); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "act  "); got != 3 {
		t.Fatalf("%d act lines, want 3", got)
	}
}

func TestAssembleNeverPanicsProperty(t *testing.T) {
	g := config.SmallChip().Geometry
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		// Either a valid program or an error; never a panic.
		p, err := bender.Assemble(src, g)
		return err != nil || p != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// And a few adversarial fragments assembled verbatim.
	for _, src := range []string{
		"loop 9223372036854775807\nendloop",
		"wait 9223372036854775807",
		"act -1 -1 -1 -1",
		"wr 0 0 0 0 hex " + strings.Repeat("00", 1<<10),
		"\x00\x01\x02",
		"loop 1\nloop 1\nloop 1\nendloop\nendloop\nendloop",
	} {
		f(src)
	}
}

func TestLoopErrorReportsIteration(t *testing.T) {
	// A timing violation inside a loop must name the failing iteration.
	d := newDevice(t)
	b := bender.NewBuilder(d.Config().Timing, d.Geometry())
	b.Loop(3, func(b *bender.Builder) {
		b.Act(ba(0, 0, 0), 1) // second iteration activates an open bank
	})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := bender.NewRunner(d.Config().Timing)
	_, err = r.Run(d, d.Geometry(), prog)
	if err == nil {
		t.Fatal("double activation accepted")
	}
	if !strings.Contains(err.Error(), "loop iteration 1") {
		t.Fatalf("error %q does not name the failing iteration", err)
	}
}

func TestRunnerReusesResultAcrossRuns(t *testing.T) {
	// The Runner owns its Result and read arena: the same pointer comes
	// back from every Run, with Reads valid until the next Run.
	d := newDevice(t)
	b := bender.NewBuilder(d.Config().Timing, d.Geometry())
	b.WriteRowFill(ba(0, 0, 0), 3, 0x11)
	b.ReadRowOut(ba(0, 0, 0), 3)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := bender.NewRunner(d.Config().Timing)
	res1, err := r.Run(d, d.Geometry(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Reads) != d.Geometry().Columns {
		t.Fatalf("%d reads, want %d", len(res1.Reads), d.Geometry().Columns)
	}
	for _, col := range res1.Reads {
		for _, v := range col {
			if v != 0x11 {
				t.Fatalf("read byte %#x, want 0x11", v)
			}
		}
	}
	res2, err := r.Run(d, d.Geometry(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Fatal("Run did not reuse its Result value")
	}
}

func TestBuilderResetReusesBuffers(t *testing.T) {
	d := newDevice(t)
	b := bender.NewBuilder(d.Config().Timing, d.Geometry())
	r := bender.NewRunner(d.Config().Timing)
	// Three programs from one builder, Reset in between: a fresh payload
	// interned after a Reset (0x55), then a repeat of the first fill to
	// prove the intern table persisted across both Resets. All must
	// execute correctly.
	for round, fill := range []byte{0xAA, 0x55, 0xAA} {
		b.Reset()
		b.WriteRowFill(ba(1, 0, 0), 7, fill)
		b.ReadRowOut(ba(1, 0, 0), 7)
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(d, d.Geometry(), prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range res.Reads {
			for _, v := range col {
				if v != fill {
					t.Fatalf("round %d: read %#x, want %#x", round, v, fill)
				}
			}
		}
	}
}

func TestEndInsideLoopRejected(t *testing.T) {
	g := config.SmallChip().Geometry
	p := bender.Program{Instrs: []bender.Instr{
		{Op: bender.OpLoop, Arg: 2},
		{Op: bender.OpEnd},
		{Op: bender.OpEndLoop},
	}}
	if err := p.Validate(g); err == nil {
		t.Fatal("end inside loop accepted")
	}
}

func TestWriteRowFillMatchesPerColumnBuild(t *testing.T) {
	// WriteRowFill's single WRROW must leave the device exactly as the
	// per-column spelling of the same fill does: the same reads, clock and
	// every activity counter, with the fast paths on and off. (The hbm
	// package's FuzzWriteRowEquivalence extends this to random programs
	// and per-row physical state.)
	tm := config.SmallChip().Timing
	g := config.SmallChip().Geometry
	fills := []byte{0xFF, 0x00, 0xFF, 0x5A}
	build := func(perColumn bool) *bender.Program {
		b := bender.NewBuilder(tm, g)
		for i, fill := range fills {
			bank, row := ba(i%2, 0, 1), 10+i
			if !perColumn {
				b.WriteRowFill(bank, row, fill)
				continue
			}
			b.Act(bank, row)
			b.Wait(tm.TRCD - tm.TCK)
			for col := 0; col < g.Columns; col++ {
				b.Wr(bank, col, bytes.Repeat([]byte{fill}, g.ColumnBytes))
			}
			b.Wait(tm.TRAS - (int64(g.Columns+1)*tm.TCK + tm.TRCD - tm.TCK))
			b.Pre(bank)
			b.Wait(tm.TRP)
		}
		for i := range fills {
			b.ReadRowOut(ba(i%2, 0, 1), 10+i)
		}
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	type outcome struct {
		reads   [][]byte
		elapsed int64
		now     int64
		stats   hbm.Stats
	}
	exec := func(perColumn, disableFast bool) outcome {
		d := newDevice(t)
		r := bender.NewRunner(tm)
		r.DisableFastPath = disableFast
		res, err := r.Run(d, g, build(perColumn))
		if err != nil {
			t.Fatal(err)
		}
		reads := make([][]byte, len(res.Reads))
		for i, col := range res.Reads {
			reads[i] = bytes.Clone(col)
		}
		return outcome{reads, res.Elapsed, d.Now(), d.Stats()}
	}
	for _, disableFast := range []bool{false, true} {
		row, col := exec(false, disableFast), exec(true, disableFast)
		if !reflect.DeepEqual(row, col) {
			t.Fatalf("DisableFastPath=%v: WRROW fill and per-column fill diverge:\nrow    %+v\ncolumn %+v",
				disableFast, row.stats, col.stats)
		}
		if want := int64(len(fills) * g.Columns); row.stats.Writes != want {
			t.Fatalf("%d column writes counted, want %d", row.stats.Writes, want)
		}
	}
}

// overwriteRecorder is a device that counts the activations the runner
// issued as overwrite blocks.
type overwriteRecorder struct {
	*hbm.Device
	overwrites int
}

func (o *overwriteRecorder) ActivateResolved(bank, row int, overwrite bool) error {
	if overwrite {
		o.overwrites++
	}
	return o.Device.ActivateResolved(bank, row, overwrite)
}

// TestOverwriteBlockShapes pins which activations the runner elides the
// sense flips of: only an ACT followed by waits and same-bank row writes
// (WRROW), closed by the bank's PRE, legal under tRCD/tRAS and with no
// segment boundary inside. Per-column writes never elide, even when they
// cover the whole row. Every case also runs with the fast
// path disabled and must agree on reads, errors, clock and activity
// (flip counters aside: an elided sense counts no flips).
func TestOverwriteBlockShapes(t *testing.T) {
	cfg := config.SmallChip()
	tm, g := cfg.Timing, cfg.Geometry
	b0, b1 := ba(3, 1, 0), ba(3, 1, 1)
	const row = 77
	fill := bytes.Repeat([]byte{0xFF}, g.ColumnBytes)
	open := func(b *bender.Builder, bank addr.BankAddr) {
		b.Act(bank, row)
		b.Wait(tm.TRCD - tm.TCK)
	}
	closeRow := func(b *bender.Builder, bank addr.BankAddr) {
		b.Wait(tm.TRAS)
		b.Pre(bank)
		b.Wait(tm.TRP)
	}
	writeCols := func(b *bender.Builder, bank addr.BankAddr, cols ...int) {
		for _, c := range cols {
			b.Wr(bank, c, fill)
		}
	}
	writeRow := func(b *bender.Builder, bank addr.BankAddr) { b.WrRow(bank, fill) }
	all := make([]int, g.Columns)
	for c := range all {
		all[c] = c
	}
	cases := []struct {
		name  string
		block func(b *bender.Builder) (bound int)
		// elided is whether the block's ACT may skip its flips.
		elided, wantErr, disableFast bool
	}{
		{name: "full fill", elided: true, block: func(b *bender.Builder) int {
			b.WriteRowFill(b0, row, 0xFF)
			return -1
		}},
		{name: "row written twice around a wait", elided: true, block: func(b *bender.Builder) int {
			open(b, b0)
			b.Wait(tm.TCK)
			writeRow(b, b0)
			b.Wait(tm.TCK)
			writeRow(b, b0)
			closeRow(b, b0)
			return -1
		}},
		{name: "full per-column cover", block: func(b *bender.Builder) int {
			open(b, b0)
			writeCols(b, b0, all...)
			closeRow(b, b0)
			return -1
		}},
		{name: "columns out of order, one twice", block: func(b *bender.Builder) int {
			open(b, b0)
			writeCols(b, b0, 3, 0)
			b.Wait(tm.TCK)
			writeCols(b, b0, all...)
			closeRow(b, b0)
			return -1
		}},
		{name: "fast path disabled", disableFast: true, block: func(b *bender.Builder) int {
			b.WriteRowFill(b0, row, 0xFF)
			return -1
		}},
		{name: "partial cover", block: func(b *bender.Builder) int {
			open(b, b0)
			writeCols(b, b0, all[1:]...)
			closeRow(b, b0)
			return -1
		}},
		{name: "read inside", block: func(b *bender.Builder) int {
			open(b, b0)
			b.Rd(b0, 2)
			writeCols(b, b0, all...)
			closeRow(b, b0)
			return -1
		}},
		{name: "read before the row write", block: func(b *bender.Builder) int {
			open(b, b0)
			b.Rd(b0, 2)
			writeRow(b, b0)
			closeRow(b, b0)
			return -1
		}},
		{name: "write to another bank", block: func(b *bender.Builder) int {
			open(b, b1)
			open(b, b0)
			writeCols(b, b0, all[:2]...)
			writeCols(b, b1, 0)
			writeCols(b, b0, all[2:]...)
			closeRow(b, b0)
			closeRow(b, b1)
			return -1
		}},
		{name: "row write on a second open bank", block: func(b *bender.Builder) int {
			open(b, b1)
			open(b, b0)
			writeRow(b, b1)
			writeRow(b, b0)
			closeRow(b, b0)
			closeRow(b, b1)
			return -1
		}},
		{name: "other opcode inside", block: func(b *bender.Builder) int {
			open(b, b0)
			writeRow(b, b0)
			b.MRS(3, 4, 0)
			closeRow(b, b0)
			return -1
		}},
		{name: "loop marker inside", block: func(b *bender.Builder) int {
			open(b, b0)
			b.Loop(1, func(b *bender.Builder) { writeRow(b, b0) })
			closeRow(b, b0)
			return -1
		}},
		{name: "closed by another bank's precharge", block: func(b *bender.Builder) int {
			open(b, b0)
			writeRow(b, b0)
			b.Wait(tm.TRAS)
			b.Pre(b1)
			closeRow(b, b0)
			return -1
		}},
		{name: "closed by precharge-all", block: func(b *bender.Builder) int {
			open(b, b0)
			writeRow(b, b0)
			b.Wait(tm.TRAS)
			b.PreA(b0.Channel, b0.PseudoChannel)
			b.Wait(tm.TRP)
			return -1
		}},
		{name: "program ends before the precharge", block: func(b *bender.Builder) int {
			open(b, b0)
			writeRow(b, b0)
			b.End()
			return -1
		}},
		{name: "segment boundary inside", block: func(b *bender.Builder) int {
			open(b, b0)
			writeCols(b, b0, all[:3]...)
			bound := b.Len()
			writeCols(b, b0, all[3:]...)
			closeRow(b, b0)
			return bound
		}},
		{name: "segment boundary between act and row write", block: func(b *bender.Builder) int {
			open(b, b0)
			bound := b.Len()
			writeRow(b, b0)
			closeRow(b, b0)
			return bound
		}},
		{name: "write before tRCD", wantErr: true, block: func(b *bender.Builder) int {
			b.Act(b0, row)
			writeCols(b, b0, all...)
			closeRow(b, b0)
			return -1
		}},
		{name: "row write before tRCD", wantErr: true, block: func(b *bender.Builder) int {
			b.Act(b0, row)
			b.Wait(tm.TRCD - 2*tm.TCK)
			writeRow(b, b0)
			closeRow(b, b0)
			return -1
		}},
		{name: "precharge before tRAS", wantErr: true, block: func(b *bender.Builder) int {
			open(b, b0)
			writeRow(b, b0)
			b.Pre(b0)
			b.Wait(tm.TRP)
			return -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exec := func(disableFast bool) (*overwriteRecorder, [][]byte, error) {
				d := &overwriteRecorder{Device: newDevice(t)}
				b := bender.NewBuilder(tm, g)
				// Write the row, then idle for a minute so the block's ACT
				// has retention flips to latch (or to skip).
				b.WriteRowFill(b0, row, 0x00)
				b.Wait(60_000_000_000_000)
				start := b.Len()
				bound := tc.block(b)
				b.ReadRowOut(b0, row)
				prog, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				r := bender.NewRunner(tm)
				r.DisableFastPath = disableFast
				var res *bender.Result
				if bound >= 0 {
					res, _, err = r.RunSegments(d, g, prog, []int{start, bound, len(prog.Instrs)}, allLive(3), nil)
				} else {
					res, err = r.Run(d, g, prog)
				}
				if err != nil {
					return d, nil, err
				}
				return d, res.Reads, nil
			}
			fast, fastReads, fastErr := exec(tc.disableFast)
			slow, slowReads, slowErr := exec(true)
			if (fastErr != nil) != tc.wantErr || fmt.Sprint(fastErr) != fmt.Sprint(slowErr) {
				t.Fatalf("errors: fast %v, slow %v (want error %v)", fastErr, slowErr, tc.wantErr)
			}
			// The set-up fill is itself an overwrite block, elided unless
			// the fast path is off; the final read-out never is.
			want := 0
			if !tc.disableFast {
				want = 1
			}
			if tc.elided {
				want++
			}
			if fast.overwrites != want {
				t.Errorf("%d overwrite activations, want %d", fast.overwrites, want)
			}
			if !reflect.DeepEqual(fastReads, slowReads) {
				t.Error("reads diverge from the fast-path-disabled run")
			}
			if fast.Now() != slow.Now() {
				t.Errorf("clocks diverge: %d vs %d", fast.Now(), slow.Now())
			}
			fs, ss := fast.Stats(), slow.Stats()
			if !tc.elided && !tc.wantErr && fs.BitflipsCommitted != ss.BitflipsCommitted {
				t.Errorf("flips counted %d, fast-path-disabled %d: a sense that was not elided lost flips",
					fs.BitflipsCommitted, ss.BitflipsCommitted)
			}
			if tc.elided && fs.BitflipsCommitted >= ss.BitflipsCommitted {
				t.Errorf("elided block still counted %d flips (disabled: %d); the dead sense was not skipped",
					fs.BitflipsCommitted, ss.BitflipsCommitted)
			}
			fs.BitflipsCommitted, ss.BitflipsCommitted = 0, 0
			fs.ECCCorrections, ss.ECCCorrections = 0, 0
			if fs != ss {
				t.Errorf("stats diverge:\nfast %+v\nslow %+v", fs, ss)
			}
		})
	}
}
