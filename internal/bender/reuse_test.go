package bender_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/hbm"
)

// probeProgram builds the paper's per-row test like buildHammerProgram
// and also returns the index of the hammer loop's OpLoop.
func probeProgram(t *testing.T, d *hbm.Device, bank addr.BankAddr, physVictim int, n int64) (*bender.Program, int) {
	t.Helper()
	m := d.Mapper()
	la, lb := m.ToLogical(physVictim-1), m.ToLogical(physVictim+1)
	b := bender.NewBuilder(d.Config().Timing, d.Geometry())
	b.DisableECC()
	b.WriteRowFill(bank, m.ToLogical(physVictim), 0xFF)
	b.WriteRowFill(bank, la, 0x00)
	b.WriteRowFill(bank, lb, 0x00)
	loop := b.Len()
	b.HammerDouble(bank, la, lb, n)
	b.ReadRowOut(bank, m.ToLogical(physVictim))
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, loop
}

// runOutcome is everything a run leaves observable: the reads, the
// elapsed time, and the device's counters and clock afterwards.
type runOutcome struct {
	reads   [][]byte
	elapsed int64
	stats   hbm.Stats
	now     int64
}

func outcome(t *testing.T, r *bender.Runner, d *hbm.Device, prog *bender.Program) runOutcome {
	t.Helper()
	res, err := r.Run(d, d.Geometry(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return runOutcome{reads: cloneReads(res.Reads), elapsed: res.Elapsed, stats: d.Stats(), now: d.Now()}
}

// cloneReads copies a Result's reads out of the runner's arena.
func cloneReads(reads [][]byte) [][]byte {
	out := make([][]byte, len(reads))
	for i, col := range reads {
		out[i] = bytes.Clone(col)
	}
	return out
}

// TestSetLoopCountRerunMatchesFreshBuild pins program reuse: re-running a
// validated program after SetLoopCount must leave exactly what running a
// freshly built program at the new count leaves — reads, elapsed time,
// device counters and clock — with the fast paths on and off.
func TestSetLoopCountRerunMatchesFreshBuild(t *testing.T) {
	layout := config.SmallChip().Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	bank := ba(7, 0, 0)
	counts := []int64{40_000, 9_000, 70_000} // down, then up past the first count
	for _, disableFast := range []bool{false, true} {
		dReuse, dFresh := newDevice(t), newDevice(t)
		rReuse := bender.NewRunner(dReuse.Config().Timing)
		rFresh := bender.NewRunner(dFresh.Config().Timing)
		rReuse.DisableFastPath, rFresh.DisableFastPath = disableFast, disableFast
		reused, loop := probeProgram(t, dReuse, bank, phys, counts[0])
		flips := 0
		for i, n := range counts {
			if i > 0 {
				if err := reused.SetLoopCount(loop, n); err != nil {
					t.Fatal(err)
				}
			}
			got := outcome(t, rReuse, dReuse, reused)
			fresh, _ := probeProgram(t, dFresh, bank, phys, n)
			want := outcome(t, rFresh, dFresh, fresh)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path disabled %v, count %d: re-run after SetLoopCount diverges from a fresh build:\nreused %+v %+v\nfresh  %+v %+v",
					disableFast, n, got.stats, got.now, want.stats, want.now)
			}
			flips += countFlips(&bender.Result{Reads: got.reads}, 0xFF)
		}
		if flips == 0 {
			t.Fatalf("fast path disabled %v: no count flipped a bit; the comparison cannot see the hammer", disableFast)
		}
	}
}

// TestSetLoopCountRejectsAndLeavesProgramUnchanged pins SetLoopCount's
// checks: only an OpLoop index and a positive count are accepted, and a
// rejected call changes nothing, so the program still runs as built.
func TestSetLoopCountRejectsAndLeavesProgramUnchanged(t *testing.T) {
	d := newDevice(t)
	layout := d.Config().Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	prog, loop := probeProgram(t, d, ba(7, 0, 0), phys, 2000)
	before := append([]bender.Instr(nil), prog.Instrs...)
	for _, c := range []struct {
		i int
		n int64
	}{
		{-1, 10}, {len(prog.Instrs), 10}, {loop + 1, 10}, {0, 10}, // not a loop
		{loop, 0}, {loop, -5}, // count below 1
	} {
		if err := prog.SetLoopCount(c.i, c.n); err == nil {
			t.Errorf("SetLoopCount(%d, %d) accepted", c.i, c.n)
		}
	}
	if !reflect.DeepEqual(prog.Instrs, before) {
		t.Fatal("a rejected SetLoopCount changed the program")
	}
	fresh, _ := probeProgram(t, d, ba(7, 0, 0), phys, 2000)
	dFresh := newDevice(t)
	got := outcome(t, bender.NewRunner(d.Config().Timing), d, prog)
	want := outcome(t, bender.NewRunner(dFresh.Config().Timing), dFresh, fresh)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("program run after rejected SetLoopCount calls diverges from a fresh build")
	}
}

// TestRunSegmentsRejectsBoundInsideLoop pins that a segment boundary
// strictly inside an OpLoop..OpEndLoop range — which neither the fast
// path (it applies the loop in bulk) nor the slow path (it would split
// iterations) can honour — is rejected before anything runs, on both
// paths, while boundaries just before and just after a loop are fine.
func TestRunSegmentsRejectsBoundInsideLoop(t *testing.T) {
	cfg := config.SmallChip()
	tm, g := cfg.Timing, cfg.Geometry
	bank := ba(7, 0, 0)
	b := bender.NewBuilder(tm, g)
	b.WriteRowFill(bank, 40, 0xFF)
	outer := b.Len()
	b.HammerDouble(bank, 39, 41, 5)
	afterHammer := b.Len()
	b.Loop(2, func(b *bender.Builder) {
		b.Loop(3, func(b *bender.Builder) {
			b.Ref(7, 0)
			b.Wait(tm.TRFC - tm.TCK)
		})
		b.Wait(tm.TRFC)
	})
	b.ReadRowOut(bank, 40)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	end := len(prog.Instrs)
	for _, disableFast := range []bool{false, true} {
		for _, bounds := range [][]int{
			{outer + 3, end},              // inside the hammer loop body
			{outer + 1, end},              // first body instruction
			{afterHammer - 1, end},        // the hammer loop's OpEndLoop
			{afterHammer + 2, end},        // inside the nested refresh loop
			{afterHammer + 5, end},        // inside the outer refresh loop, after the inner one
			{outer, afterHammer + 4, end}, // a legal bound, then the inner OpEndLoop
		} {
			d := newDevice(t)
			r := bender.NewRunner(tm)
			r.DisableFastPath = disableFast
			_, _, err := r.RunSegments(d, g, prog, bounds, allLive(len(bounds)), nil)
			if err == nil || !strings.Contains(err.Error(), "inside the loop") {
				t.Errorf("fast path disabled %v, bounds %v: got %v, want a bound-inside-loop error", disableFast, bounds, err)
			}
			if d.Now() != 0 || d.Stats() != (hbm.Stats{}) {
				t.Errorf("fast path disabled %v, bounds %v: the rejected program ran", disableFast, bounds)
			}
		}
		d := newDevice(t)
		r := bender.NewRunner(tm)
		r.DisableFastPath = disableFast
		_, segs, err := r.RunSegments(d, g, prog, []int{outer, afterHammer, end}, allLive(3), nil)
		if err != nil {
			t.Fatalf("fast path disabled %v: bounds around the loop rejected: %v", disableFast, err)
		}
		if len(segs) != 3 || segs[1].Elapsed <= 0 {
			t.Fatalf("fast path disabled %v: segments %+v", disableFast, segs)
		}
	}
}

// allLive returns a RunSegments mask that runs all n segments.
func allLive(n int) []bool {
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	return live
}

// TestRunSegmentsSkipsDeadSegments pins the live mask: a run with a
// dead segment equals a run of the program without it — same reads,
// clock and counters — and records the dead segment as no reads and no
// time, while a mask that does not match the bounds is an error before
// anything runs.
func TestRunSegmentsSkipsDeadSegments(t *testing.T) {
	cfg := config.SmallChip()
	tm, g := cfg.Timing, cfg.Geometry
	bank := ba(7, 0, 1)
	m := newDevice(t).Mapper()
	// probe emits one probe on physical victim v; three make the program.
	probe := func(b *bender.Builder, v int) {
		lv, la, lb := m.ToLogical(v), m.ToLogical(v-1), m.ToLogical(v+1)
		b.DisableECC()
		b.WriteRowFill(bank, lv, 0xFF)
		b.WriteRowFill(bank, la, 0x00)
		b.WriteRowFill(bank, lb, 0x00)
		b.HammerDouble(bank, la, lb, 200_000)
		b.ReadRowOut(bank, lv)
	}
	victims := []int{40, 300, 900}
	for _, disableFast := range []bool{false, true} {
		b := bender.NewBuilder(tm, g)
		var bounds []int
		for _, v := range victims {
			probe(b, v)
			bounds = append(bounds, b.Len())
		}
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		d := newDevice(t)
		r := bender.NewRunner(tm)
		r.DisableFastPath = disableFast
		for _, live := range [][]bool{nil, {true, false}, allLive(4)} {
			if _, _, err := r.RunSegments(d, g, prog, bounds, live, nil); err == nil {
				t.Fatalf("mask of %d for %d segments accepted", len(live), len(bounds))
			}
		}
		if d.Now() != 0 || d.Stats() != (hbm.Stats{}) {
			t.Fatal("a run with a mismatched mask touched the device")
		}
		res, segs, err := r.RunSegments(d, g, prog, bounds, []bool{true, false, true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := runOutcome{reads: cloneReads(res.Reads), elapsed: res.Elapsed, stats: d.Stats(), now: d.Now()}
		if segs[1] != (bender.Segment{Reads: [2]int{segs[0].Reads[1], segs[0].Reads[1]}}) || segs[0].Elapsed <= 0 || segs[2].Elapsed <= 0 {
			t.Fatalf("fast path disabled %v: segments %+v", disableFast, segs)
		}

		b = bender.NewBuilder(tm, g)
		probe(b, victims[0])
		probe(b, victims[2])
		if prog, err = b.Build(); err != nil {
			t.Fatal(err)
		}
		r = bender.NewRunner(tm)
		r.DisableFastPath = disableFast
		want := outcome(t, r, newDevice(t), prog)
		if countFlips(&bender.Result{Reads: want.reads}, 0xFF) == 0 {
			t.Fatal("the live probes flipped nothing; the comparison shows little")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path disabled %v: skipping a segment differs from leaving it out (stats %+v vs %+v)",
				disableFast, got.stats, want.stats)
		}
	}
}

// TestRunnerPlanFollowsProgramContents pins the runner's per-program
// overwrite plan against Builder reuse: the builder hands out the same
// *Program for every build, so a plan cached for one program must not
// survive into the next one's run. Here the second program has its
// read-out ACT where the first had an overwrite block's ACT; a stale
// plan would skip that read's sense and lose its retention flips.
func TestRunnerPlanFollowsProgramContents(t *testing.T) {
	cfg := config.SmallChip()
	tm, g := cfg.Timing, cfg.Geometry
	bank := ba(3, 1, 0)
	const row = 77
	const idle = 60_000_000_000_000 // a minute: enough for retention flips
	first := func(b *bender.Builder) {
		b.WriteRowFill(bank, row, 0x00)
		b.Wait(idle)
		b.WriteRowFill(bank, row, 0x00)
		b.ReadRowOut(bank, row)
	}
	second := func(b *bender.Builder) {
		b.WriteRowFill(bank, row, 0x00)
		b.Wait(idle)
		b.ReadRowOut(bank, row)
	}
	build := func(b *bender.Builder, emit func(*bender.Builder)) *bender.Program {
		b.Reset()
		emit(b)
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	// One builder and runner for both programs.
	dShared := newDevice(t)
	bShared := bender.NewBuilder(tm, g)
	rShared := bender.NewRunner(tm)
	outcome(t, rShared, dShared, build(bShared, first))
	got := outcome(t, rShared, dShared, build(bShared, second))
	// A fresh builder and runner for the second program.
	dFresh := newDevice(t)
	outcome(t, bender.NewRunner(tm), dFresh, build(bender.NewBuilder(tm, g), first))
	want := outcome(t, bender.NewRunner(tm), dFresh, build(bender.NewBuilder(tm, g), second))
	if n := countFlips(&bender.Result{Reads: want.reads}, 0x00); n == 0 {
		t.Fatal("the read-out saw no retention flips; the test cannot tell a stale plan")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a runner reused across builder programs diverges from a fresh one")
	}
}

// TestRunnerChecksAddressesOffTheDeviceGeometry pins the guard on the
// device's unchecked core: a program validated against a geometry other
// than the device's has banks the device may not have, so the runner
// must issue it through the checked commands, which reject them, rather
// than resolve them into the device's bank table.
func TestRunnerChecksAddressesOffTheDeviceGeometry(t *testing.T) {
	d := newDevice(t)
	wide := d.Geometry()
	wide.Channels *= 2
	b := bender.NewBuilder(d.Config().Timing, wide)
	b.Act(ba(wide.Channels-1, 0, 0), 5)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, disableFast := range []bool{false, true} {
		r := bender.NewRunner(d.Config().Timing)
		r.DisableFastPath = disableFast
		if _, err := r.Run(d, wide, prog); !errors.Is(err, hbm.ErrAddress) {
			t.Fatalf("DisableFastPath=%v: running a bank outside the device gave %v, want ErrAddress", disableFast, err)
		}
	}
	if d.Stats() != (hbm.Stats{}) || d.Now() != 0 {
		t.Fatalf("the rejected command touched the device: %+v at %d ps", d.Stats(), d.Now())
	}
}
