package hbm

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// The sense fast path must be bit-for-bit identical to the reference
// implementation across every observable: row data, disturbance state,
// charge clocks, and device statistics. These tests drive a fast-path and
// a reference-path device with identical command scripts — hammers of
// varying intensity and hold times, writes, reads, long idles (retention
// decay), temperature changes, ECC toggling, refreshes — and compare the
// complete device state after every script.

// equivConfig is a deliberately small geometry so scripts touch a large
// fraction of the chip (dense interactions between neighbouring rows) at
// fuzz-friendly speed.
func equivConfig() *config.Config {
	cfg := config.SmallChip()
	cfg.Geometry.Banks = 2
	cfg.Geometry.Rows = 128
	cfg.Geometry.Columns = 4
	cfg.Geometry.ColumnBytes = 8
	cfg.SubarraySizes = []int{48, 48, 32}
	return cfg
}

func newEquivPair(t testing.TB) (fast, ref *Device) {
	t.Helper()
	cfg := equivConfig()
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetSenseReference(true)
	return fast, ref
}

// applyOp decodes one scripted operation and applies it to a device.
// Returns the operation's error (compared across devices, never fatal)
// and any read-out data.
func applyOp(d *Device, op, a, b byte) (readout []byte, err error) {
	g := d.Geometry()
	m := d.Mapper()
	ba := addr.BankAddr{
		Channel:       int(a) % g.Channels,
		PseudoChannel: int(a>>3) % g.PseudoChannels,
		Bank:          int(a>>4) % g.Banks,
	}
	physVictim := 1 + int(b)%(g.Rows-2)
	lrow := m.ToLogical(int(b) % g.Rows)
	hammers := 20_000 + int(b)*2_000
	switch op % 9 {
	case 0:
		return nil, d.HammerPairHold(ba, m.ToLogical(physVictim-1), m.ToLogical(physVictim+1), hammers, d.Config().Timing.TRAS)
	case 1:
		return nil, d.HammerSingleHold(ba, m.ToLogical(physVictim), hammers, d.Config().Timing.TRAS)
	case 2:
		pattern := bytes.Repeat([]byte{a ^ b}, g.RowBytes())
		return nil, writeRow(d, ba, lrow, pattern)
	case 3:
		return readRow(d, ba, lrow)
	case 4:
		// Idle up to ~25 s of simulated time: retention decay territory.
		return nil, d.AdvanceTime((int64(b) + 1) * 100_000_000_000)
	case 5:
		d.SetTemperature(40 + float64(b%60))
		return nil, nil
	case 6:
		return nil, d.WriteModeRegister(ba.Channel, MRECC, uint32(b&1))
	case 7:
		return nil, d.Refresh(ba.Channel, ba.PseudoChannel)
	default:
		hold := d.cfg.Timing.TRAS * int64(1+b%20)
		return nil, d.HammerPairHold(ba, m.ToLogical(physVictim-1), m.ToLogical(physVictim+1), hammers/4, hold)
	}
}

// rowImagesEqual compares two row images where nil means the all-zero
// power-up pattern.
func rowImagesEqual(x, y []byte) bool {
	if x == nil {
		x, y = y, x
	}
	if y != nil {
		return bytes.Equal(x, y)
	}
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// compareDevices fails the test unless both devices are observably
// identical: clocks, statistics, and the full per-row physical state.
func compareDevices(t *testing.T, fast, ref *Device) {
	t.Helper()
	if fast.Now() != ref.Now() {
		t.Fatalf("clocks diverge: fast %d, ref %d", fast.Now(), ref.Now())
	}
	if fast.Stats() != ref.Stats() {
		t.Fatalf("stats diverge:\nfast %+v\nref  %+v", fast.Stats(), ref.Stats())
	}
	compareRows(t, fast, ref)
}

// compareRows fails the test unless every row of both devices has the
// same data image, disturbance and charge clock.
// bankOf returns the state of bank ch.pc.bk, for white-box checks.
func (d *Device) bankOf(ch, pc, bk int) *bankState {
	return &d.banks[addr.BankAddr{Channel: ch, PseudoChannel: pc, Bank: bk}.Flat(d.cfg.Geometry)]
}

func compareRows(t *testing.T, fast, ref *Device) {
	t.Helper()
	g := fast.Geometry()
	for ch := 0; ch < g.Channels; ch++ {
		for pc := 0; pc < g.PseudoChannels; pc++ {
			for bk := 0; bk < g.Banks; bk++ {
				fb := fast.bankOf(ch, pc, bk)
				rb := ref.bankOf(ch, pc, bk)
				for phys := 0; phys < g.Rows; phys++ {
					fr, rr := fb.rowAt(phys), rb.rowAt(phys)
					var fd, rd []byte
					var fdist, rdist float64
					var fsense, rsense int64
					if fr != nil {
						fd, fdist, fsense = fr.data, fr.disturb, fr.lastSense
					}
					if rr != nil {
						rd, rdist, rsense = rr.data, rr.disturb, rr.lastSense
					}
					if fdist != rdist || fsense != rsense {
						t.Fatalf("ch%d.pc%d.ba%d row %d: disturb/lastSense diverge: fast (%v, %d), ref (%v, %d)",
							ch, pc, bk, phys, fdist, fsense, rdist, rsense)
					}
					if !rowImagesEqual(fd, rd) {
						t.Fatalf("ch%d.pc%d.ba%d row %d: data diverges", ch, pc, bk, phys)
					}
				}
			}
		}
	}
}

// runScript drives both devices through a script of 3-byte operations,
// checking operation-level agreement as it goes and full state equality
// at the end.
func runScript(t *testing.T, script []byte) {
	t.Helper()
	fast, ref := newEquivPair(t)
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		fOut, fErr := applyOp(fast, op, a, b)
		rOut, rErr := applyOp(ref, op, a, b)
		if (fErr == nil) != (rErr == nil) || (fErr != nil && fErr.Error() != rErr.Error()) {
			t.Fatalf("op %d (%d %d %d): errors diverge: fast %v, ref %v", i/3, op, a, b, fErr, rErr)
		}
		if !bytes.Equal(fOut, rOut) {
			t.Fatalf("op %d (%d %d %d): read-out diverges", i/3, op, a, b)
		}
	}
	compareDevices(t, fast, ref)
}

// FuzzSenseEquivalence is the differential fuzz target pinning the fast
// sense path to the reference implementation. `go test` exercises the
// seed corpus; `go test -fuzz=FuzzSenseEquivalence ./internal/hbm` digs.
func FuzzSenseEquivalence(f *testing.F) {
	f.Add([]byte{0, 7<<4 | 7, 40, 3, 7<<4 | 7, 40})                  // hammer ch7, read victim
	f.Add([]byte{4, 0, 255, 3, 0, 10, 0, 0, 10, 3, 0, 10})           // long idle, read, hammer, read
	f.Add([]byte{2, 9, 0xA5, 0, 9, 60, 6, 9, 1, 0, 9, 60, 3, 9, 60}) // write, hammer, ECC on, hammer, read
	f.Add([]byte{5, 0, 55, 8, 3, 200, 4, 3, 120, 3, 3, 77})          // cool, pressed hammer, idle, read
	f.Add([]byte{7, 1, 1, 7, 1, 2, 0, 1, 90, 7, 1, 3})               // refreshes interleaved with hammering
	// Key-cut edges, ECC off: write the victim, hammer, read it. The first
	// ends 1548 hammers past one cell's flip point, with that cell alone
	// admitted in its word; the second ends 15 hammers short of the row's
	// first flip, with the key cut admitting the row.
	f.Add([]byte{6, 1, 0, 2, 1, 70, 0, 1, 69, 3, 1, 70})
	f.Add([]byte{6, 6, 0, 2, 6, 122, 0, 6, 121, 3, 6, 122})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 60 {
			script = script[:60] // bound per-input work
		}
		runScript(t, script)
	})
}

// TestSenseEquivalenceRandomScripts complements the fuzz corpus with a
// broader deterministic randomized sweep that always runs under `go test`.
func TestSenseEquivalenceRandomScripts(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential sweep")
	}
	s := rng.NewStream(0xE0_1D)
	for round := 0; round < 12; round++ {
		script := make([]byte, 3*10)
		for i := range script {
			script[i] = byte(s.Next())
		}
		t.Run(fmt.Sprintf("round%02d", round), func(t *testing.T) {
			runScript(t, script)
		})
	}
}

// TestSenseEquivalencePaperRowWidth drives the fast and reference paths
// on 8192-bit rows, the paper geometry's width, where the disturbance
// scan walks 128 key words instead of equivConfig's 4. The double-sided
// hammer counts climb from just below the victim's weakest cell (the
// row-minimum gate must reject the row) through just above it (that cell
// must flip) to a screen that admits nine in ten bits. Two more counts put
// the screen exactly on a quartile cell's threshold and one hammer below
// it: that cell's word passes the screen only in part, the key cut must
// admit the cell at the edge and its exact threshold must reject it one
// hammer earlier. One pressed hammer and one long idle follow. The whole
// ladder runs with on-die ECC off and again with it on.
func TestSenseEquivalencePaperRowWidth(t *testing.T) {
	cfg := equivConfig()
	cfg.Geometry.Columns = 32
	cfg.Geometry.ColumnBytes = 32
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetSenseReference(true)
	if bits := cfg.Geometry.RowBits(); bits != 8192 {
		t.Fatalf("row width %d bits, want 8192", bits)
	}

	ba := addr.BankAddr{Channel: 7}
	m := fast.Mapper()
	layout := cfg.Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	victim, up, down := m.ToLogical(phys), m.ToLogical(phys-1), m.ToLogical(phys+1)

	// One double-sided hammer adds one disturbance unit at minimum
	// timing and 85 C, and the screen divides by CouplingBoth.
	prof := fast.fm.Profile(ba, phys)
	thr := make([]float32, cfg.Geometry.RowBits())
	for i := range thr {
		thr[i] = fast.fm.Threshold(prof, i)
	}
	minThr := slices.Min(thr)
	weakest := slices.Index(thr, minThr)
	sorted := slices.Clone(thr)
	slices.Sort(sorted)
	cb := cfg.Fault.CouplingBoth
	screen := func(t float32) int { return int(float64(t) * cb) }
	lo, hi := screen(minThr)+1, screen(sorted[len(sorted)*9/10])
	counts := []int{lo - 1, lo}
	for n := 2 * lo; n < hi; n *= 2 {
		counts = append(counts, n)
	}
	counts = append(counts, hi)

	// edge is the first hammer count whose float32 screen, the one the
	// fast path derives its key cut from, admits the quartile cell.
	quartile := slices.Index(thr, sorted[len(sorted)/4])
	for d := 1; max(quartile-weakest, weakest-quartile) < 3 || quartile == 0 || quartile == len(thr)-1; d++ {
		quartile = slices.Index(thr, sorted[len(sorted)/4+d])
	}
	edge := screen(thr[quartile]) - 1
	for floor32(float64(edge)/cb) < thr[quartile] {
		edge++
	}
	if floor32(float64(edge-1)/cb) >= thr[quartile] {
		t.Fatalf("hammer count %d is not the first to admit threshold %v", edge, thr[quartile])
	}
	w := quartile >> 6
	admitted := 0
	for _, v := range thr[w<<6 : (w+1)<<6] {
		if v <= floor32(float64(edge)/cb) {
			admitted++
		}
	}
	if admitted == 64 {
		t.Fatalf("the quartile cell's word passes the screen whole at %d hammers", edge)
	}
	keys, _, _ := fast.fm.Keys(prof)
	if cut := fast.fm.Cut(prof, floor32(float64(edge)/cb)); int(keys[quartile]) > cut {
		t.Fatalf("the key cut %d rejects the quartile cell's key %d at its edge", cut, keys[quartile])
	}
	counts = append(counts, edge-1, edge)

	s := rng.NewStream(0x8192)
	pattern := func() []byte {
		p := make([]byte, cfg.Geometry.RowBytes())
		for i := range p {
			p[i] = byte(s.Next())
		}
		return p
	}
	both := func(step string, f func(d *Device) error) {
		t.Helper()
		if fErr, rErr := f(fast), f(ref); fErr != nil || rErr != nil {
			t.Fatalf("%s: fast %v, ref %v", step, fErr, rErr)
		}
	}
	readVictim := func(step string) []byte {
		t.Helper()
		fOut, fErr := readRow(fast, ba, victim)
		rOut, rErr := readRow(ref, ba, victim)
		if fErr != nil || rErr != nil {
			t.Fatalf("%s: read: fast %v, ref %v", step, fErr, rErr)
		}
		if !bytes.Equal(fOut, rOut) {
			t.Fatalf("%s: victim read-out diverges", step)
		}
		compareDevices(t, fast, ref)
		return fOut
	}
	// write lays fresh random data into the victim and both aggressors,
	// then sets the victim's weakest and quartile cells up to flip at
	// their edges: charged, opposite data in both aggressors, and equal
	// data on either side in their own row. It returns the victim's image.
	setBit := func(p []byte, i int, v byte) {
		p[i>>3] = p[i>>3]&^(1<<(uint(i)&7)) | v<<(uint(i)&7)
	}
	write := func(step string) []byte {
		t.Helper()
		rows := map[int][]byte{up: pattern(), victim: pattern(), down: pattern()}
		for _, cell := range []int{weakest, quartile} {
			var v byte
			if prof.IsTrue(cell) {
				v = 1
			}
			for i := max(cell-1, 0); i <= min(cell+1, len(thr)-1); i++ {
				setBit(rows[victim], i, v)
			}
			setBit(rows[up], cell, 1-v)
			setBit(rows[down], cell, 1-v)
		}
		for _, row := range []int{up, victim, down} {
			both(step, func(d *Device) error { return writeRow(d, ba, row, rows[row]) })
		}
		return rows[victim]
	}

	for _, ecc := range []uint32{0, 1} {
		both("ecc", func(d *Device) error { return d.WriteModeRegister(ba.Channel, MRECC, ecc) })
		for _, n := range counts {
			step := fmt.Sprintf("ecc=%d hammers=%d", ecc, n)
			written := write(step)
			before := fast.Stats()
			both(step, func(d *Device) error { return d.HammerPairHold(ba, up, down, n, d.Config().Timing.TRAS) })
			out := readVictim(step)
			after := fast.Stats()
			if flipped := rowBit(out, quartile) != rowBit(written, quartile); ecc == 0 &&
				(n == edge-1 && flipped || n == edge && !flipped) {
				t.Fatalf("%s: quartile cell flipped=%v at its edge %d", step, flipped, edge)
			}
			sensed := after.BitflipsCommitted + after.ECCCorrections - before.BitflipsCommitted - before.ECCCorrections
			if n < lo && sensed != 0 {
				t.Fatalf("%s: %d flips below the row minimum", step, sensed)
			}
			if n == lo && sensed == 0 {
				t.Fatalf("%s: the weakest cell did not flip at the gate", step)
			}
		}
		step := fmt.Sprintf("ecc=%d pressed", ecc)
		write(step)
		hold := cfg.Timing.TRAS * 8
		both(step, func(d *Device) error { return d.HammerPairHold(ba, up, down, lo, hold) })
		readVictim(step)

		step = fmt.Sprintf("ecc=%d idle", ecc)
		write(step)
		both(step, func(d *Device) error { return d.AdvanceTime(25_000_000_000_000) })
		readVictim(step)
	}
	// The ladder must reach the dense screen: without flips it compared
	// nothing.
	if got, want := fast.Stats().BitflipsCommitted, int64(len(thr)/10); got < want {
		t.Fatalf("ladder committed %d flips, want at least %d", got, want)
	}
}

// TestFloor32ScreenIsExact pins the fast path's float32 screen: for
// every float32 threshold t, t <= floor32(x) must agree with the float64
// comparison the reference path makes, including at and around x itself
// and beyond the float32 range.
func TestFloor32ScreenIsExact(t *testing.T) {
	s := rng.NewStream(0xF32)
	xs := []float64{1, 0.1, 1e-40, 150_000.3, math.MaxFloat32, math.MaxFloat32 * 1.0000001, 1e300}
	for i := 0; i < 2000; i++ {
		xs = append(xs, math.Exp(40*s.Float64()-10))
	}
	for _, x := range xs {
		f := floor32(x)
		up := math.Nextafter32(f, float32(math.Inf(1)))
		down := math.Nextafter32(f, float32(math.Inf(-1)))
		for _, thr := range []float32{f, up, down, float32(x)} {
			if got, want := thr <= f, float64(thr) <= x; got != want {
				t.Fatalf("x=%v t=%v: float32 screen says %v, float64 comparison %v", x, thr, got, want)
			}
		}
	}
}

// TestSenseSteadyStateAllocs pins the sense fast path's allocation-free
// steady state: once a row's profile aggregates and scratch buffers are
// warm, a hammer-then-sense probe cycle allocates nothing.
func TestSenseSteadyStateAllocs(t *testing.T) {
	cfg := equivConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Mapper()
	ba := addr.BankAddr{Channel: 7}
	layout := d.Config().Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	la, lb, lv := m.ToLogical(phys-1), m.ToLogical(phys+1), m.ToLogical(phys)
	tm := d.Config().Timing
	cycle := func() {
		if err := d.HammerPairHold(ba, la, lb, 150_000, d.Config().Timing.TRAS); err != nil {
			t.Fatal(err)
		}
		if err := d.AdvanceTime(tm.TRP); err != nil {
			t.Fatal(err)
		}
		if err := d.Activate(ba, lv); err != nil {
			t.Fatal(err)
		}
		if err := d.AdvanceTime(tm.TRAS); err != nil {
			t.Fatal(err)
		}
		if err := d.Precharge(ba); err != nil {
			t.Fatal(err)
		}
		if err := d.AdvanceTime(tm.TRP); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm profiles, row states, scratch
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("steady-state hammer+sense cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestReadIntoMatchesRead pins the caller-provided-buffer read variant to
// the allocating one.
func TestReadIntoMatchesRead(t *testing.T) {
	cfg := equivConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ba := addr.BankAddr{Channel: 2}
	pattern := bytes.Repeat([]byte{0x5A}, d.Geometry().RowBytes())
	if err := writeRow(d, ba, 5, pattern); err != nil {
		t.Fatal(err)
	}
	if err := openRow(d, ba, 5); err != nil {
		t.Fatal(err)
	}
	defer closeRow(d, ba)
	want, err := d.Read(ba, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, d.Geometry().ColumnBytes)
	if err := d.ReadInto(ba, 1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, dst) {
		t.Fatalf("ReadInto = %x, Read = %x", dst, want)
	}
	if err := d.ReadInto(ba, 1, dst[:2]); err == nil {
		t.Fatal("short destination buffer accepted")
	}
	// An unmaterialized row reads as the power-up pattern.
	unb := addr.BankAddr{Channel: 3}
	if err := openRow(d, unb, 9); err != nil {
		t.Fatal(err)
	}
	defer closeRow(d, unb)
	for i := range dst {
		dst[i] = 0xFF
	}
	if err := d.ReadInto(unb, 0, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("byte %d of pristine row = %#x, want 0", i, v)
		}
	}
}
