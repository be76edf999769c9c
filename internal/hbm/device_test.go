package hbm

import (
	"bytes"
	"errors"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
)

func newDevice(t testing.TB, cfg *config.Config) *Device {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func bankAddr(ch, pc, ba int) addr.BankAddr {
	return addr.BankAddr{Channel: ch, PseudoChannel: pc, Bank: ba}
}

// disableECC clears the ECC mode register bit on every channel, as the
// paper's experimental setup does before characterization.
func disableECC(t testing.TB, d *Device) {
	t.Helper()
	for ch := 0; ch < d.Geometry().Channels; ch++ {
		if err := d.WriteModeRegister(ch, MRECC, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func rowPattern(d *Device, b byte) []byte {
	return bytes.Repeat([]byte{b}, d.Geometry().RowBytes())
}

// doubleSidedSetup writes victim/aggressor data around the physical row
// physVictim and returns the logical addresses (victim, below, above).
func doubleSidedSetup(t *testing.T, d *Device, b addr.BankAddr, physVictim int, victim, aggr byte) (int, int, int) {
	t.Helper()
	m := d.Mapper()
	lv, la, lb := m.ToLogical(physVictim), m.ToLogical(physVictim-1), m.ToLogical(physVictim+1)
	for r, pat := range map[int]byte{lv: victim, la: aggr, lb: aggr} {
		if err := writeRow(d, b, r, rowPattern(d, pat)); err != nil {
			t.Fatal(err)
		}
	}
	return lv, la, lb
}

func TestPowerUpReadsZero(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	got, err := readRow(d, bankAddr(0, 0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("byte %d = %#x at power-up, want 0", i, v)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	b := bankAddr(3, 1, 2)
	want := make([]byte, d.Geometry().RowBytes())
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := writeRow(d, b, 100, want); err != nil {
		t.Fatal(err)
	}
	got, err := readRow(d, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("row data corrupted without any fault stimulus")
	}
}

func TestBankStateMachineErrors(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	b := bankAddr(0, 0, 0)
	if err := d.Activate(flat(d, b), 10, false); err != nil {
		t.Fatal(err)
	}
	// Activating an already-open bank is illegal.
	if err := d.Activate(flat(d, b), 11, false); !errors.Is(err, ErrState) {
		t.Fatalf("double activate: err = %v, want ErrState", err)
	}
	// Column access before tRCD is a timing violation.
	col := make([]byte, d.Geometry().ColumnBytes)
	if err := d.Read(flat(d, b), 0, col); !errors.Is(err, ErrTiming) {
		t.Fatalf("early read: err = %v, want ErrTiming", err)
	}
	// Precharge before tRAS is a timing violation.
	if err := d.Precharge(flat(d, b)); !errors.Is(err, ErrTiming) {
		t.Fatalf("early precharge: err = %v, want ErrTiming", err)
	}
	// Refresh with a bank open is illegal.
	if err := d.AdvanceTime(d.Config().Timing.TRFC); err != nil {
		t.Fatal(err)
	}
	if err := d.Refresh(0, 0); !errors.Is(err, ErrState) {
		t.Fatalf("refresh with open bank: err = %v, want ErrState", err)
	}
}

func TestColumnAccessOnPrechargedBank(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	col := make([]byte, d.Geometry().ColumnBytes)
	if err := d.Read(0, 0, col); !errors.Is(err, ErrState) {
		t.Fatalf("read on precharged bank: err = %v, want ErrState", err)
	}
}

func TestAddressValidation(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	g := d.Geometry()
	if err := d.Activate(flat(d, bankAddr(g.Channels, 0, 0)), 0, false); !errors.Is(err, ErrAddress) {
		t.Fatal("bad channel accepted")
	}
	if err := d.Activate(flat(d, bankAddr(0, 0, 0)), g.Rows, false); !errors.Is(err, ErrAddress) {
		t.Fatal("bad row accepted")
	}
	if err := hammerPair(d, bankAddr(0, 0, 0), 5, 5, 10, d.Config().Timing.TRAS); !errors.Is(err, ErrAddress) {
		t.Fatal("hammering the same physical row twice accepted")
	}
	if err := hammerPair(d, bankAddr(0, 0, 0), 5, 7, 0, d.Config().Timing.TRAS); !errors.Is(err, ErrAddress) {
		t.Fatal("zero hammer count accepted")
	}
	if _, err := d.ReadModeRegister(0, NumModeRegisters); !errors.Is(err, ErrAddress) {
		t.Fatal("bad mode register index accepted")
	}
}

// TestBankCommandsRejectOutOfRangeAddresses pins the address check of
// every bank command: a flat bank, row or column index outside the
// device, on either side, is ErrAddress and leaves the counters and the
// clock as they were. Bank 0 has a row open past tRCD, so the same
// commands at in-range addresses would pass their state and timing
// checks.
func TestBankCommandsRejectOutOfRangeAddresses(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	g := d.Geometry()
	tm := d.Config().Timing
	if err := d.Activate(0, 10, false); err != nil {
		t.Fatal(err)
	}
	if err := d.AdvanceTime(tm.TRAS); err != nil {
		t.Fatal(err)
	}
	col := make([]byte, g.ColumnBytes)
	banks, rows, cols := g.TotalBanks(), g.Rows, g.Columns
	cases := []struct {
		name string
		cmd  func() error
	}{
		{"activate bank -1", func() error { return d.Activate(-1, 0, false) }},
		{"activate bank past the end", func() error { return d.Activate(banks, 0, true) }},
		{"activate row -1", func() error { return d.Activate(1, -1, false) }},
		{"activate row past the end", func() error { return d.Activate(1, rows, false) }},
		{"precharge bank -1", func() error { return d.Precharge(-1) }},
		{"precharge bank past the end", func() error { return d.Precharge(banks) }},
		{"read bank -1", func() error { return d.Read(-1, 0, col) }},
		{"read bank past the end", func() error { return d.Read(banks, 0, col) }},
		{"read column -1", func() error { return d.Read(0, -1, col) }},
		{"read column past the end", func() error { return d.Read(0, cols, col) }},
		{"write bank -1", func() error { return d.Write(-1, 0, col) }},
		{"write bank past the end", func() error { return d.Write(banks, 0, col) }},
		{"write column -1", func() error { return d.Write(0, -1, col) }},
		{"write column past the end", func() error { return d.Write(0, cols, col) }},
		{"row write bank -1", func() error { return d.WriteRow(-1, col) }},
		{"row write bank past the end", func() error { return d.WriteRow(banks, col) }},
		{"hammer bank -1", func() error { return d.Hammer(-1, [2]int{1, 3}, 2, 10, tm.TRAS) }},
		{"hammer bank past the end", func() error { return d.Hammer(banks, [2]int{1, 3}, 2, 10, tm.TRAS) }},
		{"hammer first row -1", func() error { return d.Hammer(1, [2]int{-1, 3}, 2, 10, tm.TRAS) }},
		{"hammer second row past the end", func() error { return d.Hammer(1, [2]int{1, rows}, 2, 10, tm.TRAS) }},
		{"hammer single row past the end", func() error { return d.Hammer(1, [2]int{rows}, 1, 10, tm.TRAS) }},
		{"hammer no aggressor", func() error { return d.Hammer(1, [2]int{1, 3}, 0, 10, tm.TRAS) }},
		{"hammer three aggressors", func() error { return d.Hammer(1, [2]int{1, 3}, 3, 10, tm.TRAS) }},
	}
	for _, tc := range cases {
		stats, now := d.Stats(), d.Now()
		if err := tc.cmd(); !errors.Is(err, ErrAddress) {
			t.Errorf("%s: err = %v, want ErrAddress", tc.name, err)
		}
		if d.Stats() != stats || d.Now() != now {
			t.Errorf("%s: the refused command moved the device from %+v at %d ps to %+v at %d ps",
				tc.name, stats, now, d.Stats(), d.Now())
		}
	}
	// The open row is still usable: only the addresses were wrong.
	if err := d.Read(0, cols-1, col); err != nil {
		t.Fatalf("in-range read after the refused commands: %v", err)
	}
}

func TestTRPEnforcedAfterPrecharge(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	b := bankAddr(0, 0, 0)
	tm := d.Config().Timing
	if err := d.Activate(flat(d, b), 1, false); err != nil {
		t.Fatal(err)
	}
	if err := d.AdvanceTime(tm.TRAS); err != nil {
		t.Fatal(err)
	}
	if err := d.Precharge(flat(d, b)); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(flat(d, b), 2, false); !errors.Is(err, ErrTiming) {
		t.Fatalf("activate before tRP: err = %v, want ErrTiming", err)
	}
	if err := d.AdvanceTime(tm.TRP); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(flat(d, b), 2, false); err != nil {
		t.Fatalf("activate after tRP: %v", err)
	}
}

func TestModeRegisters(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	v, err := d.ReadModeRegister(2, MRECC)
	if err != nil {
		t.Fatal(err)
	}
	if v&MRECCEnable == 0 {
		t.Fatal("ECC must be enabled at power-up (the paper explicitly disables it)")
	}
	if err := d.WriteModeRegister(2, MRECC, 0); err != nil {
		t.Fatal(err)
	}
	v, err = d.ReadModeRegister(2, MRECC)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("MRECC = %#x after clear, want 0", v)
	}
}

// midSubarrayRow returns a physical row in the middle of an interior
// subarray, where RowHammer thresholds are lowest.
func midSubarrayRow(d *Device, sa int) int {
	l := d.fm.Layout()
	return l.Start(sa) + l.Size(sa)/2
}

func TestDoubleSidedHammerFlipsVictim(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	disableECC(t, d)
	b := bankAddr(7, 0, 0) // channel 7: the most vulnerable channel
	phys := midSubarrayRow(d, 1)
	lv, la, lb := doubleSidedSetup(t, d, b, phys, 0xFF, 0x00)
	if err := hammerPair(d, b, la, lb, 256*1024, d.Config().Timing.TRAS); err != nil {
		t.Fatal(err)
	}
	if err := d.AdvanceTime(cfg.Timing.TRP); err != nil {
		t.Fatal(err)
	}
	got, err := readRow(d, b, lv)
	if err != nil {
		t.Fatal(err)
	}
	flips := countMismatches(got, rowPattern(d, 0xFF))
	if flips == 0 {
		t.Fatal("256K double-sided hammers induced no bitflips in channel 7")
	}
	// All flips must be charge loss: 1 -> 0 for the 0xFF victim pattern
	// means no bit may be set that was not set before (none were clear).
	for i, v := range got {
		if v&^0xFF != 0 {
			t.Fatalf("byte %d gained bits: %#x", i, v)
		}
	}
	// Aggressors are sensed every activation and must be intact.
	for _, r := range []int{la, lb} {
		gotA, err := readRow(d, b, r)
		if err != nil {
			t.Fatal(err)
		}
		if n := countMismatches(gotA, rowPattern(d, 0x00)); n != 0 {
			t.Fatalf("aggressor row %d has %d flips; aggressors self-refresh", r, n)
		}
	}
}

func TestHammerBelowThresholdFlipsNothing(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	disableECC(t, d)
	b := bankAddr(7, 0, 0)
	phys := midSubarrayRow(d, 1)
	lv, la, lb := doubleSidedSetup(t, d, b, phys, 0xFF, 0x00)
	// HCFloor is the absolute minimum threshold: hammering below it can
	// never flip anything.
	if err := hammerPair(d, b, la, lb, int(cfg.Fault.HCFloor)-1, d.Config().Timing.TRAS); err != nil {
		t.Fatal(err)
	}
	if err := d.AdvanceTime(cfg.Timing.TRP); err != nil {
		t.Fatal(err)
	}
	got, err := readRow(d, b, lv)
	if err != nil {
		t.Fatal(err)
	}
	if n := countMismatches(got, rowPattern(d, 0xFF)); n != 0 {
		t.Fatalf("%d flips below the absolute threshold floor", n)
	}
}

func TestDisturbanceDoesNotCrossSubarrayBoundary(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	disableECC(t, d)
	b := bankAddr(7, 0, 0)
	l := d.fm.Layout()
	edge := l.End(0) - 1 // last physical row of subarray 0
	m := d.Mapper()
	if err := hammerSingle(d, b, m.ToLogical(edge), 300000, d.Config().Timing.TRAS); err != nil {
		t.Fatal(err)
	}
	// The row across the boundary must have accumulated no disturbance.
	bank := d.bankOf(b.Channel, b.PseudoChannel, b.Bank)
	if rs := bank.rowAt(edge + 1); rs != nil && rs.disturb != 0 {
		t.Fatalf("row %d across the subarray boundary accumulated %v disturbance", edge+1, rs.disturb)
	}
	// The in-subarray neighbour must have.
	rs := bank.rowAt(edge - 1)
	if rs == nil || rs.disturb == 0 {
		t.Fatal("in-subarray neighbour accumulated no disturbance")
	}
}

func TestHammerPairMatchesExplicitActPreLoop(t *testing.T) {
	cfg := config.SmallChip()
	tm := cfg.Timing
	const n = 10
	b := bankAddr(4, 1, 1)
	phys := midSubarrayRow(newDevice(t, cfg), 2)

	bulk := newDevice(t, cfg)
	la := bulk.Mapper().ToLogical(phys - 1)
	lb := bulk.Mapper().ToLogical(phys + 1)
	if err := hammerPair(bulk, b, la, lb, n, bulk.Config().Timing.TRAS); err != nil {
		t.Fatal(err)
	}

	loop := newDevice(t, cfg)
	for i := 0; i < n; i++ {
		for _, r := range []int{la, lb} {
			// Hold each row open for exactly tRAS (the command cycle
			// plus tRAS-tCK), as the program builder emits, so no
			// RowPress amplification accrues.
			if err := loop.Activate(flat(loop, b), r, false); err != nil {
				t.Fatal(err)
			}
			if err := loop.AdvanceTime(tm.TRAS - tm.TCK); err != nil {
				t.Fatal(err)
			}
			if err := loop.Precharge(flat(loop, b)); err != nil {
				t.Fatal(err)
			}
			if err := loop.AdvanceTime(tm.TRP - tm.TCK); err != nil {
				t.Fatal(err)
			}
		}
	}

	bb := bulk.bankOf(b.Channel, b.PseudoChannel, b.Bank)
	lb2 := loop.bankOf(b.Channel, b.PseudoChannel, b.Bank)
	for phys := 0; phys < loop.Geometry().Rows; phys++ {
		rsLoop := lb2.rowAt(phys)
		if rsLoop == nil {
			continue
		}
		var bulkDisturb float64
		if rsBulk := bb.rowAt(phys); rsBulk != nil {
			bulkDisturb = rsBulk.disturb
		}
		if diff := rsLoop.disturb - bulkDisturb; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("row %d: loop disturb %v, bulk disturb %v", phys, rsLoop.disturb, bulkDisturb)
		}
	}
}

func TestECCReducesObservedFlips(t *testing.T) {
	cfg := config.SmallChip()
	run := func(eccOn bool) (int, Stats) {
		d := newDevice(t, cfg)
		if !eccOn {
			disableECC(t, d)
		}
		b := bankAddr(7, 0, 0)
		phys := midSubarrayRow(d, 1)
		lv, la, lb := doubleSidedSetup(t, d, b, phys, 0xFF, 0x00)
		if err := hammerPair(d, b, la, lb, 80000, d.Config().Timing.TRAS); err != nil {
			t.Fatal(err)
		}
		if err := d.AdvanceTime(cfg.Timing.TRP); err != nil {
			t.Fatal(err)
		}
		got, err := readRow(d, b, lv)
		if err != nil {
			t.Fatal(err)
		}
		return countMismatches(got, rowPattern(d, 0xFF)), d.Stats()
	}
	offFlips, _ := run(false)
	onFlips, onStats := run(true)
	if offFlips == 0 {
		t.Skip("no flips at this hammer count; cannot compare ECC effect")
	}
	if onFlips > offFlips {
		t.Fatalf("ECC on produced more flips (%d) than off (%d)", onFlips, offFlips)
	}
	if onStats.ECCCorrections == 0 && onFlips == offFlips {
		t.Fatal("ECC neither corrected nor changed anything")
	}
}

func TestTRRMitigatesInterleavedHammering(t *testing.T) {
	cfg := config.SmallChip()
	tm := cfg.Timing

	run := func(withRefs bool) int {
		d := newDevice(t, cfg)
		disableECC(t, d)
		b := bankAddr(7, 0, 0)
		phys := midSubarrayRow(d, 1)
		lv, la, lb := doubleSidedSetup(t, d, b, phys, 0xFF, 0x00)
		const chunks, perChunk = 64, 4096
		for i := 0; i < chunks; i++ {
			if err := hammerPair(d, b, la, lb, perChunk, d.Config().Timing.TRAS); err != nil {
				t.Fatal(err)
			}
			if withRefs {
				if err := d.AdvanceTime(tm.TRFC); err != nil {
					t.Fatal(err)
				}
				if err := d.Refresh(b.Channel, b.PseudoChannel); err != nil {
					t.Fatal(err)
				}
				if err := d.AdvanceTime(tm.TRFC); err != nil {
					t.Fatal(err)
				}
			} else if err := d.AdvanceTime(tm.TRP); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.AdvanceTime(tm.TRP); err != nil {
			t.Fatal(err)
		}
		got, err := readRow(d, b, lv)
		if err != nil {
			t.Fatal(err)
		}
		return countMismatches(got, rowPattern(d, 0xFF))
	}

	without := run(false)
	with := run(true)
	if without == 0 {
		t.Fatal("hammering with refresh disabled should flip bits")
	}
	if with >= without {
		t.Fatalf("TRR did not mitigate: %d flips with REFs, %d without", with, without)
	}
}

func TestRetentionFailuresAppearAfterLongWait(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	disableECC(t, d)
	b := bankAddr(0, 0, 0)
	const row = 200
	if err := writeRow(d, b, row, rowPattern(d, 0xFF)); err != nil {
		t.Fatal(err)
	}
	// Wait far beyond the median retention time (30 s).
	if err := d.AdvanceTime(300e12); err != nil {
		t.Fatal(err)
	}
	got, err := readRow(d, b, row)
	if err != nil {
		t.Fatal(err)
	}
	flips := countMismatches(got, rowPattern(d, 0xFF))
	if flips == 0 {
		t.Fatal("no retention failures after 300 s without refresh")
	}
	// A second read immediately after must be stable: the first
	// activation restored the (now corrupted) data.
	again, err := readRow(d, b, row)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Fatal("row changed between consecutive reads; sense must restore")
	}
}

func TestHigherTemperatureAcceleratesRetentionLoss(t *testing.T) {
	cfg := config.SmallChip()
	countAfter := func(tempC float64) int {
		d := newDevice(t, cfg)
		disableECC(t, d)
		d.SetTemperature(tempC)
		b := bankAddr(0, 0, 0)
		if err := writeRow(d, b, 300, rowPattern(d, 0xFF)); err != nil {
			t.Fatal(err)
		}
		if err := d.AdvanceTime(40e12); err != nil { // 40 s
			t.Fatal(err)
		}
		got, err := readRow(d, b, 300)
		if err != nil {
			t.Fatal(err)
		}
		return countMismatches(got, rowPattern(d, 0xFF))
	}
	cool := countAfter(65)
	hot := countAfter(105)
	if hot <= cool {
		t.Fatalf("retention failures at 105C (%d) not above 65C (%d)", hot, cool)
	}
}

func TestRefreshPreventsRetentionLoss(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	disableECC(t, d)
	b := bankAddr(0, 0, 0)
	const row = 64
	if err := writeRow(d, b, row, rowPattern(d, 0xAA)); err != nil {
		t.Fatal(err)
	}
	// Refresh the row every 100 ms (below the retention floor) for 5 s
	// via explicit ACT/PRE; no cell can decay between refreshes.
	for i := 0; i < 50; i++ {
		if err := d.AdvanceTime(100e9); err != nil {
			t.Fatal(err)
		}
		if err := refreshRow(d, b, row); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readRow(d, b, row)
	if err != nil {
		t.Fatal(err)
	}
	if n := countMismatches(got, rowPattern(d, 0xAA)); n != 0 {
		t.Fatalf("%d retention failures despite 2 s refresh cadence", n)
	}
}

func TestDeterminismAcrossDevices(t *testing.T) {
	cfg := config.SmallChip()
	run := func() []byte {
		d := newDevice(t, cfg)
		disableECC(t, d)
		b := bankAddr(6, 1, 3)
		phys := midSubarrayRow(d, 1)
		lv, la, lb := doubleSidedSetup(t, d, b, phys, 0x55, 0xAA)
		if err := hammerPair(d, b, la, lb, 200000, d.Config().Timing.TRAS); err != nil {
			t.Fatal(err)
		}
		if err := d.AdvanceTime(cfg.Timing.TRP); err != nil {
			t.Fatal(err)
		}
		got, err := readRow(d, b, lv)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identically-seeded devices diverged under identical stimulus")
	}
}

func TestStatsCounters(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	b := bankAddr(0, 0, 0)
	if err := writeRow(d, b, 1, rowPattern(d, 0x0F)); err != nil {
		t.Fatal(err)
	}
	if _, err := readRow(d, b, 1); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	g := d.Geometry()
	if s.Acts != 2 || s.Precharges != 2 {
		t.Errorf("acts=%d precharges=%d, want 2 each", s.Acts, s.Precharges)
	}
	if s.Writes != int64(g.Columns) || s.Reads != int64(g.Columns) {
		t.Errorf("writes=%d reads=%d, want %d each", s.Writes, s.Reads, g.Columns)
	}
}

func TestRefreshRequiresTRFCSpacing(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	if err := d.Refresh(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Refresh(0, 0); !errors.Is(err, ErrTiming) {
		t.Fatalf("back-to-back REF: err = %v, want ErrTiming", err)
	}
}

func TestWriteRowRejectsWrongLength(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	err := writeRow(d, bankAddr(0, 0, 0), 0, []byte{1, 2, 3})
	if !errors.Is(err, ErrAddress) {
		t.Fatalf("err = %v, want ErrAddress", err)
	}
}

func TestCountMismatches(t *testing.T) {
	if n := countMismatches([]byte{0xFF, 0x00}, []byte{0xFE, 0x01}); n != 2 {
		t.Fatalf("CountMismatches = %d, want 2", n)
	}
	if n := countMismatches([]byte{0xAB}, []byte{0xAB}); n != 0 {
		t.Fatalf("CountMismatches = %d, want 0", n)
	}
}

func TestBankIsolation(t *testing.T) {
	// Writing the same row index through different channels, pseudo
	// channels and banks must never alias.
	d := newDevice(t, config.SmallChip())
	g := d.Geometry()
	const row = 77
	fill := byte(1)
	type loc struct{ ch, pc, ba int }
	var locs []loc
	for _, ch := range []int{0, 3, 7} {
		for pc := 0; pc < g.PseudoChannels; pc++ {
			for _, ba := range []int{0, g.Banks - 1} {
				locs = append(locs, loc{ch, pc, ba})
			}
		}
	}
	for i, l := range locs {
		b := bankAddr(l.ch, l.pc, l.ba)
		if err := writeRow(d, b, row, rowPattern(d, fill+byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range locs {
		b := bankAddr(l.ch, l.pc, l.ba)
		got, err := readRow(d, b, row)
		if err != nil {
			t.Fatal(err)
		}
		if n := countMismatches(got, rowPattern(d, fill+byte(i))); n != 0 {
			t.Fatalf("%v row %d aliased with another bank (%d flips)", b, row, n)
		}
	}
}

func TestPrechargeAllClosesOpenRows(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	tm := d.Config().Timing
	for ba := 0; ba < 3; ba++ {
		if err := d.Activate(flat(d, bankAddr(1, 0, ba)), 10+ba, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AdvanceTime(tm.TRAS); err != nil {
		t.Fatal(err)
	}
	if err := d.PrechargeAll(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.AdvanceTime(tm.TRP); err != nil {
		t.Fatal(err)
	}
	// All banks must re-activate cleanly (they were closed).
	for ba := 0; ba < 3; ba++ {
		if err := d.Activate(flat(d, bankAddr(1, 0, ba)), 20+ba, false); err != nil {
			t.Fatalf("bank %d not precharged: %v", ba, err)
		}
	}
}

// TestPrechargeAllRefusedClosesNothing opens two banks of one pseudo
// channel tRAS apart: a PREA refused for tRAS on the later bank must
// leave every bank open, uncounted and undisturbed, with the clock where
// it was.
func TestPrechargeAllRefusedClosesNothing(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	tm := d.Config().Timing
	b0, b1 := flat(d, bankAddr(0, 0, 0)), flat(d, bankAddr(0, 0, 1))
	if err := d.Activate(b0, 10, false); err != nil {
		t.Fatal(err)
	}
	// Held well past tRAS, bank 0's close would settle RowPress.
	if err := d.AdvanceTime(3 * tm.TRAS); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(b1, 20, false); err != nil {
		t.Fatal(err)
	}
	phys := d.banks[b0].open
	disturb := func() [2]float64 {
		return [2]float64{d.banks[b0].rowAt(phys - 1).disturb, d.banks[b0].rowAt(phys + 1).disturb}
	}
	before, stats, now := disturb(), d.Stats(), d.Now()
	if err := d.PrechargeAll(0, 0); !errors.Is(err, ErrTiming) {
		t.Fatalf("PREA before bank 1's tRAS: err = %v, want ErrTiming", err)
	}
	for _, b := range []int{b0, b1} {
		if d.banks[b].open == -1 {
			t.Errorf("refused PREA closed bank %v", d.banks[b].addr)
		}
	}
	if d.Stats() != stats || d.Now() != now {
		t.Errorf("refused PREA moved the device: stats %+v → %+v, clock %d → %d", stats, d.Stats(), now, d.Now())
	}
	if got := disturb(); got != before {
		t.Errorf("refused PREA settled RowPress on bank 0's neighbours: %v → %v", before, got)
	}
	if err := d.AdvanceTime(tm.TRAS); err != nil {
		t.Fatal(err)
	}
	if err := d.PrechargeAll(0, 0); err != nil {
		t.Fatalf("PREA after tRAS: %v", err)
	}
	if got := disturb(); got[0] <= before[0] || got[1] <= before[1] {
		t.Errorf("PREA did not settle bank 0's RowPress: %v → %v", before, got)
	}
}

func TestHammerDifferentLogicalSamePhysicalRejected(t *testing.T) {
	// With the xor-swizzle mapping, two different logical rows can never
	// collide physically (it is a bijection), so construct the collision
	// directly through the identity mapping.
	cfg := config.SmallChip()
	cfg.Mapping = config.MappingDirect
	d := newDevice(t, cfg)
	if err := hammerPair(d, bankAddr(0, 0, 0), 9, 9, 5, d.Config().Timing.TRAS); !errors.Is(err, ErrAddress) {
		t.Fatalf("err = %v, want ErrAddress for same-row pair", err)
	}
}
