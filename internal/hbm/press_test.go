package hbm

import (
	"errors"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
)

// Tests for the future-work extensions: RowPress (aggressor-on-time
// amplification), temperature sensitivity of RowHammer thresholds, and
// cross-channel (vertical) coupling.

func TestRowPressAmplifiesDisturbance(t *testing.T) {
	cfg := config.SmallChip()
	tm := cfg.Timing

	flipsAtHold := func(hold int64) int {
		d := newDevice(t, cfg)
		disableECC(t, d)
		b := bankAddr(0, 0, 0) // the *least* vulnerable channel
		phys := midSubarrayRow(d, 1)
		lv, la, lb := doubleSidedSetup(t, d, b, phys, 0x00, 0xFF)
		// Far below normal HCfirst: only RowPress amplification can
		// make these few activations flip anything.
		if err := d.HammerPairHold(b, la, lb, 8000, hold); err != nil {
			t.Fatal(err)
		}
		if err := d.AdvanceTime(tm.TRP); err != nil {
			t.Fatal(err)
		}
		got, err := readRow(d, b, lv)
		if err != nil {
			t.Fatal(err)
		}
		return countMismatches(got, rowPattern(d, 0x00))
	}

	base := flipsAtHold(tm.TRAS)
	pressed := flipsAtHold(tm.TRAS * 40)
	if base != 0 {
		t.Fatalf("8K minimum-timing hammers already flip %d bits; test premise broken", base)
	}
	if pressed == 0 {
		t.Fatal("holding aggressors open 40x tRAS did not amplify disturbance (RowPress)")
	}
}

func TestRowPressMonotoneInHoldTime(t *testing.T) {
	cfg := config.SmallChip()
	tm := cfg.Timing
	prev := -1
	for _, mult := range []int64{1, 8, 32, 64} {
		d := newDevice(t, cfg)
		disableECC(t, d)
		b := bankAddr(7, 0, 0)
		phys := midSubarrayRow(d, 1)
		lv, la, lb := doubleSidedSetup(t, d, b, phys, 0xFF, 0x00)
		if err := d.HammerPairHold(b, la, lb, 20000, tm.TRAS*mult); err != nil {
			t.Fatal(err)
		}
		if err := d.AdvanceTime(tm.TRP); err != nil {
			t.Fatal(err)
		}
		got, err := readRow(d, b, lv)
		if err != nil {
			t.Fatal(err)
		}
		flips := countMismatches(got, rowPattern(d, 0xFF))
		if flips < prev {
			t.Fatalf("flips decreased when hold grew to %dx tRAS: %d -> %d", mult, prev, flips)
		}
		prev = flips
	}
	if prev == 0 {
		t.Fatal("no flips even at 64x tRAS hold")
	}
}

func TestRowPressCapsAtMaxFactor(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	tras := cfg.Timing.TRAS
	uncapped := d.rowPressExtra(tras * 10)
	if uncapped <= 0 {
		t.Fatal("10x tRAS hold earned no amplification")
	}
	capped := d.rowPressExtra(tras * 10000)
	if capped != cfg.Fault.RowPressMaxFactor-1 {
		t.Fatalf("extreme hold gives extra %v, want cap %v", capped, cfg.Fault.RowPressMaxFactor-1)
	}
}

func TestRowPressZeroAtMinimumTiming(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	if got := d.rowPressExtra(d.cfg.Timing.TRAS); got != 0 {
		t.Fatalf("minimum-timing hold earns %v extra; Section 4 calibration depends on 0", got)
	}
}

func TestHammerHoldBelowTRASRejected(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	err := d.HammerPairHold(bankAddr(0, 0, 0), 5, 7, 10, d.cfg.Timing.TRAS-1)
	if !errors.Is(err, ErrTiming) {
		t.Fatalf("err = %v, want ErrTiming", err)
	}
}

func TestExplicitLongHoldMatchesBulkPress(t *testing.T) {
	cfg := config.SmallChip()
	tm := cfg.Timing
	const n = 12
	hold := tm.TRAS * 5
	b := bankAddr(4, 1, 1)
	phys := midSubarrayRow(newDevice(t, cfg), 2)

	bulk := newDevice(t, cfg)
	la := bulk.Mapper().ToLogical(phys - 1)
	lb := bulk.Mapper().ToLogical(phys + 1)
	if err := bulk.HammerPairHold(b, la, lb, n, hold); err != nil {
		t.Fatal(err)
	}

	loop := newDevice(t, cfg)
	for i := 0; i < n; i++ {
		for _, r := range []int{la, lb} {
			if err := loop.Activate(b, r); err != nil {
				t.Fatal(err)
			}
			if err := loop.AdvanceTime(hold - tm.TCK); err != nil {
				t.Fatal(err)
			}
			if err := loop.Precharge(b); err != nil {
				t.Fatal(err)
			}
			if err := loop.AdvanceTime(tm.TRP - tm.TCK); err != nil {
				t.Fatal(err)
			}
		}
	}

	bb := bulk.bankOf(b.Channel, b.PseudoChannel, b.Bank)
	lb2 := loop.bankOf(b.Channel, b.PseudoChannel, b.Bank)
	for phys, rsLoop := range lb2.rows {
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
	if bulk.Now() != loop.Now() {
		t.Errorf("clocks diverge: bulk %d, loop %d", bulk.Now(), loop.Now())
	}
}

func TestHotterChipFlipsMoreUnderHammering(t *testing.T) {
	cfg := config.SmallChip()
	flipsAt := func(tempC float64) int {
		d := newDevice(t, cfg)
		disableECC(t, d)
		d.SetTemperature(tempC)
		b := bankAddr(7, 0, 0)
		phys := midSubarrayRow(d, 1)
		lv, la, lb := doubleSidedSetup(t, d, b, phys, 0xFF, 0x00)
		if err := d.HammerPairHold(b, la, lb, 200000, d.Config().Timing.TRAS); err != nil {
			t.Fatal(err)
		}
		if err := d.AdvanceTime(cfg.Timing.TRP); err != nil {
			t.Fatal(err)
		}
		got, err := readRow(d, b, lv)
		if err != nil {
			t.Fatal(err)
		}
		return countMismatches(got, rowPattern(d, 0xFF))
	}
	cool := flipsAt(55)
	hot := flipsAt(95)
	if hot <= cool {
		t.Fatalf("RowHammer flips at 95C (%d) not above 55C (%d); thresholds must shrink when hot", hot, cool)
	}
}

func TestVerticalCouplingOffByDefault(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	b := bankAddr(4, 0, 0)
	phys := midSubarrayRow(d, 1)
	la := d.Mapper().ToLogical(phys)
	if err := d.HammerSingleHold(b, la, 300000, d.Config().Timing.TRAS); err != nil {
		t.Fatal(err)
	}
	// The same row of the vertically adjacent channels must be untouched.
	for _, vch := range []int{2, 6} {
		vbank := d.bankOf(vch, 0, 0)
		if rs := vbank.rowAt(phys); rs != nil && rs.disturb != 0 {
			t.Fatalf("channel %d row %d disturbed %v with coupling disabled", vch, phys, rs.disturb)
		}
	}
}

func TestVerticalCouplingDisturbsAdjacentDies(t *testing.T) {
	cfg := config.SmallChip()
	cfg.Fault.VerticalCoupling = 0.2
	d := newDevice(t, cfg)
	b := bankAddr(4, 0, 0)
	phys := midSubarrayRow(d, 1)
	la := d.Mapper().ToLogical(phys)
	if err := d.HammerSingleHold(b, la, 100000, d.Config().Timing.TRAS); err != nil {
		t.Fatal(err)
	}
	for _, vch := range []int{2, 6} {
		vbank := d.bankOf(vch, 0, 0)
		rs := vbank.rowAt(phys)
		if rs == nil || rs.disturb == 0 {
			t.Fatalf("channel %d row %d not disturbed despite vertical coupling", vch, phys)
		}
		// 100K activations x 0.5 x 0.2 = 10K units.
		if want := 100000 * 0.5 * 0.2; rs.disturb < want*0.99 || rs.disturb > want*1.01 {
			t.Fatalf("channel %d disturb = %v, want ~%v", vch, rs.disturb, want)
		}
	}
	// Channels on the same die (+/-1) must be untouched.
	for _, sch := range []int{3, 5} {
		sbank := d.bankOf(sch, 0, 0)
		if rs := sbank.rowAt(phys); rs != nil && rs.disturb != 0 {
			t.Fatalf("same-die channel %d disturbed; coupling is vertical only", sch)
		}
	}
}

func TestVerticalCouplingCanInduceCrossChannelFlips(t *testing.T) {
	// The paper's future-work question: can hammering one channel flip
	// bits in another? With strong synthetic coupling, yes.
	cfg := config.SmallChip()
	cfg.Fault.VerticalCoupling = 0.6
	d := newDevice(t, cfg)
	disableECC(t, d)
	phys := midSubarrayRow(d, 1)
	victim := bankAddr(5, 0, 0) // die 2; aggressor die 3 via ch7
	lv := d.Mapper().ToLogical(phys)
	if err := writeRow(d, victim, lv, rowPattern(d, 0xFF)); err != nil {
		t.Fatal(err)
	}
	aggrBank := bankAddr(7, 0, 0)
	if err := d.HammerSingleHold(aggrBank, lv, 1000000, d.Config().Timing.TRAS); err != nil {
		t.Fatal(err)
	}
	if err := d.AdvanceTime(cfg.Timing.TRP); err != nil {
		t.Fatal(err)
	}
	got, err := readRow(d, victim, lv)
	if err != nil {
		t.Fatal(err)
	}
	if countMismatches(got, rowPattern(d, 0xFF)) == 0 {
		t.Fatal("no cross-channel flips despite strong vertical coupling")
	}
}

// TestRandomAccessIntegrityProperty: any timing-correct sequence of row
// writes and reads, confined to a refresh-window-sized timespan and with
// no hammering, must preserve data exactly. Catches fault-model leakage
// into the normal access path.
func TestRandomAccessIntegrityProperty(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	disableECC(t, d)
	g := d.Geometry()
	rng := uint64(12345)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	written := make(map[addr.BankAddr]map[int]byte)
	for step := 0; step < 400; step++ {
		b := bankAddr(next(g.Channels), next(g.PseudoChannels), next(g.Banks))
		row := next(g.Rows)
		if next(2) == 0 {
			fill := byte(next(256))
			if err := writeRow(d, b, row, rowPattern(d, fill)); err != nil {
				t.Fatal(err)
			}
			if written[b] == nil {
				written[b] = make(map[int]byte)
			}
			written[b][row] = fill
		} else if fills, ok := written[b]; ok {
			if fill, ok := fills[row]; ok {
				got, err := readRow(d, b, row)
				if err != nil {
					t.Fatal(err)
				}
				if n := countMismatches(got, rowPattern(d, fill)); n != 0 {
					t.Fatalf("step %d: %d spurious flips in %v row %d", step, n, b, row)
				}
			}
		}
	}
	// The whole sequence must fit inside the retention floor so decay
	// cannot legitimately corrupt anything.
	if d.Now() > int64(cfg.Ret.FloorSec*1e12) {
		t.Fatalf("sequence took %d ps, outgrew the retention floor; test premise broken", d.Now())
	}
}

// TestNeighbourWritesDoNotDisturb: writing adjacent rows (which activates
// them once each) must never flip a victim - a single activation is far
// below any threshold.
func TestNeighbourWritesDoNotDisturb(t *testing.T) {
	cfg := config.SmallChip()
	d := newDevice(t, cfg)
	disableECC(t, d)
	b := bankAddr(7, 0, 0)
	phys := midSubarrayRow(d, 1)
	m := d.Mapper()
	lv := m.ToLogical(phys)
	if err := writeRow(d, b, lv, rowPattern(d, 0xFF)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		for _, p := range []int{phys - 1, phys + 1} {
			if err := writeRow(d, b, m.ToLogical(p), rowPattern(d, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := readRow(d, b, lv)
	if err != nil {
		t.Fatal(err)
	}
	if n := countMismatches(got, rowPattern(d, 0xFF)); n != 0 {
		t.Fatalf("%d flips from 400 neighbour writes; thresholds are tens of thousands", n)
	}
}
