package hbm

import (
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
)

// benchSense measures the core probe cycle — a double-sided hammer burst
// followed by a victim sense — on either sense implementation. The pair
// quantifies what the profile-aggregate fast path buys per probe.
func benchSense(b *testing.B, ref bool) {
	d, err := New(config.SmallChip())
	if err != nil {
		b.Fatal(err)
	}
	d.SetSenseReference(ref)
	m := d.Mapper()
	ba := addr.BankAddr{Channel: 7}
	layout := d.Config().Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	la, lb, lv := m.ToLogical(phys-1), m.ToLogical(phys+1), m.ToLogical(phys)
	tm := d.Config().Timing
	cycle := func() {
		if err := d.HammerPairHold(ba, la, lb, 150_000, d.Config().Timing.TRAS); err != nil {
			b.Fatal(err)
		}
		if err := d.AdvanceTime(tm.TRP); err != nil {
			b.Fatal(err)
		}
		if err := d.Activate(ba, lv); err != nil {
			b.Fatal(err)
		}
		if err := d.AdvanceTime(tm.TRAS); err != nil {
			b.Fatal(err)
		}
		if err := d.Precharge(ba); err != nil {
			b.Fatal(err)
		}
		if err := d.AdvanceTime(tm.TRP); err != nil {
			b.Fatal(err)
		}
	}
	cycle() // warm profiles and scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkSenseAndRestoreFast measures the production fast path.
func BenchmarkSenseAndRestoreFast(b *testing.B) { benchSense(b, false) }

// BenchmarkSenseAndRestoreReference measures the straightforward per-bit
// reference implementation the fast path is pinned against.
func BenchmarkSenseAndRestoreReference(b *testing.B) { benchSense(b, true) }

// BenchmarkSenseColdRows measures first-touch sensing: every iteration
// probes a fresh victim row whose profile (hash bases, threshold keys,
// retention) must be built from scratch — the fleet chipscan's dominant
// cost, since each seed's rows are visited once.
func BenchmarkSenseColdRows(b *testing.B) {
	d, err := New(config.SmallChip())
	if err != nil {
		b.Fatal(err)
	}
	m := d.Mapper()
	ba := addr.BankAddr{Channel: 6}
	rows := d.Geometry().Rows
	tm := d.Config().Timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phys := 1 + (i*3)%(rows-2)
		if err := d.HammerPairHold(ba, m.ToLogical(phys-1), m.ToLogical(phys+1), 150_000, d.Config().Timing.TRAS); err != nil {
			b.Fatal(err)
		}
		if err := d.AdvanceTime(tm.TRP); err != nil {
			b.Fatal(err)
		}
	}
}
