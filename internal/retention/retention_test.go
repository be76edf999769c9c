package retention

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
)

// newHarness is a fresh small chip behind a harness, which turns ECC off
// (paper Section 3.1): with ECC on, single retention errors would be
// corrected away.
func newHarness(t testing.TB) *core.Harness {
	t.Helper()
	h, err := core.NewHarnessFromConfig(config.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newProfiler(t testing.TB) *Profiler {
	t.Helper()
	return NewProfiler(newHarness(t))
}

func bankAddr() addr.BankAddr {
	return addr.BankAddr{Channel: 0, PseudoChannel: 0, Bank: 0}
}

func TestProbeShortWaitShowsNoErrors(t *testing.T) {
	p := newProfiler(t)
	n, err := p.Probe(bankAddr(), 10, 0.05) // below the retention floor
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("%d errors below the retention floor", n)
	}
}

func TestRowRetentionBracketsFailureOnset(t *testing.T) {
	p := newProfiler(t)
	b := bankAddr()
	const row = 17
	T, err := p.RowRetention(b, row)
	if err != nil {
		t.Fatal(err)
	}
	if T < 0.1 {
		t.Fatalf("retention %v s below the search start", T)
	}
	// Just above T: errors. Well below T: none.
	n, err := p.Probe(b, row, T*1.05)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("no errors at 1.05*T (T=%v)", T)
	}
	n, err = p.Probe(b, row, T*0.7)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("%d errors at 0.7*T (T=%v); search bracket wrong", n, T)
	}
}

func TestRowRetentionIsReproducible(t *testing.T) {
	p := newProfiler(t)
	b := bankAddr()
	t1, err := p.RowRetention(b, 42)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p.RowRetention(b, 42)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatalf("retention of the same row differs across profiles: %v vs %v", t1, t2)
	}
}

func TestRetentionIsPatternDependent(t *testing.T) {
	p := newProfiler(t)
	b := bankAddr()
	rows := []int{5, 6, 7, 8, 9, 10, 11, 12}
	differs := false
	for _, row := range rows {
		p.Pattern = 0xFF
		tOnes, err1 := p.RowRetention(b, row)
		p.Pattern = 0x00
		tZeros, err2 := p.RowRetention(b, row)
		if err1 != nil || err2 != nil {
			continue
		}
		if tOnes != tZeros {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("retention identical under 0xFF and 0x00 for all rows; true/anti cells must differ")
	}
}

func TestFindRowInBand(t *testing.T) {
	p := newProfiler(t)
	b := bankAddr()
	row, T, err := p.FindRow(b, 0, 64, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if T < 0.2 || T > 8 {
		t.Fatalf("FindRow returned T=%v outside [0.2, 8]", T)
	}
	// The returned row must re-profile into the band.
	T2, err := p.RowRetention(b, row)
	if err != nil {
		t.Fatal(err)
	}
	if T2 != T {
		t.Fatalf("re-profile gives %v, FindRow reported %v", T2, T)
	}
}

func TestFindRowRejectsBadStart(t *testing.T) {
	p := newProfiler(t)
	if _, _, err := p.FindRow(bankAddr(), -1, 10, 0.2, 8); err == nil {
		t.Fatal("negative start row accepted")
	}
}

func TestHotterChipProfilesShorterRetention(t *testing.T) {
	profileAt := func(tempC float64) float64 {
		h := newHarness(t)
		h.Device().SetTemperature(tempC)
		p := NewProfiler(h)
		T, err := p.RowRetention(bankAddr(), 23)
		if err != nil {
			t.Fatal(err)
		}
		return T
	}
	cool := profileAt(75)
	hot := profileAt(95)
	if hot >= cool {
		t.Fatalf("retention at 95C (%v) not shorter than at 75C (%v)", hot, cool)
	}
}

func TestFindRowRejectsOutOfRangeBank(t *testing.T) {
	p := newProfiler(t)
	g := config.SmallChip().Geometry
	for _, tc := range []struct {
		name string
		b    addr.BankAddr
	}{
		{"channel too high", addr.BankAddr{Channel: g.Channels}},
		{"channel negative", addr.BankAddr{Channel: -1}},
		{"pseudo channel too high", addr.BankAddr{PseudoChannel: g.PseudoChannels}},
		{"pseudo channel negative", addr.BankAddr{PseudoChannel: -1}},
		{"bank too high", addr.BankAddr{Bank: g.Banks}},
		{"bank negative", addr.BankAddr{Bank: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := p.FindRow(tc.b, 0, 256, 0.3, 8)
			if err == nil || !strings.Contains(err.Error(), tc.b.String()+" out of range") {
				t.Fatalf("FindRow(%v) err = %v, want an out-of-range error naming the bank", tc.b, err)
			}
		})
	}
}

// A cancelled harness context stops the scan at its first probe instead
// of being skipped like a row too strong for the band.
func TestFindRowStopsOnCancel(t *testing.T) {
	h := newHarness(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.SetContext(ctx)
	t0 := h.Device().Now()
	_, _, err := NewProfiler(h).FindRow(bankAddr(), 0, 64, 0.2, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FindRow err = %v, want context.Canceled", err)
	}
	if now := h.Device().Now(); now != t0 {
		t.Fatalf("cancelled scan advanced the device clock %d -> %d", t0, now)
	}
}
