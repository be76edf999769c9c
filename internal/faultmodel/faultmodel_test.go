package faultmodel

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

func newModel(t testing.TB, cfg *config.Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func bank(ch, pc, ba int) addr.BankAddr {
	return addr.BankAddr{Channel: ch, PseudoChannel: pc, Bank: ba}
}

// rowThresholds returns the exact threshold of every bit of a row.
func rowThresholds(m *Model, p *RowProfile) []float32 {
	thr := make([]float32, m.cfg.Geometry.RowBits())
	for i := range thr {
		thr[i] = m.Threshold(p, i)
	}
	return thr
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.SmallChip()
	cfg.SubarraySizes = []int{1}
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestProfileDeterminism(t *testing.T) {
	cfg := config.SmallChip()
	a, b := newModel(t, cfg), newModel(t, cfg)
	pa := a.Profile(bank(3, 1, 2), 100)
	pb := b.Profile(bank(3, 1, 2), 100)
	for i := 0; i < cfg.Geometry.RowBits(); i++ {
		if a.Threshold(pa, i) != b.Threshold(pb, i) {
			t.Fatalf("bit %d: thresholds differ across identically-seeded models", i)
		}
		if pa.IsTrue(i) != pb.IsTrue(i) {
			t.Fatalf("bit %d: orientation differs across identically-seeded models", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	ca, cb := config.SmallChip(), config.SmallChip()
	cb.Seed = ca.Seed + 1
	ma, mb := newModel(t, ca), newModel(t, cb)
	ta := rowThresholds(ma, ma.Profile(bank(0, 0, 0), 5))
	tb := rowThresholds(mb, mb.Profile(bank(0, 0, 0), 5))
	same := 0
	for i := range ta {
		if ta[i] == tb[i] {
			same++
		}
	}
	if same == len(ta) {
		t.Fatal("different seeds produced identical thresholds")
	}
}

func TestThresholdFloorHolds(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	f := func(row uint16, bit uint16) bool {
		p := m.Profile(bank(7, 0, 0), int(row)%cfg.Geometry.Rows)
		return float64(m.Threshold(p, int(bit)%cfg.Geometry.RowBits())) >= cfg.Fault.HCFloor
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrueCellFractionMatchesProfile(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	for _, ch := range []int{0, 7} {
		want := cfg.Fault.Channels[ch].TrueCellFrac
		total, trues := 0, 0
		for row := 0; row < 40; row++ {
			p := m.Profile(bank(ch, 0, 0), row)
			for i := 0; i < cfg.Geometry.RowBits(); i++ {
				total++
				if p.IsTrue(i) {
					trues++
				}
			}
		}
		got := float64(trues) / float64(total)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("channel %d: true-cell fraction = %.3f, want %.3f", ch, got, want)
		}
	}
}

// TestIsTrueMatchesBool pins IsTrue's integer compare to the rng.Bool
// draw it replaces, at every channel's true-cell fraction and at the
// extremes 0 and 1.
func TestIsTrueMatchesBool(t *testing.T) {
	cfg := config.SmallChip()
	cfg.Fault.Channels[0].TrueCellFrac = 0
	cfg.Fault.Channels[1].TrueCellFrac = 1
	m := newModel(t, cfg)
	for ch, prof := range cfg.Fault.Channels {
		p := m.Profile(bank(ch, 1, 2), 40+ch)
		for i := 0; i < cfg.Geometry.RowBits(); i++ {
			if want := rng.Bool(rng.Mix64(p.orientBase+uint64(i)), prof.TrueCellFrac); p.IsTrue(i) != want {
				t.Fatalf("channel %d bit %d: IsTrue %v, rng.Bool %v", ch, i, !want, want)
			}
		}
	}
}

func TestChannel7HasLowerThresholds(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	medianOf := func(ch int) float64 {
		var vals []float64
		for row := 10; row < 30; row++ {
			thr := rowThresholds(m, m.Profile(bank(ch, 0, 0), row))
			for i := 0; i < len(thr); i += 7 {
				vals = append(vals, float64(thr[i]))
			}
		}
		// Crude median: sort-free selection is overkill here.
		lo, n := 0, len(vals)
		for _, v := range vals {
			if v < vals[n/2] {
				lo++
			}
		}
		_ = lo
		return mean(vals)
	}
	m0, m7 := medianOf(0), medianOf(7)
	if m7 >= m0 {
		t.Fatalf("channel 7 mean threshold %v >= channel 0 %v; ch7 must be weaker", m7, m0)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestPositionFactorShape(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	l := m.Layout()
	// Within the first subarray: edges harder than the centre.
	saStart, saSize := l.Start(0), l.Size(0)
	edge := m.PositionFactor(saStart)
	mid := m.PositionFactor(saStart + saSize/2)
	if edge <= mid {
		t.Fatalf("edge factor %v <= mid factor %v; BER must peak mid-subarray", edge, mid)
	}
	if math.Abs(edge-cfg.Fault.EdgeFactor) > 1e-9 {
		t.Errorf("edge factor = %v, want %v", edge, cfg.Fault.EdgeFactor)
	}
	// Last subarray hardened by LastSubarrayFactor.
	last := l.Count() - 1
	lastMid := m.PositionFactor(l.Start(last) + l.Size(last)/2)
	firstMid := m.PositionFactor(saStart + saSize/2)
	ratio := lastMid / firstMid
	if math.Abs(ratio-cfg.Fault.LastSubarrayFactor) > 0.05 {
		t.Errorf("last/first mid-subarray factor ratio = %v, want ~%v", ratio, cfg.Fault.LastSubarrayFactor)
	}
}

func TestPositionFactorSymmetry(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	l := m.Layout()
	// The bump is symmetric: offset k and size-1-k match within a subarray.
	sa := 1
	start, size := l.Start(sa), l.Size(sa)
	for k := 0; k < size/2; k++ {
		a := m.PositionFactor(start + k)
		b := m.PositionFactor(start + size - 1 - k)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("asymmetric position factor at offset %d: %v vs %v", k, a, b)
		}
	}
}

func TestRetentionFloorAndDeterminism(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	b := bank(2, 1, 3)
	f := func(row, bit uint16) bool {
		r := int(row) % cfg.Geometry.Rows
		bi := int(bit) % cfg.Geometry.RowBits()
		t1 := m.RetentionSec(b, r, bi)
		t2 := m.RetentionSec(b, r, bi)
		return t1 == t2 && t1 >= cfg.Ret.FloorSec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowMinRetentionFindsMinimum(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	b := bank(1, 0, 0)
	sec, bit := m.RowMinRetention(b, 17)
	if bit < 0 || bit >= cfg.Geometry.RowBits() {
		t.Fatalf("bit %d out of range", bit)
	}
	if got := m.RetentionSec(b, 17, bit); got != sec {
		t.Fatalf("reported min %v does not match recompute %v", sec, got)
	}
	for i := 0; i < cfg.Geometry.RowBits(); i++ {
		if m.RetentionSec(b, 17, i) < sec {
			t.Fatalf("bit %d has retention below reported minimum", i)
		}
	}
}

func TestChargedSemantics(t *testing.T) {
	cases := []struct {
		isTrue, bitSet, want bool
	}{
		{true, true, true},   // true cell storing 1: charged
		{true, false, false}, // true cell storing 0: discharged
		{false, true, false}, // anti cell storing 1: discharged
		{false, false, true}, // anti cell storing 0: charged
	}
	for _, c := range cases {
		if got := Charged(c.isTrue, c.bitSet); got != c.want {
			t.Errorf("Charged(%v, %v) = %v, want %v", c.isTrue, c.bitSet, got, c.want)
		}
	}
}

func TestCouplingMonotonicity(t *testing.T) {
	m := newModel(t, config.SmallChip())
	if !(m.CouplingFactor(2) < m.CouplingFactor(1) && m.CouplingFactor(1) < m.CouplingFactor(0)) {
		t.Fatal("coupling factor must decrease with more opposite-data aggressors")
	}
	if m.IntraRowFactor(true) <= m.IntraRowFactor(false) {
		t.Fatal("alternating intra-row data must raise the threshold")
	}
}

func TestDistanceWeights(t *testing.T) {
	m := newModel(t, config.SmallChip())
	if m.DistanceWeight(1) != 0.5 {
		t.Errorf("DistanceWeight(1) = %v, want 0.5", m.DistanceWeight(1))
	}
	if m.DistanceWeight(0) != 0 || m.DistanceWeight(-1) != 0 {
		t.Error("non-positive distances must contribute nothing")
	}
	if m.DistanceWeight(m.BlastRadius()+1) != 0 {
		t.Error("beyond blast radius must contribute nothing")
	}
	for d := 1; d < m.BlastRadius(); d++ {
		if m.DistanceWeight(d) <= m.DistanceWeight(d+1) {
			t.Errorf("weight at distance %d not greater than at %d", d, d+1)
		}
	}
}

func TestCacheEviction(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	m.SetCacheCap(4)
	for row := 0; row < 20; row++ {
		m.Profile(bank(0, 0, 0), row)
	}
	if got := m.CacheLen(); got > 4 {
		t.Fatalf("cache holds %d entries, cap is 4", got)
	}
	// Re-reading a row evicted earlier still returns identical data.
	inf := float32(math.Inf(1))
	l1 := m.Ladder(m.Profile(bank(0, 0, 0), 0), inf)
	t1 := rowThresholds(m, m.Profile(bank(0, 0, 0), 0))
	m.SetCacheCap(1)
	for row := 1; row < 5; row++ {
		m.Profile(bank(0, 0, 0), row)
	}
	l2 := m.Ladder(m.Profile(bank(0, 0, 0), 0), inf)
	t2 := rowThresholds(m, m.Profile(bank(0, 0, 0), 0))
	if !slices.Equal(t1, t2) || !slices.Equal(l1, l2) {
		t.Fatal("profile changed after eviction and recompute")
	}
}

// TestProfileCacheEvictsLeastRecentlyUsed pins the eviction order: with
// room for three rows, touching rows 0, 1 and 2 and then row 0 again
// leaves row 1 least recently used, so inserting row 3 must evict row 1.
// FIFO would evict row 0 (inserted first), and so would MRU (touched
// last); both fail here.
func TestProfileCacheEvictsLeastRecentlyUsed(t *testing.T) {
	m := newModel(t, config.SmallChip())
	m.SetCacheCap(3)
	b := bank(0, 0, 0)
	for _, row := range []int{0, 1, 2, 0, 3} {
		m.Profile(b, row)
	}
	if got := m.Counters().ProfileComputes; got != 4 {
		t.Fatalf("touching rows 0, 1, 2, 0, 3 computed %d profiles, want 4", got)
	}
	for _, row := range []int{0, 2} {
		before := m.Counters().ProfileComputes
		m.Profile(b, row)
		if m.Counters().ProfileComputes != before {
			t.Fatalf("row %d was evicted; row 1 is the least recently used", row)
		}
	}
	before := m.Counters().ProfileComputes
	m.Profile(b, 1)
	if m.Counters().ProfileComputes != before+1 {
		t.Fatal("row 1 is still cached; inserting row 3 must evict it")
	}
}

func BenchmarkProfileCold(b *testing.B) {
	cfg := config.SmallChip()
	m := newModel(b, cfg)
	m.SetCacheCap(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Profile(bank(0, 0, 0), i%cfg.Geometry.Rows)
	}
}

func BenchmarkProfileCached(b *testing.B) {
	cfg := config.SmallChip()
	m := newModel(b, cfg)
	m.Profile(bank(0, 0, 0), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Profile(bank(0, 0, 0), 1)
	}
}
