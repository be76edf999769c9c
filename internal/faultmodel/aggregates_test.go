package faultmodel

import (
	"fmt"
	"math"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// The sense fast path leans on precomputed aggregates; these tests
// pin their invariants against brute force so the fast path's skipping
// logic can never drift from the per-bit model.

func TestThresholdAggregatesConsistent(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	bits := cfg.Geometry.RowBits()
	for _, row := range []int{0, 17, 500, cfg.Geometry.Rows - 1} {
		p := m.Profile(bank(5, 1, 0), row)
		keys, wordMin, minKey := m.Keys(p)
		if len(keys) != bits || len(wordMin) != (bits+63)/64 {
			t.Fatalf("row %d: aggregate lengths %d/%d, want %d/%d",
				row, len(keys), len(wordMin), bits, (bits+63)/64)
		}
		// Each key is the top 16 bits of the hash its threshold is
		// derived from.
		for i, k := range keys {
			if want := uint16(rng.Mix64(p.thrBase+uint64(i)) >> 48); k != want {
				t.Fatalf("row %d bit %d: key %d, want %d", row, i, k, want)
			}
		}
		// The row minimum is the exact minimum over every bit.
		rowMin := uint16(math.MaxUint16)
		for _, k := range keys {
			rowMin = min(rowMin, k)
		}
		if minKey != rowMin {
			t.Fatalf("row %d: row minimum %d, brute-force min %d", row, minKey, rowMin)
		}
		// WordMin is the exact per-word minimum.
		for w := range wordMin {
			wm := uint16(math.MaxUint16)
			for i := w * 64; i < (w+1)*64 && i < bits; i++ {
				wm = min(wm, keys[i])
			}
			if wordMin[w] != wm {
				t.Fatalf("row %d word %d: WordMin %d, brute-force min %d", row, w, wordMin[w], wm)
			}
		}
	}
}

// cutViolations counts the bits of a row whose key exceeds the cut of
// their own exact threshold, and the unclamped bits whose cut exceeds
// their key by more than one (a margin so wide it admits a second key
// bucket). It returns the first offender of the kind it counts first.
func cutViolations(m *Model, p *RowProfile) (loose, tight int, first string) {
	keys, _, _ := m.Keys(p)
	f := m.cfg.Fault
	hcFloor, zFloor := float32(f.HCFloor), float32(p.scale*math.Exp(p.sigma*f.ZFloor))
	var firstTight string
	for i, k := range keys {
		thr := m.Threshold(p, i)
		cut := m.Cut(p, thr)
		switch {
		case int(k) > cut:
			loose++
		case thr != hcFloor && thr != zFloor && cut > int(k)+1:
			tight++
			if firstTight == "" {
				firstTight = fmt.Sprintf("%v row %d bit %d: key %d, threshold %v, cut %d",
					p.key.bank, p.key.row, i, k, thr, cut)
			}
			continue
		default:
			continue
		}
		if first == "" {
			first = fmt.Sprintf("%v row %d bit %d: key %d, threshold %v, cut %d",
				p.key.bank, p.key.row, i, k, thr, cut)
		}
	}
	if first == "" {
		first = firstTight
	}
	return loose, tight, first
}

// TestThresholdCutConservative pins Model.Cut's margins on 512
// paper-width rows, 64 in each channel spread over pseudo channels, banks
// and subarray positions (4.19 M bits): every bit's key must be at most
// the cut of its own exact threshold, so the sense scan can never skip a
// bit its screen admits. The cut must also stay tight: an unclamped bit
// never sees a cut more than one key above its own. Without the margins
// (cutRel, cutZ and cutU all 0) hundreds of bits violate the first rule.
func TestThresholdCutConservative(t *testing.T) {
	cfg := config.PaperChip()
	m := newModel(t, cfg)
	g := cfg.Geometry
	var loose, tight int
	var first string
	for ch := 0; ch < g.Channels; ch++ {
		for k := 0; k < 64; k++ {
			b := bank(ch, k%g.PseudoChannels, (k*5)%g.Banks)
			row := (k*g.Rows)/64 + (k*37)%(g.Rows/64)
			l, ti, f := cutViolations(m, m.Profile(b, row))
			loose, tight = loose+l, tight+ti
			if first == "" {
				first = f
			}
		}
	}
	if loose != 0 || tight != 0 {
		t.Fatalf("%d bits carry keys above their threshold's cut, %d cuts overshoot by more than one key; first: %s",
			loose, tight, first)
	}
}

// TestThresholdCutClamps covers the clamps: a ZFloor raised so that a
// sixth of the cells sit on it, and an HCFloor raised above the weakest
// quarter of channel 7's thresholds. Clamped bits share one threshold, and
// that threshold's cut must admit every one of their keys. A screen below
// HCFloor, or below the ZFloor-clamped threshold, admits no bit.
func TestThresholdCutClamps(t *testing.T) {
	zcfg := config.PaperChip()
	zcfg.Fault.ZFloor = -1
	hcfg := config.PaperChip()
	hcfg.Fault.HCFloor = 1e6
	for name, cfg := range map[string]*config.Config{"ZFloor": zcfg, "HCFloor": hcfg} {
		m := newModel(t, cfg)
		f := cfg.Fault
		clamped := 0
		for k := 0; k < 8; k++ {
			p := m.Profile(bank(7, k%2, k), 100+k*997)
			if loose, _, first := cutViolations(m, p); loose != 0 {
				t.Fatalf("%s: %d bits carry keys above their threshold's cut; first: %s", name, loose, first)
			}
			zThr := float32(p.scale * math.Exp(p.sigma*f.ZFloor))
			for i := 0; i < cfg.Geometry.RowBits(); i++ {
				if thr := m.Threshold(p, i); thr == zThr || thr == float32(f.HCFloor) {
					clamped++
				}
			}
			// 1e-5 below the ZFloor-clamped threshold clears cutRel and cutZ.
			for _, screen := range []float32{
				0, float32(math.NaN()),
				math.Nextafter32(float32(f.HCFloor), 0),
				max(zThr*(1-1e-5), math.Nextafter32(float32(f.HCFloor), 0)),
			} {
				if cut := m.Cut(p, screen); cut != -1 {
					t.Fatalf("%s row %d: screen %v below every threshold has cut %d, want -1",
						name, p.key.row, screen, cut)
				}
			}
		}
		if clamped < 8*cfg.Geometry.RowBits()/10 {
			t.Fatalf("%s: only %d clamped bits sampled; the clamp is not exercised", name, clamped)
		}
	}
}

// FuzzThresholdCut searches for a row and a screen that Model.Cut gets
// wrong: every bit whose exact threshold passes the screen must carry a
// key at most the cut, and so must a bit screened at its own threshold.
// `go test -fuzz=FuzzThresholdCut ./internal/faultmodel` digs.
func FuzzThresholdCut(f *testing.F) {
	f.Add(uint64(0x5EED), uint8(7), uint16(100), float32(1.2e6))
	f.Add(uint64(1), uint8(0), uint16(5), float32(14499))
	f.Add(uint64(2), uint8(3), uint16(4095), float32(14500))
	f.Add(uint64(3), uint8(6), uint16(777), float32(2.5e5))
	f.Add(uint64(4), uint8(1), uint16(0), float32(math.Inf(1)))
	f.Add(uint64(5), uint8(2), uint16(9), float32(math.NaN()))
	f.Add(uint64(6), uint8(4), uint16(12), float32(-1))
	f.Fuzz(func(t *testing.T, seed uint64, channel uint8, row uint16, screen float32) {
		cfg := config.PaperChip()
		cfg.Seed = seed
		m := newModel(t, cfg)
		g := cfg.Geometry
		p := m.Profile(bank(int(channel)%g.Channels, int(row)%g.PseudoChannels, int(row>>1)%g.Banks),
			int(row)%g.Rows)
		keys, _, _ := m.Keys(p)
		cut := m.Cut(p, screen)
		self := int(row) % len(keys)
		if k, selfCut := keys[self], m.Cut(p, m.Threshold(p, self)); int(k) > selfCut {
			t.Fatalf("bit %d: key %d above the cut %d of its own threshold", self, k, selfCut)
		}
		for i, k := range keys {
			if thr := m.Threshold(p, i); thr <= screen && int(k) > cut {
				t.Fatalf("bit %d: threshold %v passes screen %v, but key %d is above cut %d",
					i, thr, screen, k, cut)
			}
		}
	})
}

func TestRetentionAggregatesMatchRetentionSec(t *testing.T) {
	cfg := config.SmallChip()
	m := newModel(t, cfg)
	b := bank(2, 0, 3)
	const row = 33
	bits := cfg.Geometry.RowBits()
	p := m.Profile(b, row)

	// The first call builds every bit; later calls return the same arrays.
	sec, wordMin, minSec := m.Retention(p)
	if again, _, _ := m.Retention(p); &again[0] != &sec[0] {
		t.Fatal("second retention scan rebuilt the aggregates")
	}
	wantMin, wantBit := math.Inf(1), -1
	for i := 0; i < bits; i++ {
		want := m.RetentionSec(b, row, i)
		if sec[i] != want {
			t.Fatalf("bit %d: Sec %v != RetentionSec %v", i, sec[i], want)
		}
		if want < wantMin {
			wantMin, wantBit = want, i
		}
	}
	if minSec != wantMin {
		t.Fatalf("row min %v, brute-force min %v", minSec, wantMin)
	}
	if gotMin, gotBit := m.RowMinRetention(b, row); gotMin != wantMin || gotBit != wantBit {
		t.Fatalf("RowMinRetention = (%v, %d), brute force (%v, %d)", gotMin, gotBit, wantMin, wantBit)
	}
	for w := range wordMin {
		min := math.Inf(1)
		for i := w * 64; i < (w+1)*64 && i < bits; i++ {
			if sec[i] < min {
				min = sec[i]
			}
		}
		if wordMin[w] != min {
			t.Fatalf("word %d: WordMin %v, brute-force min %v", w, wordMin[w], min)
		}
	}
}

// BenchmarkProfileCompute measures a cold full profile build: the hash
// bases and threshold scale plus the lazily-forced key tier, the unit of
// work every fleet chip pays per touched row.
func BenchmarkProfileCompute(b *testing.B) {
	cfg := config.SmallChip()
	m := newModel(b, cfg)
	m.SetCacheCap(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.Profile(bank(0, 0, 0), i%cfg.Geometry.Rows)
		m.Keys(p)
	}
}

// BenchmarkProfileComputePaper is BenchmarkProfileCompute at the paper
// geometry's 8192-bit rows, the unit of work of every victim row a
// paper-chip sweep senses.
func BenchmarkProfileComputePaper(b *testing.B) {
	cfg := config.PaperChip()
	m := newModel(b, cfg)
	m.SetCacheCap(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.Profile(bank(0, 0, 0), i%cfg.Geometry.Rows)
		m.Keys(p)
	}
}

// TestThresholdBuildAllocs pins the key-tier build to three allocations:
// the per-bit keys, the per-word key minima and the struct holding them.
// A transient buffer, a resident float tier or an orientation bitmap
// would show up here.
func TestThresholdBuildAllocs(t *testing.T) {
	cfg := config.PaperChip()
	m := newModel(t, cfg)
	const runs = 20
	profiles := make([]*RowProfile, runs+1) // AllocsPerRun adds a warm-up call
	for i := range profiles {
		profiles[i] = m.Profile(bank(1, 0, 2), i)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		m.Keys(profiles[next])
		next++
	})
	if next != runs+1 {
		t.Fatalf("built %d key tiers, want %d", next, runs+1)
	}
	if avg != 3 {
		t.Fatalf("key-tier build allocates %.1f times, want 3 (Keys, WordMin, the tier struct)", avg)
	}
}
