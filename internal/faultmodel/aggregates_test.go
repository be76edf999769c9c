package faultmodel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// The sense fast path leans on precomputed aggregates; these tests
// pin their invariants against brute force so the fast path's skipping
// logic can never drift from the per-bit model.

// keyOf returns bit i's threshold key: the top 16 bits of the hash its
// threshold is derived from, which Cut bounds.
func keyOf(p *RowProfile, i int) int { return int(rng.Mix64(p.thrBase+uint64(i)) >> 48) }

// paperScreen is the quickThr screen of a victim after the paper's
// 256K double-sided hammers at minimum timing and 85 C.
const paperScreen = float32(256 << 10)

// bruteLadder returns every bit whose exact threshold is at most screen,
// sorted by (Thr, Bit): what Ladder must return.
func bruteLadder(thr []float32, screen float32) []Rung {
	var want []Rung
	for i, t := range thr {
		if t <= screen {
			want = append(want, Rung{Thr: t, Bit: int32(i)})
		}
	}
	slices.SortFunc(want, func(a, b Rung) int {
		return cmp.Or(cmp.Compare(a.Thr, b.Thr), cmp.Compare(a.Bit, b.Bit))
	})
	return want
}

// TestLadderMatchesThresholds pins Model.Ladder against brute force at
// the small chip's and the paper's row width: for screens below the
// floor, at it, at the 256K-hammer screen, at the quartile threshold,
// admitting every bit, NaN and +Inf, the ladder must be exactly the bits
// whose float32 threshold passes, in (Thr, Bit) order. Each row sees the
// screens rising and then falling on one profile, so the ladder is built
// once, widened by rebuilds and then only cut down; a fresh profile per
// screen pins each screen's first build too.
func TestLadderMatchesThresholds(t *testing.T) {
	for _, cfg := range []*config.Config{config.SmallChip(), config.PaperChip()} {
		m := newModel(t, cfg)
		g := cfg.Geometry
		floor := float32(cfg.Fault.HCFloor)
		for _, row := range []int{1, 17, g.Rows / 2, g.Rows - 2} {
			b := bank(7, 1, row%g.Banks)
			p := m.Profile(b, row)
			thr := rowThresholds(m, p)
			sorted := slices.Sorted(slices.Values(thr))
			screens := []float32{
				0, math.Nextafter32(floor, 0), floor, sorted[0],
				paperScreen, sorted[len(sorted)/4], sorted[len(sorted)-1],
				float32(math.Inf(1)),
			}
			slices.Sort(screens)
			screens = append(screens, float32(math.NaN()))
			for i := len(screens) - 2; i >= 0; i-- {
				screens = append(screens, screens[i])
			}
			for _, screen := range screens {
				got := m.Ladder(p, screen)
				if want := bruteLadder(thr, screen); !slices.Equal(got, want) {
					t.Fatalf("%d-bit row %d, screen %v: ladder of %d rungs, brute force %d",
						g.RowBits(), row, screen, len(got), len(want))
				}
				fresh := m.computeProfile(b, row)
				if got := m.Ladder(fresh, screen); !slices.Equal(got, bruteLadder(thr, screen)) {
					t.Fatalf("%d-bit row %d, screen %v: first build differs from brute force", g.RowBits(), row, screen)
				}
				if screen != screen || screen < floor {
					if !math.IsInf(float64(fresh.cover), -1) {
						t.Fatalf("screen %v was recorded as the cover %v", screen, fresh.cover)
					}
				}
			}
			if !math.IsInf(float64(p.cover), 1) || len(p.rungs) != g.RowBits() {
				t.Fatalf("%d-bit row %d: +Inf left the cover at %v with %d rungs", g.RowBits(), row, p.cover, len(p.rungs))
			}
		}
	}
}

// TestLadderRebuildsGeometrically pins the cover's growth: a rising
// screen rebuilds the ladder only when it passes the cover, and each
// rebuild at least doubles it, so screens rising one hammer at a time
// from the floor rebuild the ladder a logarithmic number of times.
func TestLadderRebuildsGeometrically(t *testing.T) {
	cfg := config.PaperChip()
	m := newModel(t, cfg)
	p := m.Profile(bank(7, 0, 3), 1234)
	floor := float32(cfg.Fault.HCFloor)
	for s := floor; s <= paperScreen; s += 97 {
		m.Ladder(p, s)
	}
	c := m.Counters()
	// Covers run floor, 2 floor, 4 floor, ... past 256K: five rebuilds.
	if c.LadderBuilds != 1 || c.LadderRebuilds != 5 {
		t.Fatalf("%d builds and %d rebuilds, want 1 and 5", c.LadderBuilds, c.LadderRebuilds)
	}
	if p.cover != 32*floor {
		t.Fatalf("cover %v, want %v", p.cover, 32*floor)
	}
}

// cutViolations counts the bits of a row whose key exceeds the cut of
// their own exact threshold, and the unclamped bits whose cut exceeds
// their key by more than one (a margin so wide it admits a second key
// bucket). It returns the first offender of the kind it counts first.
func cutViolations(m *Model, p *RowProfile) (loose, tight int, first string) {
	f := m.cfg.Fault
	hcFloor, zFloor := float32(f.HCFloor), float32(p.scale*math.Exp(p.sigma*f.ZFloor))
	var firstTight string
	for i := range m.cfg.Geometry.RowBits() {
		k := keyOf(p, i)
		thr := m.Threshold(p, i)
		cut := m.Cut(p, thr)
		switch {
		case k > cut:
			loose++
		case thr != hcFloor && thr != zFloor && cut > k+1:
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
		cut := m.Cut(p, screen)
		self := int(row) % g.RowBits()
		if k, selfCut := keyOf(p, self), m.Cut(p, m.Threshold(p, self)); k > selfCut {
			t.Fatalf("bit %d: key %d above the cut %d of its own threshold", self, k, selfCut)
		}
		for i := range g.RowBits() {
			if thr, k := m.Threshold(p, i), keyOf(p, i); thr <= screen && k > cut {
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
// bases and threshold scale plus the lazily-built ladder at the
// 256K-hammer screen, the unit of work every fleet chip pays per sensed
// victim row.
func BenchmarkProfileCompute(b *testing.B) {
	cfg := config.SmallChip()
	m := newModel(b, cfg)
	m.SetCacheCap(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.Profile(bank(0, 0, 0), i%cfg.Geometry.Rows)
		m.Ladder(p, paperScreen)
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
		m.Ladder(p, paperScreen)
	}
}

// TestThresholdBuildAllocs pins the ladder build to one allocation: the
// exact-size rung slice, copied out of the model's reused scratch. A
// per-bit tier, an append-grown ladder or an orientation bitmap would
// show up here. Every channel-7 paper-width row holds rungs at the
// 256K-hammer screen.
func TestThresholdBuildAllocs(t *testing.T) {
	cfg := config.PaperChip()
	m := newModel(t, cfg)
	const runs = 20
	profiles := make([]*RowProfile, runs+1) // AllocsPerRun adds a warm-up call
	for i := range profiles {
		profiles[i] = m.Profile(bank(7, 0, 2), 100+i)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		if len(m.Ladder(profiles[next], paperScreen)) == 0 {
			t.Fatalf("row %d: empty ladder at the 256K-hammer screen", 100+next)
		}
		next++
	})
	if next != runs+1 {
		t.Fatalf("built %d ladders, want %d", next, runs+1)
	}
	if avg != 1 {
		t.Fatalf("ladder build allocates %.1f times, want 1 (the rung slice)", avg)
	}
}
