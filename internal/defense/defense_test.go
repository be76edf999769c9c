package defense

import (
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
)

func bankAddr(ch int) addr.BankAddr {
	return addr.BankAddr{Channel: ch, PseudoChannel: 0, Bank: 0}
}

func newHarness(t *testing.T) *core.Harness {
	t.Helper()
	h, err := core.NewHarnessFromConfig(config.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// attack hammers one victim per channel under the guard and returns the
// total bitflips plus the guard's refresh spend.
func attack(t *testing.T, policy Policy) (flips int, s Stats) {
	t.Helper()
	cfg := config.SmallChip()
	h := newHarness(t)
	g := NewGuard(h, policy)
	layout := cfg.Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	m := h.Device().Mapper()
	lv, la, lb := m.ToLogical(phys), m.ToLogical(phys-1), m.ToLogical(phys+1)
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		b := bankAddr(ch)
		if _, err := h.Exec(func(bb *bender.Builder) { bb.WriteRowFill(b, lv, 0xFF) }); err != nil {
			t.Fatal(err)
		}
		if err := g.Hammer(b, la, lb, 3*core.DefaultHammers); err != nil {
			t.Fatal(err)
		}
		res, err := h.Exec(func(bb *bender.Builder) { bb.ReadRowOut(b, lv) })
		if err != nil {
			t.Fatal(err)
		}
		flips += core.CountFlips(res.Reads, 0xFF)
	}
	return flips, g.Stats()
}

// measuredHCFirst returns a conservative per-channel minimum HCfirst the
// defender would obtain from characterization (here: the configured
// floor-adjusted model, probed on a few rows).
func measuredHCFirst(t *testing.T, cfg *config.Config) []int {
	t.Helper()
	h, err := core.NewHarnessFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := cfg.Layout()
	phys := layout.Start(1) + layout.Size(1)/2
	out := make([]int, cfg.Geometry.Channels)
	for ch := range out {
		minHC := core.DefaultHammers
		for i := 0; i < 3; i++ {
			w, err := h.WCDP(bankAddr(ch), phys+i*5, core.DefaultHammers)
			if err != nil {
				t.Fatal(err)
			}
			if w.Found && w.HCFirst < minHC {
				minHC = w.HCFirst
			}
		}
		out[ch] = minHC
	}
	return out
}

func TestGuardPreventsAllFlips(t *testing.T) {
	profile := measuredHCFirst(t, config.SmallChip())

	uniformT := SafetyFromHCFirst(minOf(profile))
	flips, uniStats := attack(t, Uniform{T: uniformT})
	if flips != 0 {
		t.Fatalf("uniform guard leaked %d flips", flips)
	}

	adaptive := make([]int, len(profile))
	for ch, hc := range profile {
		adaptive[ch] = SafetyFromHCFirst(hc)
	}
	flips, adaStats := attack(t, Adaptive{PerChannel: adaptive})
	if flips != 0 {
		t.Fatalf("adaptive guard leaked %d flips", flips)
	}

	// The paper's efficiency claim: adapting to per-channel vulnerability
	// spends fewer preventive refreshes than the worst-case-uniform
	// policy, at equal protection.
	if adaStats.PreventiveRefreshes >= uniStats.PreventiveRefreshes {
		t.Fatalf("adaptive spent %d refreshes, uniform %d; adaptation must be cheaper",
			adaStats.PreventiveRefreshes, uniStats.PreventiveRefreshes)
	}
	t.Logf("preventive refreshes: uniform %d, adaptive %d (%.0f%% saved)",
		uniStats.PreventiveRefreshes, adaStats.PreventiveRefreshes,
		100*(1-float64(adaStats.PreventiveRefreshes)/float64(uniStats.PreventiveRefreshes)))
}

func TestUnguardedAttackFlips(t *testing.T) {
	// Control: with an absurdly high threshold the guard never fires and
	// the attack succeeds, proving the attack used is actually dangerous.
	flips, s := attack(t, Uniform{T: 1 << 30})
	if flips == 0 {
		t.Fatal("attack harmless even without defense; test is vacuous")
	}
	if s.PreventiveRefreshes != 0 {
		t.Fatal("guard fired despite the huge threshold")
	}
}

func TestGuardRejectsBadThreshold(t *testing.T) {
	g := NewGuard(newHarness(t), Uniform{T: 0})
	if err := g.Hammer(bankAddr(0), 10, 12, 100); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestAdaptiveOutOfRangeChannelErrors(t *testing.T) {
	// Regression: Adaptive.Threshold indexed PerChannel directly, so any
	// channel outside the characterized slice panicked the guard. It must
	// surface as an error through Guard.Hammer instead.
	cfg := config.SmallChip()
	g := NewGuard(newHarness(t), Adaptive{PerChannel: []int{1000, 1000}})
	for _, ch := range []int{len([]int{1000, 1000}), cfg.Geometry.Channels - 1, -1} {
		if err := g.Hammer(bankAddr(ch), 10, 12, 100); err == nil {
			t.Fatalf("channel %d outside the characterized set accepted", ch)
		}
	}
	// In-range channels still hammer.
	if err := g.Hammer(bankAddr(1), 10, 12, 100); err != nil {
		t.Fatalf("in-range channel rejected: %v", err)
	}
}

func TestGuardSameRowAggressors(t *testing.T) {
	// Regression: rowA == rowB incremented the shared counter once per
	// list entry, overshooting the threshold by up to a chunk (and the
	// device layer would reject the aliased double-sided hammer outright).
	// The guard must degrade to single-row hammering with exact
	// accounting.
	h := newHarness(t)
	const thr, hammers = 100, 5000
	g := NewGuard(h, Uniform{T: thr})
	if err := g.Hammer(bankAddr(0), 20, 20, hammers); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.ObservedActs != 2*hammers {
		t.Fatalf("observed %d activations, want %d (2 per hammer, counted once)", s.ObservedActs, 2*hammers)
	}
	// 2 activations per hammer against a threshold of 100: the counter
	// saturates every 50 hammers, and each saturation refreshes the two
	// physical neighbours.
	if want := int64(2*hammers/thr) * 2; s.PreventiveRefreshes != want {
		t.Fatalf("spent %d preventive refreshes, want %d", s.PreventiveRefreshes, want)
	}
	// An unguardable doubled-aggressor threshold is an error, not a hang.
	g = NewGuard(h, Uniform{T: 1})
	if err := g.Hammer(bankAddr(0), 20, 20, 10); err == nil {
		t.Fatal("threshold 1 accepted for a doubled aggressor")
	}
}

func TestGuardCounterTableBounded(t *testing.T) {
	// Regression: saturation zeroed counters instead of deleting them, so
	// the table grew by one entry per row ever hammered. Rows whose
	// counters saturate must leave no residue.
	const thr = 64
	g := NewGuard(newHarness(t), Uniform{T: thr})
	b := bankAddr(0)
	for row := 10; row < 200; row += 4 {
		// Exactly thr activations per aggressor: each pair saturates and
		// retires both counters.
		if err := g.Hammer(b, row, row+2, thr); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.counters) != 0 {
		t.Fatalf("counter table retains %d entries after every aggressor saturated", len(g.counters))
	}
	if g.Stats().PreventiveRefreshes == 0 {
		t.Fatal("no preventive refreshes despite saturating every counter")
	}
}

func TestSafetyFromHCFirst(t *testing.T) {
	if got := SafetyFromHCFirst(30000); got != 15000 {
		t.Errorf("SafetyFromHCFirst(30000) = %d, want 15000", got)
	}
	if got := SafetyFromHCFirst(1); got != 1 {
		t.Errorf("SafetyFromHCFirst(1) = %d, want clamp to 1", got)
	}
}

func TestPolicyNames(t *testing.T) {
	if (Uniform{T: 1}).Name() != "uniform" || (Adaptive{}).Name() != "adaptive" {
		t.Fatal("policy names wrong")
	}
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
