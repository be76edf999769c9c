// Package defense implements the paper's defense implication: a
// memory-controller-side preventive-refresh mechanism that adapts to the
// heterogeneous RowHammer vulnerability the characterization uncovers.
//
// The guard watches the activation stream per bank (a Graphene-style
// counter table, simplified to exact per-row counters) and refreshes a
// row's neighbours once its activation count reaches a safety threshold,
// then resets the counter. A uniform policy must derive its single
// threshold from the most vulnerable channel of the whole stack; an
// adaptive policy uses each channel's own measured HCfirst, spending far
// fewer preventive refreshes in robust channels while preventing every
// bitflip — the efficiency gain the paper anticipates.
package defense

import (
	"fmt"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/core"
)

// Policy yields the per-channel activation threshold at which a row's
// neighbours are preventively refreshed.
type Policy interface {
	// Threshold returns the guard threshold for a channel, in
	// activations of a single aggressor row.
	Threshold(channel int) int
	// Name identifies the policy in reports.
	Name() string
}

// Uniform applies one threshold everywhere, derived from the worst
// channel's HCfirst (what a vendor without per-channel knowledge ships).
type Uniform struct{ T int }

// Threshold implements Policy.
func (u Uniform) Threshold(int) int { return u.T }

// Name implements Policy.
func (u Uniform) Name() string { return "uniform" }

// Adaptive applies per-channel thresholds from the characterization.
type Adaptive struct{ PerChannel []int }

// Threshold implements Policy. A channel outside the characterized set
// returns 0 — no measured HCfirst means no safe threshold — which
// Guard.Hammer turns into an error instead of guessing a value for
// memory the defender never profiled.
func (a Adaptive) Threshold(ch int) int {
	if ch < 0 || ch >= len(a.PerChannel) {
		return 0
	}
	return a.PerChannel[ch]
}

// Name implements Policy.
func (a Adaptive) Name() string { return "adaptive" }

// SafetyFromHCFirst converts a measured minimum HCfirst (in double-sided
// hammers) into a guard threshold in single-row activations, with a 2x
// safety margin: one double-sided hammer activates each aggressor once,
// so a victim is safe while each neighbour stays under HCfirst
// activations; the guard fires at half that.
func SafetyFromHCFirst(hcFirst int) int {
	t := hcFirst / 2
	if t < 1 {
		t = 1
	}
	return t
}

// Stats reports what the guard did.
type Stats struct {
	ObservedActs        int64
	PreventiveRefreshes int64
}

// Guard wraps a harness's activation path with the preventive-refresh
// defense. Drive hammering through Hammer (the guarded equivalent of a
// HammerDouble program) so the guard sees every activation, as a memory
// controller would.
type Guard struct {
	h      *core.Harness
	policy Policy

	counters map[counterKey]int
	stats    Stats
}

type counterKey struct {
	bank addr.BankAddr
	row  int // logical row
}

// NewGuard wraps the harness's device with the policy.
func NewGuard(h *core.Harness, policy Policy) *Guard {
	return &Guard{
		h:        h,
		policy:   policy,
		counters: make(map[counterKey]int),
	}
}

// Stats returns what the guard has done so far.
func (g *Guard) Stats() Stats { return g.stats }

// Hammer performs n double-sided hammers of the two aggressor rows while
// enforcing the policy: whenever an aggressor's activation count reaches
// the channel's threshold, the guard refreshes the aggressor's logical
// neighbours and retires its counter. Hammering is chunked so thresholds
// are honoured mid-burst. Passing the same row as both aggressors is
// allowed and counts both activations of each hammer against that one
// row's counter (a HammerDouble program would reject the aliased pair;
// the guard degrades it to a HammerSingle program).
func (g *Guard) Hammer(b addr.BankAddr, rowA, rowB, n int) error {
	thr := g.policy.Threshold(b.Channel)
	if thr <= 0 {
		return fmt.Errorf("defense: policy %s has no positive threshold for channel %d (channel outside the characterized set?)",
			g.policy.Name(), b.Channel)
	}
	// A degenerate pair names one aggressor twice. The activation stream
	// the controller sees is still two activations per hammer, but they
	// land on ONE counter: drive the single-row hammer path and account
	// the chunk once — incrementing the aliased key per list entry
	// overshot the threshold by up to a chunk and double-counted acts.
	sameRow := rowA == rowB
	if sameRow && thr < 2 {
		return fmt.Errorf("defense: threshold %d for channel %d cannot be honoured for a doubled aggressor (each hammer is 2 activations of row %d)",
			thr, b.Channel, rowA)
	}
	remaining := n
	for remaining > 0 {
		// Largest chunk that keeps every aggressor under threshold: a
		// distinct row spends one activation per hammer, a doubled row two.
		chunk := remaining
		if sameRow {
			if room := (thr - g.counters[counterKey{b, rowA}]) / 2; room < chunk {
				chunk = room
			}
		} else {
			for _, row := range []int{rowA, rowB} {
				if room := thr - g.counters[counterKey{b, row}]; room < chunk {
					chunk = room
				}
			}
		}
		if chunk <= 0 {
			if err := g.flushSaturated(b, rowA, rowB, thr, sameRow); err != nil {
				return err
			}
			continue
		}
		if _, err := g.h.Exec(func(bb *bender.Builder) {
			if sameRow {
				bb.HammerSingle(b, rowA, int64(2*chunk))
			} else {
				bb.HammerDouble(b, rowA, rowB, int64(chunk))
			}
			bb.Wait(g.h.Device().Config().Timing.TRP)
		}); err != nil {
			return err
		}
		if sameRow {
			g.counters[counterKey{b, rowA}] += 2 * chunk
		} else {
			g.counters[counterKey{b, rowA}] += chunk
			g.counters[counterKey{b, rowB}] += chunk
		}
		g.stats.ObservedActs += int64(2 * chunk)
		remaining -= chunk
	}
	// Flush eagerly rather than waiting for the next burst: a counter that
	// just reached threshold means the neighbours have absorbed their full
	// disturbance budget, and retiring it here keeps the table bounded by
	// rows with a residual (sub-threshold) count.
	return g.flushSaturated(b, rowA, rowB, thr, sameRow)
}

// flushSaturated preventively refreshes the neighbours of any aggressor
// whose counter cannot absorb one more hammer, then retires the entry.
// Deleting rather than zeroing keeps the table from growing monotonically
// over a run: an entry exists only while its row carries un-refreshed
// activations.
func (g *Guard) flushSaturated(b addr.BankAddr, rowA, rowB, thr int, sameRow bool) error {
	rows := []int{rowA, rowB}
	need := 1
	if sameRow {
		rows = rows[:1]
		need = 2
	}
	for _, row := range rows {
		key := counterKey{b, row}
		if g.counters[key] > thr-need {
			if err := g.refreshNeighbours(b, row); err != nil {
				return err
			}
			delete(g.counters, key)
		}
	}
	return nil
}

// refreshNeighbours activates and precharges the logical neighbours of
// the saturated aggressor, restoring their charge and clearing their
// accumulated disturbance. The logical neighbours suffice for the
// supported mappings only because the guard, like the paper's defender,
// uses the recovered physical adjacency: translate through the mapper.
func (g *Guard) refreshNeighbours(b addr.BankAddr, logicalRow int) error {
	d := g.h.Device()
	m := d.Mapper()
	phys := m.ToPhysical(logicalRow)
	var refreshed int64
	_, err := g.h.Exec(func(bb *bender.Builder) {
		for _, p := range []int{phys - 1, phys + 1} {
			if p >= 0 && p < d.Geometry().Rows {
				bb.RefreshRow(b, m.ToLogical(p))
				refreshed++
			}
		}
	})
	if err != nil {
		return err
	}
	g.stats.PreventiveRefreshes += refreshed
	return nil
}
