// Package trr implements the in-DRAM RowHammer mitigation of the
// simulated HBM2 chip: the proprietary, undisclosed Target Row Refresh
// mechanism the paper uncovers in Section 5, a per-bank activation
// sampler whose sampled aggressors get their neighbours preventively
// refreshed once every RefPeriod (17) periodic REF commands, resembling
// the "Vendor C" mechanism fingerprinted by U-TRR.
//
// The engine is deliberately oblivious to the fault model: it only
// observes the command stream (activations and refreshes) and emits
// "refresh these rows" decisions, exactly like the black box the paper
// probes.
package trr

import (
	"fmt"

	"github.com/safari-repro/hbmrh/internal/config"
)

// VictimRefresh names rows in one bank that the mitigation refreshes in
// response to a REF command.
type VictimRefresh struct {
	Bank int
	Rows []int
}

// Engine is the proprietary mitigation for one pseudo channel. Each bank
// has an independent aggressor sampler; a single REF counter is shared,
// firing every RefPeriod REFs. The zero value is unusable; use NewEngine.
type Engine struct {
	cfg      config.TRR
	rows     int
	refCount int
	samplers []sampler
}

// sampler tracks up to cfg.SamplerSlots candidate aggressor rows in one
// bank. With a single slot it keeps the most recently activated row — the
// behaviour the paper's Section 5 experiment is consistent with.
type sampler struct {
	slots []int
}

func (s *sampler) observe(row int, cap int) {
	for i, r := range s.slots {
		if r == row {
			// Move to front: most recent first.
			copy(s.slots[1:i+1], s.slots[:i])
			s.slots[0] = row
			return
		}
	}
	if len(s.slots) < cap {
		s.slots = append(s.slots, 0)
	}
	copy(s.slots[1:], s.slots)
	s.slots[0] = row
}

func (s *sampler) drain() []int {
	out := s.slots
	s.slots = nil
	return out
}

// NewEngine builds the proprietary TRR engine for one pseudo channel with
// banks banks of rows rows each.
func NewEngine(cfg config.TRR, banks, rows int) (*Engine, error) {
	if banks <= 0 || rows <= 0 {
		return nil, fmt.Errorf("trr: banks=%d rows=%d must be positive", banks, rows)
	}
	if cfg.Enabled && (cfg.RefPeriod <= 0 || cfg.SamplerSlots <= 0) {
		return nil, fmt.Errorf("trr: enabled engine needs positive period and sampler slots")
	}
	return &Engine{
		cfg:      cfg,
		rows:     rows,
		samplers: make([]sampler, banks),
	}, nil
}

// ObserveActivate records an activation of a physical row, feeding the
// per-bank sampler. Disabled engines observe nothing.
func (e *Engine) ObserveActivate(bank, physRow int) {
	if !e.cfg.Enabled {
		return
	}
	e.samplers[bank].observe(physRow, e.cfg.SamplerSlots)
}

// OnRefresh advances the REF counter and returns the victim refreshes the
// mitigation performs on this REF: empty except on every RefPeriod-th REF,
// when each bank's sampled aggressors have their +/-NeighborRadius
// neighbours refreshed and the samplers reset.
func (e *Engine) OnRefresh() []VictimRefresh {
	if !e.cfg.Enabled {
		return nil
	}
	e.refCount++
	if e.refCount%e.cfg.RefPeriod != 0 {
		return nil
	}
	var out []VictimRefresh
	for b := range e.samplers {
		aggressors := e.samplers[b].drain()
		if len(aggressors) == 0 {
			continue
		}
		var rows []int
		for _, a := range aggressors {
			for d := 1; d <= e.cfg.NeighborRadius; d++ {
				if a-d >= 0 {
					rows = append(rows, a-d)
				}
				if a+d < e.rows {
					rows = append(rows, a+d)
				}
			}
		}
		if len(rows) > 0 {
			out = append(out, VictimRefresh{Bank: b, Rows: rows})
		}
	}
	return out
}

// RefCount reports how many REF commands the engine has observed, for
// tests and diagnostics.
func (e *Engine) RefCount() int { return e.refCount }
