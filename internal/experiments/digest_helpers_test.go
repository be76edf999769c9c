package experiments

import (
	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/defense"
	"github.com/safari-repro/hbmrh/internal/retention"
)

// findRowSmall runs the U-TRR study's retention scan on a fresh small
// chip: the default bank, from the Section 5 start row.
func findRowSmall() (int, float64, error) {
	cfg := config.SmallChip()
	h, err := core.NewHarnessFromConfig(cfg)
	if err != nil {
		return 0, 0, err
	}
	p := retention.NewProfiler(h)
	return p.FindRow(addr.BankAddr{}, section5StartRow(cfg), 256, 0.3, 8)
}

// guardAttack hammers the two neighbours of a mid-subarray victim in
// channel 7 of a fresh small chip 3*DefaultHammers times through a
// defense guard (both activations of a hammer on the upper neighbour
// when sameRow) and returns the victim's bitflips and the guard's
// preventive refreshes.
func guardAttack(p defense.Policy, sameRow bool) (int, int64, error) {
	cfg := config.SmallChip()
	h, err := core.NewHarnessFromConfig(cfg)
	if err != nil {
		return 0, 0, err
	}
	layout, m := cfg.Layout(), h.Device().Mapper()
	phys := layout.Start(1) + layout.Size(1)/2
	lv, la, lb := m.ToLogical(phys), m.ToLogical(phys-1), m.ToLogical(phys+1)
	if sameRow {
		la = lb
	}
	if _, err := h.Exec(func(b *bender.Builder) { b.WriteRowFill(ch7, lv, 0xFF) }); err != nil {
		return 0, 0, err
	}
	g := defense.NewGuard(h, p)
	if err := g.Hammer(ch7, la, lb, 3*core.DefaultHammers); err != nil {
		return 0, 0, err
	}
	res, err := h.Exec(func(b *bender.Builder) { b.ReadRowOut(ch7, lv) })
	if err != nil {
		return 0, 0, err
	}
	return core.CountFlips(res.Reads, 0xFF), g.Stats().PreventiveRefreshes, nil
}
