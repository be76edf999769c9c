package core

import (
	"bytes"
	"fmt"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
)

// The sequential oracle the batched probes are checked against: one
// program per probe, built through Harness.Exec, and the HCfirst
// bisection run one probe at a time, so the oracle never runs the batch
// path (buildProbes, runProbes, bisect) it checks.

// seqProbe runs one probe — the Table 1 layout around the victim, a
// double-sided hammer with each activation held open for holdPS, and a
// victim read-out — as its own program, and returns a copy of the
// read-out and the probe's simulated duration.
func seqProbe(h *Harness, ba addr.BankAddr, phys int, p Pattern, hammers int, holdPS int64) ([][]byte, int64, error) {
	if phys <= 0 || phys >= h.dev.Geometry().Rows-1 {
		return nil, 0, fmt.Errorf("%w: physical row %d", ErrEdgeVictim, phys)
	}
	m := h.dev.Mapper()
	minTiming := holdPS <= h.dev.Config().Timing.TRAS
	res, err := h.Exec(func(b *bender.Builder) {
		h.initPattern(b, ba, phys, p)
		la, lb := m.ToLogical(phys-1), m.ToLogical(phys+1)
		if minTiming {
			b.HammerDouble(ba, la, lb, int64(hammers))
		} else {
			b.HammerDoubleHold(ba, la, lb, int64(hammers), holdPS)
		}
		b.ReadRowOut(ba, m.ToLogical(phys))
	})
	if err != nil {
		return nil, 0, err
	}
	if h.EnforceBudget && minTiming && res.Elapsed > RefreshBudget {
		return nil, 0, fmt.Errorf("core: experiment took %.2f ms, over the 27 ms refresh budget",
			float64(res.Elapsed)/1e9)
	}
	reads := make([][]byte, len(res.Reads))
	for i, col := range res.Reads {
		reads[i] = bytes.Clone(col)
	}
	return reads, res.Elapsed, nil
}

// seqBER is the sequential BER probe.
func seqBER(h *Harness, ba addr.BankAddr, phys int, p Pattern, hammers int, holdPS int64) (BERResult, error) {
	reads, elapsed, err := seqProbe(h, ba, phys, p, hammers, holdPS)
	if err != nil {
		return BERResult{}, err
	}
	return BERResult{Flips: CountFlips(reads, p.Victim), Bits: h.dev.Geometry().RowBits(), Elapsed: elapsed}, nil
}

// seqHCFirst is the sequential HCfirst search: the ceiling probe, then
// the bisection of (0, maxHammers] to HCPrecision, one probe at a time.
func seqHCFirst(h *Harness, ba addr.BankAddr, phys int, p Pattern, maxHammers int, holdPS int64) (hc int, found bool, err error) {
	flips := func(n int) (bool, error) {
		r, err := seqBER(h, ba, phys, p, n, holdPS)
		return r.Flips > 0, err
	}
	if ok, err := flips(maxHammers); err != nil || !ok {
		return 0, false, err
	}
	lo, hi := 0, maxHammers // lo: no flips; hi: flips
	prec := max(h.HCPrecision, 1)
	for hi-lo > prec {
		mid := lo + (hi-lo)/2
		ok, err := flips(mid)
		if err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}
