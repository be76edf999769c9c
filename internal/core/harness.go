package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/hbm"
)

// ErrEdgeVictim marks victims at the very first or last row of a bank,
// which have no double-sided aggressor pair.
var ErrEdgeVictim = errors.New("core: victim at bank edge has no double-sided aggressors")

// RefreshBudget is the paper's experiment-time budget: every test must
// finish within 27 ms, comfortably inside the 32 ms refresh window where
// the standard guarantees no retention errors, so retention failures
// cannot contaminate RowHammer measurements.
const RefreshBudget = 27_000_000_000 // 27 ms in picoseconds

// Harness drives the paper's per-row experiments through DRAM Bender
// programs against one device.
type Harness struct {
	dev    *hbm.Device
	runner *bender.Runner
	// bld is the reusable program builder: each measurement resets it
	// instead of allocating a fresh instruction stream and payload table,
	// which keeps the steady-state BER probe allocation-free.
	bld *bender.Builder
	// probe is the probe program of BERBatch and HCFirstBatch, built on
	// bld (batch.go); WCDPBatch takes its four from probePool.
	probe probeProg

	// ctx, when non-nil, aborts the measurement loops: every BER
	// measurement (and therefore every HCfirst probe and WCDP candidate)
	// checks it before touching the device. See SetContext.
	ctx context.Context
	// checkCancel is h.cancelled as a func value, made once so passing it
	// to RunSegments on every batched run allocates nothing.
	checkCancel func() error

	// EnforceBudget makes BER fail if a measurement exceeds the 27 ms
	// budget (on by default, as in the paper's methodology).
	EnforceBudget bool

	// HCPrecision is the absolute hammer-count resolution of the HCfirst
	// binary search.
	HCPrecision int

	// probes counts the probes the harness ran, by kind.
	probes probeCounts
	// hintShift is added to every predicted first flip bisect walks to.
	// It is 0 outside tests, which move it to check that a wrong
	// prediction costs probes, never the answer.
	hintShift int
}

// DefaultHCPrecision is the HCfirst binary-search resolution a fresh
// harness uses, in hammers.
const DefaultHCPrecision = 128

// NewHarness prepares a device for characterization: it disables on-die
// ECC via the mode registers (the paper's step 4 of interference
// elimination; periodic refresh is simply never issued, which also keeps
// the proprietary TRR dormant — steps 1 and 2).
func NewHarness(d *hbm.Device) (*Harness, error) {
	h := &Harness{
		dev:           d,
		runner:        new(bender.Runner),
		bld:           bender.NewBuilder(d.Config().Timing, d.Geometry()),
		EnforceBudget: true,
		HCPrecision:   DefaultHCPrecision,
	}
	h.checkCancel = h.cancelled
	h.probe.bld = h.bld
	if _, err := h.Exec(func(b *bender.Builder) { b.DisableECC() }); err != nil {
		return nil, fmt.Errorf("core: disabling ECC: %w", err)
	}
	return h, nil
}

// NewHarnessFromConfig builds a fresh device and a harness over it.
func NewHarnessFromConfig(cfg *config.Config) (*Harness, error) {
	d, err := hbm.New(cfg)
	if err != nil {
		return nil, err
	}
	return NewHarness(d)
}

// Device returns the underlying device.
func (h *Harness) Device() *hbm.Device { return h.dev }

// Reset restores the harness tunables to their NewHarness defaults, so a
// pooled harness is leased out in a known configuration regardless of
// what its previous lessee changed. It also disarms any cancellation
// context, so a cancelled run's context cannot leak into the next lease.
func (h *Harness) Reset() {
	h.ctx = nil
	h.EnforceBudget = true
	h.HCPrecision = DefaultHCPrecision
	h.hintShift = 0
}

// SetContext arms mid-measurement cancellation: every subsequent BER
// measurement — including each probe of an HCfirst search and each WCDP
// candidate — returns ctx.Err() once ctx is done, so a single huge
// per-channel job (a full-resolution paper-geometry sweep) aborts within
// one row's worth of work instead of running the channel to completion.
// A nil ctx disarms the check. The engine's ReduceHarness arms every leased
// harness with the run's context; Reset (called on pool Put) disarms it.
//
// Cancellation never changes measured values: a measurement either
// completes exactly as it would have, or fails with ctx.Err().
func (h *Harness) SetContext(ctx context.Context) { h.ctx = ctx }

// cancelled returns the armed context's error, if any.
func (h *Harness) cancelled() error {
	if h.ctx == nil {
		return nil
	}
	return h.ctx.Err()
}

// builder returns the harness's reusable program builder, cleared for a
// new program. The previous program (and any Result still referencing the
// runner's buffers) must no longer be in use — every harness measurement
// consumes its reads before building the next program.
func (h *Harness) builder() *bender.Builder {
	h.bld.Reset()
	return h.bld
}

// Exec runs the program build assembles on the harness's reusable
// builder: the one way studies outside the per-row measurements reach
// the device. It returns the armed context's error, before touching the
// device, once that context is done (see SetContext). The Result and its
// Reads are owned by the harness's runner and valid until its next
// program runs.
func (h *Harness) Exec(build func(*bender.Builder)) (*bender.Result, error) {
	if err := h.cancelled(); err != nil {
		return nil, err
	}
	b := h.builder()
	build(b)
	return h.run(b)
}

// RunProgram runs an already-built program on the harness's device: Exec
// for a program its caller assembles once and re-runs, such as the same
// loop iteration run many times, so the runner keeps its plan for the
// program instead of assembling, validating and planning it again. Like
// Exec, it returns the armed context's error before touching the device,
// and the Result is owned by the harness's runner.
func (h *Harness) RunProgram(prog *bender.Program) (*bender.Result, error) {
	if err := h.cancelled(); err != nil {
		return nil, err
	}
	return h.runner.Run(h.dev, prog)
}

func (h *Harness) run(b *bender.Builder) (*bender.Result, error) {
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return h.runner.Run(h.dev, prog)
}

// initPattern emits writes for the victim, aggressor and outer rows of
// the Table 1 layout around the physical victim row.
func (h *Harness) initPattern(b *bender.Builder, ba addr.BankAddr, physVictim int, p Pattern) {
	m := h.dev.Mapper()
	rows := h.dev.Geometry().Rows
	for d := -PatternRadius; d <= PatternRadius; d++ {
		phys := physVictim + d
		if phys < 0 || phys >= rows {
			continue
		}
		fill := p.Outer
		switch {
		case d == 0:
			fill = p.Victim
		case d == -1 || d == 1:
			fill = p.Aggressor
		}
		b.WriteRowFill(ba, m.ToLogical(phys), fill)
	}
}

// BERResult is one BER measurement.
type BERResult struct {
	Flips   int
	Bits    int
	Elapsed int64 // simulated picoseconds from first init to read-out
}

// BER returns the bit error rate as a fraction in [0, 1].
func (r BERResult) BER() float64 { return float64(r.Flips) / float64(r.Bits) }

// BER runs the paper's per-row BER experiment: initialize the Table 1
// layout around the physical victim, hammer the two adjacent rows
// double-sided at minimum timing, read the victim back and count
// bitflips. It is a one-row BERBatch.
func (h *Harness) BER(ba addr.BankAddr, physVictim int, p Pattern, hammers int) (BERResult, error) {
	var out [1]BERResult
	err := h.berBatch(ba, []int{physVictim}, p, hammers, out[:])
	return out[0], err
}

// CountFlips returns how many bits of a read-out (a program's Result
// Reads, or a slice of them) differ from the fill byte the rows were
// written with.
func CountFlips(reads [][]byte, fill byte) int {
	rep := uint64(fill) * 0x0101010101010101
	n := 0
	for _, col := range reads {
		i := 0
		for ; i+8 <= len(col); i += 8 {
			n += bits.OnesCount64(binary.LittleEndian.Uint64(col[i:]) ^ rep)
		}
		for ; i < len(col); i++ {
			n += bits.OnesCount8(col[i] ^ fill)
		}
	}
	return n
}

// HCFirst measures the minimum hammer count that induces the first
// bitflip in the victim, searching up to maxHammers (the paper uses up to
// 256K). found is false when even maxHammers flips nothing. Bitflips are
// monotone in the hammer count, so binary search is exact to
// HCPrecision (FuzzHCFirstDefinition checks both against the paper's
// definition). It is a one-row HCFirstBatch.
func (h *Harness) HCFirst(ba addr.BankAddr, physVictim int, p Pattern, maxHammers int) (hc int, found bool, err error) {
	hcs, founds, _, err := h.HCFirstBatch(ba, []int{physVictim}, p, maxHammers)
	if err != nil {
		return 0, false, err
	}
	return hcs[0], founds[0], nil
}
