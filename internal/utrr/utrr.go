// Package utrr implements the U-TRR methodology (Hassan et al., MICRO'21)
// as used in Section 5 of the paper to uncover the HBM2 chip's
// proprietary, undisclosed Target Row Refresh mechanism.
//
// The key idea: data retention failures act as a side channel revealing
// whether the DRAM internally refreshed a row. One iteration performs the
// paper's six steps:
//
//  1. profile a row R's retention time T (done once, up front);
//  2. refresh R and wait T/2;
//  3. activate and precharge R's physical neighbour (a would-be
//     aggressor the TRR sampler should record);
//  4. issue one periodic REF command, giving the TRR a chance to act;
//  5. wait another T/2, so R accumulates a full T of decay unless TRR
//     refreshed it in the middle;
//  6. read R: no retention errors means TRR refreshed the row.
//
// Running many iterations exposes the mitigation's period: the paper
// observes R refreshed once every 17 iterations.
package utrr

import (
	"fmt"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/retention"
)

// Experiment drives the U-TRR loop through a harness's DRAM Bender
// programs: each loop builds its iteration program once and runs it once
// per iteration. Cancellation is the harness's: every run checks the
// context SetContext armed before it starts.
type Experiment struct {
	h    *core.Harness
	prof *retention.Profiler

	// Iterations is the number of six-step iterations (paper: 100).
	Iterations int
	// BandLo and BandHi bound the retention time of the profiled row:
	// long enough that commands fit in the T/2 windows, short enough
	// that iterations stay fast.
	BandLo, BandHi float64
	// ScanRows bounds the retention search.
	ScanRows int
}

// New returns an experiment with the paper's parameters.
func New(h *core.Harness) *Experiment {
	return &Experiment{
		h:          h,
		prof:       retention.NewProfiler(h),
		Iterations: 100,
		BandLo:     0.3,
		BandHi:     8,
		ScanRows:   256,
	}
}

// iteration assembles steps 2-6 of one iteration as one program over k
// profiled rows and their would-be aggressors: write every row, wait
// half, refresh every aggressor once, issue one REF, wait half again,
// read every row back. A loop builds it once and re-runs it every
// iteration (refreshedRows).
func (e *Experiment) iteration(b addr.BankAddr, rows, aggrs []int, half int64) (*bender.Program, error) {
	d := e.h.Device()
	bb := bender.NewBuilder(d.Config().Timing, d.Geometry())
	for _, r := range rows {
		bb.WriteRowFill(b, r, e.prof.Pattern)
	}
	bb.Wait(half)
	for _, a := range aggrs {
		bb.RefreshRow(b, a)
	}
	bb.Ref(b.Channel, b.PseudoChannel)
	bb.Wait(half)
	for _, r := range rows {
		bb.ReadRowOut(b, r)
	}
	return bb.Build()
}

// refreshedRows runs one iteration program over rows profiled rows and
// returns how many read back without a retention error, i.e. were
// refreshed by an in-DRAM mechanism in between.
func (e *Experiment) refreshedRows(prog *bender.Program, rows int) (int, error) {
	res, err := e.h.RunProgram(prog)
	if err != nil {
		return 0, err
	}
	cols := e.h.Device().Geometry().Columns
	refreshed := 0
	for i := range rows {
		if core.CountFlips(res.Reads[i*cols:(i+1)*cols], e.prof.Pattern) == 0 {
			refreshed++
		}
	}
	return refreshed, nil
}

// Result is the outcome of a U-TRR run.
type Result struct {
	// Row is the profiled logical row R; Aggressor is the logical row
	// whose physical address neighbours R's.
	Row       int
	Aggressor int
	// RetentionSec is R's measured retention time T.
	RetentionSec float64
	// Refreshed[i] records whether iteration i (0-based) found R
	// refreshed by an in-DRAM mechanism.
	Refreshed []bool
}

// Fires returns the 1-based iteration numbers at which R was refreshed.
func (r *Result) Fires() []int {
	var out []int
	for i, ref := range r.Refreshed {
		if ref {
			out = append(out, i+1)
		}
	}
	return out
}

// InferPeriod reports the TRR period if the observed refreshes are
// strictly periodic: the gap between consecutive fires (and the offset of
// the first fire) must all agree.
func (r *Result) InferPeriod() (int, bool) {
	fires := r.Fires()
	if len(fires) < 2 {
		return 0, false
	}
	period := fires[0]
	for i := 1; i < len(fires); i++ {
		if fires[i]-fires[i-1] != period {
			return 0, false
		}
	}
	return period, true
}

// Run executes the experiment in the given bank, scanning for a suitable
// row from startRow. The aggressor is chosen as the logical row mapping
// to the physical row next to R — in a black-box setting that mapping
// comes from the reverse-engineering step (core.RecoverMapping); here it
// is read from the device for speed.
func (e *Experiment) Run(b addr.BankAddr, startRow int) (*Result, error) {
	g := e.h.Device().Geometry()
	row, T, err := e.prof.FindRow(b, startRow, e.ScanRows, e.BandLo, e.BandHi)
	if err != nil {
		return nil, fmt.Errorf("utrr: %w", err)
	}
	m := e.h.Device().Mapper()
	pR := m.ToPhysical(row)
	pAggr := pR + 1
	if pAggr >= g.Rows {
		pAggr = pR - 1
	}
	res := &Result{
		Row:          row,
		Aggressor:    m.ToLogical(pAggr),
		RetentionSec: T,
		Refreshed:    make([]bool, e.Iterations),
	}
	prog, err := e.iteration(b, []int{row}, []int{res.Aggressor}, int64(T/2*1e12))
	if err != nil {
		return nil, fmt.Errorf("utrr: %w", err)
	}
	for it := range res.Refreshed {
		n, err := e.refreshedRows(prog, 1)
		if err != nil {
			return nil, fmt.Errorf("utrr: iteration %d: %w", it, err)
		}
		res.Refreshed[it] = n == 1
	}
	return res, nil
}
