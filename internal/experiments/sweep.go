// Package experiments reproduces every table and figure of the paper's
// evaluation: the spatial-variation study of Section 4 (Figs. 3-6) and
// the TRR-uncovering study of Section 5, with scale knobs so the same
// drivers power fast tests, benchmarks and full-resolution runs.
//
// Every study registers as an Experiment in the registry (registry.go,
// DESIGN.md §9): a name plus a pure planner producing an indexed job
// list and a deterministic fold into a results.Artifact. Run executes a
// whole plan; RunSlice executes any contiguous job slice, stamped with
// job-axis provenance so slices merge through results.Merge into bytes
// identical to the unsharded run. That contract is what gives each
// registered study -shard i/N, artifact merging, CSV/JSON export, and
// the fleet control plane (internal/fleet) for free.
package experiments

import (
	"context"
	"fmt"
	"strconv"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/results"
)

// sampleVictims lists the victim rows a channel job measures:
// rowsPerRegion rows sampled from each of the paper's regions (0 tests
// every row), each with its region's name, leaving out the bank-edge rows
// that have no double-sided aggressor pair. The sweep and the multichip
// scan sample through it.
func sampleVictims(g addr.Geometry, rowsPerRegion int) (victims []int, regions []string) {
	for _, region := range core.Regions(g.Rows) {
		for _, phys := range region.SampleRows(rowsPerRegion) {
			if phys <= 0 || phys >= g.Rows-1 {
				continue
			}
			victims = append(victims, phys)
			regions = append(regions, region.Name)
		}
	}
	return victims, regions
}

// checkRowsPerRegion refuses a per-region row count larger than the
// paper regions sampleVictims samples from. A region holds no more rows
// than its size, so a larger count would measure the same rows as the
// size does under different Params; the error names the largest count
// that fits.
func checkRowsPerRegion(g addr.Geometry, rowsPerRegion int) error {
	fit := g.Rows
	for _, r := range core.Regions(g.Rows) {
		fit = min(fit, r.Rows())
	}
	if rowsPerRegion > fit {
		return fmt.Errorf("rows %d exceeds the %d-row regions of the %d-row bank: at most %d fit",
			rowsPerRegion, fit, g.Rows, fit)
	}
	return nil
}

// sweepChannel measures every sampled victim row of one channel's bank
// and records where each row sits in its subarray, which Fig. 5 reads.
// The inner loops run through the batched probe API, chunk-major: for
// each chunk of core.MaxProbeBatch victims, one HCFirstBatch per pattern,
// whose ceiling probe at hammers is the row's BER. A victim's fault-model
// profile and threshold ladder are then built once for all four
// patterns, even when the channel's victims outnumber the profile cache.
// Output is byte-identical to per-row BER/HCFirst calls in any order
// (probes are pure; pinned by the core batch equivalence tests); only
// the probe grouping changes.
func sweepChannel(h *core.Harness, g addr.Geometry, layout *addr.SubarrayLayout, rowsPerRegion, hammers, ch int) ([]results.RowRecord, error) {
	ba := addr.BankAddr{Channel: ch}
	patterns := core.Table1()
	victims, regions := sampleVictims(g, rowsPerRegion)
	out := make([]results.RowRecord, len(victims))
	for i, phys := range victims {
		sa, off := layout.Locate(phys)
		out[i] = results.RowRecord{
			Channel:        ch,
			PhysRow:        phys,
			Region:         regions[i],
			BER:            make([]float64, len(patterns)),
			HCFirst:        make([]int, len(patterns)),
			Found:          make([]bool, len(patterns)),
			Subarray:       sa,
			SubarrayOffset: off,
			SubarraySize:   layout.Size(sa),
			LastSubarray:   sa == layout.Count()-1,
		}
	}
	for lo := 0; lo < len(victims); lo += core.MaxProbeBatch {
		chunk := victims[lo:min(lo+core.MaxProbeBatch, len(victims))]
		for pi, p := range patterns {
			hcs, founds, bers, err := h.HCFirstBatch(ba, chunk, p, hammers)
			if err != nil {
				return nil, err
			}
			for i := range chunk {
				r := &out[lo+i]
				r.BER[pi] = bers[i].BER()
				r.HCFirst[pi], r.Found[pi] = hcs[i], founds[i]
			}
		}
	}
	for i := range out {
		out[i].WCDP = chooseWCDP(out[i])
	}
	return out, nil
}

// chooseWCDP applies the paper's worst-case pattern rule: smallest
// HCfirst; ties (and the nothing-flipped case) broken by the largest BER
// at the maximum hammer count.
func chooseWCDP(r results.RowRecord) int {
	best := 0
	for i := 1; i < len(r.BER); i++ {
		switch {
		case r.Found[i] != r.Found[best]:
			if r.Found[i] {
				best = i
			}
		case r.Found[i] && r.HCFirst[i] != r.HCFirst[best]:
			if r.HCFirst[i] < r.HCFirst[best] {
				best = i
			}
		default:
			if r.BER[i] > r.BER[best] {
				best = i
			}
		}
	}
	return best
}

// sweepExperiment registers the Figs. 3-5 spatial sweep: per Table 1
// pattern, the BER at the full hammer count and the HCfirst search for
// every sampled victim row (o.Rows per region; 0 tests every row) in the
// paper's three regions of bank 0 in every channel, then the WCDP
// choice. One harness job per channel, folded into the region×channel
// groups plus one record per row, so a -shard slice measures a
// contiguous channel range and any merge of the slices draws the
// figures.
func sweepExperiment() *Experiment {
	return &Experiment{
		Name:  "sweep",
		Reads: []string{"Rows", "Hammers"},
		Title: "Figs. 3-5 spatial sweep: per-row BER/HCfirst/WCDP across every channel",
		Plan: func(o Options) (*Plan, error) {
			cfg, err := resolveChip(o)
			if err != nil {
				return nil, err
			}
			perRegion, hammers := o.Rows, orDefault(o.Hammers, core.DefaultHammers)
			if err := checkRowsPerRegion(cfg.Geometry, perRegion); err != nil {
				return nil, err
			}
			layout := cfg.Layout() // once per plan, not per job: its row table costs 4 bytes a row
			jobs := make([]Job, cfg.Geometry.Channels)
			for ch := range jobs {
				jobs[ch] = Job{
					Key: fmt.Sprintf("ch%d", ch),
					Run: func(_ context.Context, h *core.Harness) (any, error) {
						rows, err := sweepChannel(h, cfg.Geometry, layout, perRegion, hammers, ch)
						if err != nil {
							return nil, fmt.Errorf("channel %d: %w", ch, err)
						}
						return rows, nil
					},
				}
			}
			return &Plan{
				Axis:    "channel",
				Cfg:     cfg,
				Harness: true,
				Jobs:    jobs,
				Params: map[string]string{
					"rows_per_region": strconv.Itoa(perRegion),
					"hammers":         strconv.Itoa(hammers),
				},
				NewFold: func(lo, hi int) *Fold {
					a := &results.Artifact{
						Meta:   results.Meta{GroupBy: results.ByRegionChannel.String()},
						Groups: newFineGroups(cfg),
					}
					return &Fold{
						Add: func(_ int, payload any) error {
							rows := payload.([]results.RowRecord)
							foldSweepRows(cfg, a.Groups, rows)
							a.Rows = append(a.Rows, rows...)
							return nil
						},
						Finish: func() (*results.Artifact, error) { return a, nil },
					}
				},
			}, nil
		},
		Render: renderSweep,
	}
}
