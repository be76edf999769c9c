package results

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"github.com/safari-repro/hbmrh/internal/stats"
)

// Renderers: every driver that emits an Artifact shares these summary
// exports, replacing the per-driver ad-hoc CSV/JSON emitters. All output
// is deterministic — fixed column and field order, full-precision 'g'
// floats — so byte-comparing a merged shard run against a single-process
// run is meaningful.

// SummaryCSV renders the artifact's distributions at the requested axis
// as CSV-ready headers and rows: the axis' key columns, the metric name,
// and the box-and-whiskers summary. Metrics with no samples (e.g.
// HCfirst when no row flipped) are skipped.
func (a *Artifact) SummaryCSV(gb GroupBy) (headers []string, rows [][]string, err error) {
	groups, err := a.View(gb)
	if err != nil {
		return nil, nil, err
	}
	var keyCols []string
	switch gb {
	case ByRegion:
		keyCols = []string{"region"}
	case ByChannel:
		keyCols = []string{"channel"}
	case ByRegionChannel:
		keyCols = []string{"region", "channel"}
	case ByPoint:
		keyCols = []string{"point"}
	}
	headers = append(append([]string{}, keyCols...),
		"metric", "n", "min", "q1", "median", "q3", "max", "mean", "stddev")
	for _, g := range groups {
		var key []string
		if gb == ByRegion || gb == ByRegionChannel {
			key = append(key, g.Key.Region)
		}
		if gb == ByChannel || gb == ByRegionChannel {
			key = append(key, strconv.Itoa(g.Key.Channel))
		}
		if gb == ByPoint {
			key = append(key, g.Key.Point)
		}
		for _, m := range g.Metrics {
			if m.Stream.N() == 0 {
				continue
			}
			sum := m.Stream.Summary()
			rows = append(rows, append(append([]string{}, key...),
				m.Name,
				strconv.Itoa(sum.N),
				fmtG(sum.Min), fmtG(sum.Q1), fmtG(sum.Median), fmtG(sum.Q3),
				fmtG(sum.Max), fmtG(sum.Mean), fmtG(sum.StdDev),
			))
		}
	}
	return headers, rows, nil
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// summaryJSON pins the export schema to snake_case independently of
// stats.Summary's Go field names, so a rename there cannot silently
// change the JSON format.
type summaryJSON struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	// QuantileTolerance is the stream's sketch resolution (one bin width):
	// the quartiles above are estimates within this bound of the
	// nearest-rank empirical quantile. Omitted (zero) while the stream is
	// exact and the quartiles carry no estimator error.
	QuantileTolerance float64 `json:"quantile_tolerance,omitempty"`
}

func toSummaryJSON(sum stats.Summary, tol float64) *summaryJSON {
	return &summaryJSON{
		N: sum.N, Min: sum.Min, Q1: sum.Q1, Median: sum.Median,
		Q3: sum.Q3, Max: sum.Max, Mean: sum.Mean, StdDev: sum.StdDev,
		QuantileTolerance: tol,
	}
}

// SummaryJSON renders the artifact's provenance, chip records and
// distribution summaries at the requested axis as deterministic indented
// JSON (fixed field order, metrics sorted by name, trailing newline).
// Unlike the artifact file, it carries rendered summaries rather than
// accumulator state: it is the human/report export, not the merge input.
func (a *Artifact) SummaryJSON(gb GroupBy) ([]byte, error) {
	groups, err := a.View(gb)
	if err != nil {
		return nil, err
	}
	type groupJSON struct {
		Region  string                  `json:"region,omitempty"`
		Channel *int                    `json:"channel,omitempty"`
		Point   string                  `json:"point,omitempty"`
		Metrics map[string]*summaryJSON `json:"metrics"`
	}
	out := struct {
		Meta   Meta         `json:"meta"`
		Chips  []ChipRecord `json:"chips,omitempty"`
		Groups []groupJSON  `json:"groups"`
	}{
		Meta:   a.Meta,
		Chips:  a.Chips,
		Groups: make([]groupJSON, 0, len(groups)),
	}
	for _, g := range groups {
		gj := groupJSON{Region: g.Key.Region, Point: g.Key.Point, Metrics: map[string]*summaryJSON{}}
		if g.Key.Channel != NoChannel {
			ch := g.Key.Channel
			gj.Channel = &ch
		}
		for _, m := range g.Metrics {
			if m.Stream.N() > 0 {
				gj.Metrics[m.Name] = toSummaryJSON(m.Stream.Summary(), m.Stream.QuantileTolerance())
			}
		}
		out.Groups = append(out.Groups, gj)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// RenderGroups renders a view's distributions in the fleet report style,
// one line per non-empty metric, with an optional per-metric display
// scale (e.g. BER fraction to percent). scale may be nil.
func RenderGroups(groups []Group, label func(name string) string, scale func(name string) float64) string {
	out := ""
	for _, g := range groups {
		for _, m := range g.Metrics {
			if m.Stream.N() == 0 {
				continue
			}
			sum := m.Stream.Summary()
			if scale != nil {
				if k := scale(m.Name); k != 0 && k != 1 {
					sum = scaledSummary(sum, k)
				}
			}
			out += fmt.Sprintf("%-22s %-8s %s\n", g.Key.Label(), label(m.Name), sum)
		}
	}
	return out
}

// scaledSummary multiplies a summary's value fields for display without
// touching N.
func scaledSummary(sum stats.Summary, k float64) stats.Summary {
	sum.Min *= k
	sum.Q1 *= k
	sum.Median *= k
	sum.Q3 *= k
	sum.Max *= k
	sum.Mean *= k
	sum.StdDev *= k
	return sum
}

// WriteFile writes the artifact file (MarshalIndented) to path; "-"
// writes to stdout.
func (a *Artifact) WriteFile(path string) error {
	buf, err := a.MarshalIndented()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ReadFile loads and validates an artifact file.
func ReadFile(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
