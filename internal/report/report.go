// Package report renders experiment results as ASCII figures for
// terminals and logs, and exports raw data as CSV. It provides the
// three shapes the paper's figures need: grouped box-and-whiskers plots
// (Figs. 3-4), per-row profiles as sparklines (Fig. 5), and scatter plots
// (Fig. 6).
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/safari-repro/hbmrh/internal/stats"
)

// BoxSeries is one box in a group (one channel, in the paper's figures).
type BoxSeries struct {
	Label   string
	Summary stats.Summary
}

// BoxGroup is one x-axis group of boxes (one data pattern).
type BoxGroup struct {
	Label  string
	Series []BoxSeries
}

// RenderBoxes draws horizontal box-and-whiskers plots: whiskers span
// min..max, the box spans Q1..Q3, '|' marks the median and 'o' the mean,
// following the paper's plot conventions. With no box at all it draws
// "(no data)", as the other plots do.
func RenderBoxes(title, unit string, groups []BoxGroup) string {
	const width = 56
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, g := range groups {
		for _, s := range g.Series {
			lo = math.Min(lo, s.Summary.Min)
			hi = math.Max(hi, s.Summary.Max)
		}
	}
	if math.IsInf(lo, 1) {
		return title + "\n(no data)\n"
	}
	if hi == lo {
		hi, lo = lo+1, lo-1
	}
	pos := func(v float64) int {
		p := int(math.Round((v - lo) / (hi - lo) * float64(width-1)))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "scale: %.4g .. %.4g %s\n", lo, hi, unit)
	for _, g := range groups {
		fmt.Fprintf(&sb, "%s\n", g.Label)
		for _, s := range g.Series {
			line := []byte(strings.Repeat(" ", width))
			sum := s.Summary
			for i := pos(sum.Min); i <= pos(sum.Max); i++ {
				line[i] = '-'
			}
			for i := pos(sum.Q1); i <= pos(sum.Q3); i++ {
				line[i] = '='
			}
			line[pos(sum.Median)] = '|'
			line[pos(sum.Mean)] = 'o'
			fmt.Fprintf(&sb, "  %-6s %s  med %.4g mean %.4g\n", s.Label, line, sum.Median, sum.Mean)
		}
	}
	return sb.String()
}

// Point is one scatter sample.
type Point struct {
	X, Y float64
	Tag  rune // glyph identifying the series (channel digit in Fig. 6)
}

// RenderScatter draws a scatter plot on a character grid.
func RenderScatter(title, xLabel, yLabel string, pts []Point) string {
	const w, h = 64, 20
	if len(pts) == 0 {
		return title + "\n(no data)\n"
	}
	xlo, xhi := pts[0].X, pts[0].X
	ylo, yhi := pts[0].Y, pts[0].Y
	for _, p := range pts {
		xlo, xhi = math.Min(xlo, p.X), math.Max(xhi, p.X)
		ylo, yhi = math.Min(ylo, p.Y), math.Max(yhi, p.Y)
	}
	if xhi == xlo {
		xhi = xlo + 1
	}
	if yhi == ylo {
		yhi = ylo + 1
	}
	grid := make([][]rune, h)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", w))
	}
	for _, p := range pts {
		x := int(math.Round((p.X - xlo) / (xhi - xlo) * float64(w-1)))
		y := int(math.Round((p.Y - ylo) / (yhi - ylo) * float64(h-1)))
		grid[h-1-y][x] = p.Tag
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "y: %s [%.4g .. %.4g]\n", yLabel, ylo, yhi)
	for _, row := range grid {
		fmt.Fprintf(&sb, "|%s\n", string(row))
	}
	fmt.Fprintf(&sb, "+%s\n", strings.Repeat("-", w))
	fmt.Fprintf(&sb, "x: %s [%.4g .. %.4g]\n", xLabel, xlo, xhi)
	return sb.String()
}

// sparkLevels maps a normalized value to a glyph, darkest = highest.
var sparkLevels = []rune(" .:-=+*#%@")

// RenderProfile draws one sparkline per series over a shared x-axis,
// normalizing all series to the global maximum so relative height is
// comparable across series (as in Fig. 5's shared y-axis).
func RenderProfile(title string, xs []int, series []ProfileSeries) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	if len(xs) == 0 || len(series) == 0 {
		sb.WriteString("(no data)\n")
		return sb.String()
	}
	hi := math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			hi = math.Max(hi, v)
		}
	}
	if hi <= 0 {
		hi = 1
	}
	fmt.Fprintf(&sb, "rows %d..%d, peak %.4g\n", xs[0], xs[len(xs)-1], hi)
	for _, s := range series {
		glyphs := make([]rune, len(s.Values))
		for i, v := range s.Values {
			idx := int(v / hi * float64(len(sparkLevels)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkLevels) {
				idx = len(sparkLevels) - 1
			}
			glyphs[i] = sparkLevels[idx]
		}
		fmt.Fprintf(&sb, "  %-6s %s\n", s.Label, string(glyphs))
	}
	return sb.String()
}

// ProfileSeries is one sparkline of RenderProfile.
type ProfileSeries struct {
	Label  string
	Values []float64
}

// WriteCSV emits headers plus rows in RFC 4180 format.
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
