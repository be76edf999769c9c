package report

import (
	"bytes"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/stats"
)

func sampleSummary() stats.Summary {
	return stats.Summarize([]float64{0.5, 1.0, 1.5, 2.0, 2.5})
}

func TestRenderBoxesContainsGlyphs(t *testing.T) {
	out := RenderBoxes("Fig 3: BER", "%", []BoxGroup{
		{Label: "Rowstripe0", Series: []BoxSeries{
			{Label: "ch0", Summary: sampleSummary()},
			{Label: "ch7", Summary: stats.Summarize([]float64{1, 2, 3, 4, 5})},
		}},
	})
	for _, want := range []string{"Fig 3: BER", "Rowstripe0", "ch0", "ch7", "=", "-", "o", "med"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderBoxesDegenerateSample(t *testing.T) {
	// A constant sample must not divide by zero.
	out := RenderBoxes("t", "u", []BoxGroup{
		{Label: "g", Series: []BoxSeries{{Label: "s", Summary: stats.Summarize([]float64{2, 2, 2})}}},
	})
	if !strings.Contains(out, "med 2") {
		t.Errorf("degenerate render wrong:\n%s", out)
	}
}

func TestRenderScatter(t *testing.T) {
	pts := []Point{
		{X: 0.22, Y: 0.8, Tag: '0'},
		{X: 0.34, Y: 1.6, Tag: '7'},
		{X: 0.28, Y: 1.2, Tag: '3'},
	}
	out := RenderScatter("Fig 6", "CV", "mean BER", pts)
	for _, want := range []string{"Fig 6", "CV", "mean BER", "0", "7", "3"} {
		if !strings.Contains(out, want) {
			t.Errorf("scatter missing %q:\n%s", want, out)
		}
	}
	if out := RenderScatter("empty", "x", "y", nil); !strings.Contains(out, "no data") {
		t.Error("empty scatter should say so")
	}
}

func TestRenderScatterSinglePoint(t *testing.T) {
	out := RenderScatter("one", "x", "y", []Point{{X: 1, Y: 1, Tag: '*'}})
	if !strings.Contains(out, "*") {
		t.Error("single point not plotted")
	}
}

func TestRenderProfile(t *testing.T) {
	out := RenderProfile("Fig 5", []int{0, 1, 2, 3}, []ProfileSeries{
		{Label: "ch0", Values: []float64{0.1, 0.5, 0.9, 0.2}},
		{Label: "ch7", Values: []float64{0.3, 1.0, 1.8, 0.4}},
	})
	for _, want := range []string{"Fig 5", "ch0", "ch7", "rows 0..3"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile missing %q:\n%s", want, out)
		}
	}
	// The peak sample must use the darkest glyph.
	if !strings.Contains(out, "@") {
		t.Errorf("peak glyph missing:\n%s", out)
	}
}

func TestRenderProfileEmpty(t *testing.T) {
	if out := RenderProfile("t", nil, nil); !strings.Contains(out, "no data") {
		t.Error("empty profile should say so")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []string{"a", "b"}, [][]string{{"1", "x,y"}, {"2", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n2,z\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}
