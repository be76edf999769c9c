package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// alpha is the significance level of compare's Mann-Whitney test.
const alpha = 0.05

// verdict judges one end-to-end metric of one workload, base against
// change, with the metric's bound as the smallest move that counts:
//
//   - regressed: the change's median is worse by more than the bound;
//   - improved: it is better by more than the bound, with p < alpha;
//   - unchanged: it moved by less than the bound;
//   - unresolved: either side's quartile spread exceeds the bound, so the
//     runs cannot tell such a move from noise — unless every change run
//     is worse (or, with p < alpha, better) than every base run.
//
// worse is the change's median relative to the base's, signed so that a
// positive value is worse whichever direction is better.
func verdict(better string, bound float64, base, change []float64) (v string, worse, p float64) {
	if len(base) == 0 || len(change) == 0 {
		return "unresolved", 0, 1
	}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	q1a, ma, q3a := quartiles(base)
	q1b, mb, q3b := quartiles(change)
	_, p = mannWhitney(base, change)
	if ma == 0 {
		return "unresolved", 0, p
	}
	worse = sign * (mb - ma) / math.Abs(ma)
	spread := (q3a - q1a) / math.Abs(ma)
	if mb != 0 {
		spread = max(spread, (q3b-q1b)/math.Abs(mb))
	}
	// In sign space lower is better.
	b, c := scale(base, sign), scale(change, sign)
	allBetter := slices.Max(c) < slices.Min(b)
	allWorse := slices.Min(c) > slices.Max(b)
	separated := allWorse || (allBetter && p < alpha)
	switch {
	case spread > bound && !separated:
		return "unresolved", worse, p
	case worse > bound:
		return "regressed", worse, p
	case -worse > bound && p < alpha:
		return "improved", worse, p
	}
	return "unchanged", worse, p
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

// compareMain prints one row per workload × end-to-end metric of two
// results and exits 1 if any metric regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench compare BASE.json CHANGE.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("base:   %s (nproc %d, %s, load %s -> %s)\n", args[0], a.Machine.NumCPU, a.Machine.CPUModel, a.Machine.LoadBefore, a.Machine.LoadAfter)
	fmt.Printf("change: %s (nproc %d, %s, load %s -> %s)\n", args[1], b.Machine.NumCPU, b.Machine.CPUModel, b.Machine.LoadBefore, b.Machine.LoadAfter)
	if a.Machine.NumCPU != b.Machine.NumCPU || a.Machine.CPUModel != b.Machine.CPUModel {
		fmt.Println("warning: the two results come from different machines")
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\t[q1, q3]\tchange median\t[q1, q3]\tn\tchange\tp\tbound\tverdict\t")
	regressed := 0
	for _, sa := range a.Summaries {
		sb := findSummary(b, sa.Name)
		if sb == nil {
			fmt.Fprintf(tw, "%s\t(absent from change)\t\t\t\t\t\t\t\t\t\t\n", sa.Name)
			continue
		}
		for _, d := range endToEnd {
			x, y := sa.EndToEnd[d.Name], sb.EndToEnd[d.Name]
			bound := x.Bound
			if bound == 0 {
				bound = d.Bound
			}
			v, worse, p := verdict(d.Better, bound, x.Values, y.Values)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t[%.4g, %.4g]\t%.4g %s\t[%.4g, %.4g]\t%d/%d\t%+.1f%% worse\t%.3f\t%.0f%%\t%s\t\n",
				sa.Name, d.Name, x.Median, d.Unit, x.Q1, x.Q3, y.Median, d.Unit, y.Q1, y.Q3, x.N, y.N, worse*100, p, bound*100, v)
		}
	}
	tw.Flush()
	if regressed > 0 {
		fmt.Printf("%d metric(s) regressed\n", regressed)
		return 1
	}
	return 0
}

func findSummary(r *result, name string) *workloadSummary {
	for _, s := range r.Summaries {
		if s.Name == name {
			return s
		}
	}
	return nil
}
