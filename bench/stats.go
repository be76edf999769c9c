package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-bucketed latency histogram in nanoseconds: 32 linear
// sub-buckets per power of two, so a recorded value lands within 1/32
// (3.2%) of its bucket's midpoint. It follows cmd/loadgen's histogram; a
// package both share is future work.
type hist struct {
	counts [2048]uint64
	total  uint64
	maxNs  uint64
}

func histIndex(v uint64) int {
	if v < 32 {
		return int(v)
	}
	m := bits.Len64(v) - 1 // top bit position, >= 5
	return (m-4)<<5 | int((v>>(uint(m)-5))&31)
}

// histValue reconstructs a bucket's midpoint.
func histValue(idx int) uint64 {
	if idx < 32 {
		return uint64(idx)
	}
	m := idx>>5 + 4
	lo := uint64(32|idx&31) << (uint(m) - 5)
	return lo + 1<<(uint(m)-5)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.counts[histIndex(v)]++
	h.total++
	if v > h.maxNs {
		h.maxNs = v
	}
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram).
func (h *hist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	target = max(target, 1)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			return float64(min(histValue(i), h.maxNs))
		}
	}
	return float64(h.maxNs)
}

// tailQuantile is the highest percentile of the ladder p50, p90, p99,
// p99.9, p99.99 that leaves at least ten of n samples beyond it: pX with
// 1/d of the samples beyond it qualifies when n >= 10·d.
func tailQuantile(n uint64) float64 {
	q := 0.5
	for _, d := range []uint64{10, 100, 1000, 10000} {
		if n >= 10*d {
			q = 1 - 1/float64(d)
		}
	}
	return q
}

// tail is a latency at the highest percentile with ten samples beyond
// it, with the sample count.
type tail struct {
	Quantile float64 `json:"quantile"`
	US       float64 `json:"us"`
	N        uint64  `json:"n"`
}

func (h *hist) tail() *tail {
	q := tailQuantile(h.total)
	return &tail{Quantile: q, US: h.quantile(q) / 1e3, N: h.total}
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4), so
// spreads computed here and by external tooling agree. One sample is its
// own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// mannWhitney returns the Mann-Whitney U statistic of a against b and its
// two-sided p-value: exact (enumerated null distribution) for small
// samples without ties, else the normal approximation with tie and
// continuity corrections.
func mannWhitney(a, b []float64) (u, p float64) {
	na, nb := len(a), len(b)
	if na == 0 || nb == 0 {
		return 0, 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, na+nb)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	n := float64(na + nb)
	var rankA, tieTerm float64
	ties := false
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // mid-rank of positions i+1..j
		for k := i; k < j; k++ {
			if all[k].fromA {
				rankA += rank
			}
		}
		if t := float64(j - i); t > 1 {
			ties = true
			tieTerm += t*t*t - t
		}
		i = j
	}
	u = rankA - float64(na*(na+1))/2
	if !ties && na+nb <= 40 {
		dist := uNullCounts(na, nb)
		total, below, above := 0.0, 0.0, 0.0
		for k, c := range dist {
			total += c
			if float64(k) <= u {
				below += c
			}
			if float64(k) >= u {
				above += c
			}
		}
		return u, math.Min(1, 2*math.Min(below, above)/total)
	}
	mu := float64(na*nb) / 2
	sigma := math.Sqrt(float64(na*nb) / 12 * ((n + 1) - tieTerm/(n*(n-1))))
	if sigma == 0 {
		return u, 1
	}
	z := math.Max(0, math.Abs(u-mu)-0.5) / sigma
	return u, math.Min(1, math.Erfc(z/math.Sqrt2))
}

// uNullCounts returns, for every U in [0, na·nb], the number of
// arrangements of na and nb untied observations giving that U, by the
// recurrence f(m, n, u) = f(m-1, n, u-n) + f(m, n-1, u).
func uNullCounts(na, nb int) []float64 {
	// f[m][n] is the count vector for m observations of a and n of b.
	f := make([][][]float64, na+1)
	for m := range f {
		f[m] = make([][]float64, nb+1)
		for k := range f[m] {
			c := make([]float64, m*k+1)
			switch {
			case m == 0 || k == 0:
				c[0] = 1
			default:
				for v := range c {
					if v-k >= 0 && v-k < len(f[m-1][k]) {
						c[v] += f[m-1][k][v-k]
					}
					if v < len(f[m][k-1]) {
						c[v] += f[m][k-1][v]
					}
				}
			}
			f[m][k] = c
		}
	}
	return f[na][nb]
}

// unionLen is the total length covered by a set of half-open intervals,
// counting overlaps once.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	lo, hi := s[0][0], s[0][1]
	for _, x := range s[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}
