// Package mapping implements the logical-to-physical row address mapping
// inside the simulated HBM2 device, and the reverse-engineering procedure
// the paper uses to recover it (Section 3.1): single-sided hammering
// reveals which memory-controller-visible rows are physically adjacent,
// because bitflips appear only in an aggressor's true physical neighbours.
package mapping

import (
	"fmt"
	"sort"

	"github.com/safari-repro/hbmrh/internal/config"
)

// Mapper translates memory-controller-visible (logical) row addresses to
// in-DRAM (physical) row addresses and back. Implementations must be
// bijections over [0, Rows).
type Mapper interface {
	// ToPhysical maps a logical row to its physical row.
	ToPhysical(logical int) int
	// ToLogical maps a physical row to its logical row.
	ToLogical(physical int) int
	// Rows returns the number of rows the mapping covers.
	Rows() int
}

// New constructs the Mapper for the given scheme over rows rows.
func New(scheme config.MappingScheme, rows int) (Mapper, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("mapping: rows = %d, must be positive", rows)
	}
	switch scheme {
	case config.MappingDirect:
		return direct{rows: rows}, nil
	case config.MappingXorSwizzle:
		return xorSwizzle{rows: rows}, nil
	case config.MappingMirrored:
		return mirrored{rows: rows}, nil
	default:
		return nil, fmt.Errorf("mapping: unknown scheme %v", scheme)
	}
}

// direct is the identity mapping.
type direct struct{ rows int }

func (d direct) ToPhysical(l int) int { return l }
func (d direct) ToLogical(p int) int  { return p }
func (d direct) Rows() int            { return d.rows }

// xorSwizzle swaps the middle pair of every 4-row group: logical rows
// 0,1,2,3 occupy physical rows 0,1,3,2. The transform is an involution.
type xorSwizzle struct{ rows int }

func (x xorSwizzle) ToPhysical(l int) int {
	if l&2 != 0 && l^1 < x.rows {
		return l ^ 1
	}
	return l
}
func (x xorSwizzle) ToLogical(p int) int { return x.ToPhysical(p) }
func (x xorSwizzle) Rows() int           { return x.rows }

// mirrored reverses the low three address bits within every odd 8-row
// group, a remapping observed in some DDR4 devices. Also an involution.
type mirrored struct{ rows int }

func (m mirrored) ToPhysical(l int) int {
	if l/8%2 == 1 {
		group := l &^ 7
		p := group | (7 - l&7)
		if p < m.rows {
			return p
		}
	}
	return l
}
func (m mirrored) ToLogical(p int) int { return m.ToPhysical(p) }
func (m mirrored) Rows() int           { return m.rows }

// Verify checks that m is a bijection by exercising the round trip on
// every row. It is O(rows) and intended for tests and device bring-up.
func Verify(m Mapper) error {
	seen := make([]bool, m.Rows())
	for l := 0; l < m.Rows(); l++ {
		p := m.ToPhysical(l)
		if p < 0 || p >= m.Rows() {
			return fmt.Errorf("mapping: logical %d maps to out-of-range physical %d", l, p)
		}
		if seen[p] {
			return fmt.Errorf("mapping: physical %d hit twice", p)
		}
		seen[p] = true
		if back := m.ToLogical(p); back != l {
			return fmt.Errorf("mapping: round trip %d -> %d -> %d", l, p, back)
		}
	}
	return nil
}

// AdjacencyOracle answers the physical-adjacency question the paper's
// methodology extracts from silicon: hammering the given logical row,
// which logical rows exhibit bitflips? Only physical neighbours within the
// same subarray flip, so the answer reveals physical adjacency.
type AdjacencyOracle interface {
	// VictimsOf returns the logical rows that flip when the given logical
	// row is hammered single-sided. The result may be in any order.
	VictimsOf(logical int) []int
}

// OracleFunc adapts a function to the AdjacencyOracle interface.
type OracleFunc func(logical int) []int

// VictimsOf implements AdjacencyOracle.
func (f OracleFunc) VictimsOf(logical int) []int { return f(logical) }

// RecoveredMap is the output of reverse engineering: a physical ordering
// of logical rows, split into subarrays.
type RecoveredMap struct {
	// Subarrays lists each recovered subarray as the sequence of logical
	// row addresses in physical order. The orientation of each sequence
	// (ascending vs descending physical address) is not observable from
	// adjacency alone, so each is normalized to start with its smaller
	// endpoint.
	Subarrays [][]int
}

// SubarraySizes returns the recovered subarray row counts in bank order.
func (r *RecoveredMap) SubarraySizes() []int {
	sizes := make([]int, len(r.Subarrays))
	for i, sa := range r.Subarrays {
		sizes[i] = len(sa)
	}
	return sizes
}

// Recover reconstructs physical row adjacency for logical rows
// [0, rows) by querying the oracle for every row, exactly as the paper's
// methodology does with single-sided RowHammer on real silicon.
//
// Rows at subarray edges report a single victim; interior rows report two.
// The recovered graph therefore decomposes into simple paths, one per
// subarray.
func Recover(oracle AdjacencyOracle, rows int) (*RecoveredMap, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("mapping: rows = %d, must be positive", rows)
	}
	adj := make([][]int, rows)
	for l := 0; l < rows; l++ {
		vs := oracle.VictimsOf(l)
		for _, v := range vs {
			if v < 0 || v >= rows {
				return nil, fmt.Errorf("mapping: oracle reported out-of-range victim %d for row %d", v, l)
			}
			if v == l {
				return nil, fmt.Errorf("mapping: oracle reported row %d as its own victim", l)
			}
		}
		if len(vs) > 2 {
			return nil, fmt.Errorf("mapping: row %d reports %d neighbours; a row has at most two", l, len(vs))
		}
		adj[l] = append([]int(nil), vs...)
	}

	// Adjacency must be symmetric: if hammering a flips b, hammering b
	// must flip a. Asymmetry indicates a measurement error.
	for l, vs := range adj {
		for _, v := range vs {
			if !contains(adj[v], l) {
				return nil, fmt.Errorf("mapping: asymmetric adjacency between rows %d and %d", l, v)
			}
		}
	}

	visited := make([]bool, rows)
	var paths [][]int
	// Walk each path from an endpoint (degree <= 1).
	for start := 0; start < rows; start++ {
		if visited[start] || len(adj[start]) > 1 {
			continue
		}
		paths = append(paths, walkPath(adj, visited, start))
	}
	// Any unvisited row now would sit on a cycle, which physical DRAM
	// rows cannot form.
	for l := 0; l < rows; l++ {
		if !visited[l] {
			return nil, fmt.Errorf("mapping: row %d lies on an adjacency cycle; oracle inconsistent", l)
		}
	}

	for _, p := range paths {
		normalizePath(p)
	}
	// Order subarrays by their minimum logical row so the recovered bank
	// layout is deterministic.
	sort.Slice(paths, func(i, j int) bool { return pathMin(paths[i]) < pathMin(paths[j]) })
	return &RecoveredMap{Subarrays: paths}, nil
}

func walkPath(adj [][]int, visited []bool, start int) []int {
	path := []int{start}
	visited[start] = true
	cur, prev := start, -1
	for {
		next := -1
		for _, v := range adj[cur] {
			if v != prev {
				next = v
				break
			}
		}
		if next == -1 || visited[next] {
			return path
		}
		visited[next] = true
		path = append(path, next)
		prev, cur = cur, next
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func pathMin(p []int) int {
	lo := p[0]
	for _, x := range p[1:] {
		if x < lo {
			lo = x
		}
	}
	return lo
}

// normalizePath orients a path so its first element is the smaller of the
// two endpoints, making recovery deterministic.
func normalizePath(p []int) {
	if len(p) > 1 && p[0] > p[len(p)-1] {
		for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
			p[i], p[j] = p[j], p[i]
		}
	}
}

// Classify determines which known mapping scheme reproduces the recovered
// adjacency, by checking each candidate against every recovered subarray.
// It returns the matching scheme, or an error if none (or more than one
// distinguishable candidate) fits.
func Classify(rec *RecoveredMap, rows int) (config.MappingScheme, error) {
	candidates := []config.MappingScheme{
		config.MappingDirect,
		config.MappingXorSwizzle,
		config.MappingMirrored,
	}
	var matches []config.MappingScheme
	for _, s := range candidates {
		m, err := New(s, rows)
		if err != nil {
			return 0, err
		}
		if consistent(rec, m) {
			matches = append(matches, s)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return 0, fmt.Errorf("mapping: no known scheme matches recovered adjacency")
	default:
		// Ambiguity is possible in principle (e.g. tiny banks); prefer
		// the simplest scheme, reporting the ambiguity.
		return matches[0], fmt.Errorf("mapping: %d schemes match; adjacency underdetermines the scheme", len(matches))
	}
}

// consistent reports whether mapper m reproduces the recovered physical
// ordering: consecutive logical rows in each recovered path must map to
// physically consecutive rows.
func consistent(rec *RecoveredMap, m Mapper) bool {
	for _, sa := range rec.Subarrays {
		for i := 0; i+1 < len(sa); i++ {
			pa, pb := m.ToPhysical(sa[i]), m.ToPhysical(sa[i+1])
			if pa-pb != 1 && pb-pa != 1 {
				return false
			}
		}
	}
	return true
}
