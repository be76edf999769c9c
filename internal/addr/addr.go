// Package addr defines the HBM2 address space and device geometry used
// throughout the simulator: stack → channel → pseudo channel → bank →
// row → column, matching the organization in Fig. 1 of the paper.
package addr

import "fmt"

// Geometry describes the dimensions of one HBM2 stack. The paper's chip is
// a 4 GiB stack with 8 channels, 2 pseudo channels per channel, 16 banks
// per pseudo channel, 16384 rows per bank and 32 columns per row.
type Geometry struct {
	Channels       int // independent HBM2 channels per stack
	PseudoChannels int // pseudo channels per channel
	Banks          int // banks per pseudo channel
	Rows           int // rows per bank
	Columns        int // column accesses per row
	ColumnBytes    int // bytes transferred per column access
}

// Validate reports whether every dimension is positive.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("addr: channels = %d, must be positive", g.Channels)
	case g.PseudoChannels <= 0:
		return fmt.Errorf("addr: pseudo channels = %d, must be positive", g.PseudoChannels)
	case g.Banks <= 0:
		return fmt.Errorf("addr: banks = %d, must be positive", g.Banks)
	case g.Rows <= 0:
		return fmt.Errorf("addr: rows = %d, must be positive", g.Rows)
	case g.Columns <= 0:
		return fmt.Errorf("addr: columns = %d, must be positive", g.Columns)
	case g.ColumnBytes <= 0:
		return fmt.Errorf("addr: column bytes = %d, must be positive", g.ColumnBytes)
	}
	return nil
}

// RowBytes returns the number of bytes stored in one row.
func (g Geometry) RowBytes() int { return g.Columns * g.ColumnBytes }

// RowBits returns the number of cells (bits) in one row.
func (g Geometry) RowBits() int { return g.RowBytes() * 8 }

// TotalBanks returns the number of banks across the whole stack.
func (g Geometry) TotalBanks() int {
	return g.Channels * g.PseudoChannels * g.Banks
}

// TotalBytes returns the stack capacity in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.TotalBanks()) * int64(g.Rows) * int64(g.RowBytes())
}

// Dies returns the number of stacked DRAM dies, assuming the paper's layout
// of two channels per die.
func (g Geometry) Dies() int { return (g.Channels + 1) / 2 }

// DieOf returns the die index hosting the given channel. Channels are laid
// out two per die: channels {0,1} on die 0, {2,3} on die 1, and so on. This
// grouping is the paper's hypothesis for why channels pair up in BER.
func (g Geometry) DieOf(channel int) int { return channel / 2 }

// BankAddr identifies one bank within a stack.
type BankAddr struct {
	Channel       int
	PseudoChannel int
	Bank          int
}

// String renders the bank address as "ch0.pc1.ba2".
func (b BankAddr) String() string {
	return fmt.Sprintf("ch%d.pc%d.ba%d", b.Channel, b.PseudoChannel, b.Bank)
}

// Valid reports whether the bank address is within geometry g.
func (b BankAddr) Valid(g Geometry) bool {
	return b.Channel >= 0 && b.Channel < g.Channels &&
		b.PseudoChannel >= 0 && b.PseudoChannel < g.PseudoChannels &&
		b.Bank >= 0 && b.Bank < g.Banks
}

// Flat returns a dense index for the bank in [0, g.TotalBanks()).
func (b BankAddr) Flat(g Geometry) int {
	return (b.Channel*g.PseudoChannels+b.PseudoChannel)*g.Banks + b.Bank
}

// BankFromFlat inverts BankAddr.Flat.
func BankFromFlat(g Geometry, flat int) BankAddr {
	bank := flat % g.Banks
	flat /= g.Banks
	pc := flat % g.PseudoChannels
	return BankAddr{Channel: flat / g.PseudoChannels, PseudoChannel: pc, Bank: bank}
}

// RowAddr identifies one row within a stack.
type RowAddr struct {
	BankAddr
	Row int
}

// String renders the row address as "ch0.pc1.ba2.row345".
func (r RowAddr) String() string {
	return fmt.Sprintf("%s.row%d", r.BankAddr, r.Row)
}

// Valid reports whether the row address is within geometry g.
func (r RowAddr) Valid(g Geometry) bool {
	return r.BankAddr.Valid(g) && r.Row >= 0 && r.Row < g.Rows
}

// WithRow returns a copy of r addressing a different row in the same bank.
func (r RowAddr) WithRow(row int) RowAddr {
	r.Row = row
	return r
}

// Banks iterates over every bank in the stack in canonical order
// (channel-major, then pseudo channel, then bank) and calls fn for each.
func Banks(g Geometry, fn func(BankAddr)) {
	for ch := 0; ch < g.Channels; ch++ {
		for pc := 0; pc < g.PseudoChannels; pc++ {
			for ba := 0; ba < g.Banks; ba++ {
				fn(BankAddr{Channel: ch, PseudoChannel: pc, Bank: ba})
			}
		}
	}
}

// SubarrayLayout describes how a bank's rows split into subarrays. The
// paper reverse-engineers subarrays of 832 and 768 rows in the tested chip.
//
// The device asks for a row's subarray on every sense and every disturb,
// so the layout resolves it once, at construction, into a per-row table:
// every query below is a table lookup.
type SubarrayLayout struct {
	sizes  []int
	starts []int   // starts[i] is the first row of subarray i
	of     []int32 // of[row] is the subarray containing row
	rows   int
}

// NewSubarrayLayout builds a layout from the given subarray sizes. The
// sizes must be positive; their sum defines the number of rows covered.
func NewSubarrayLayout(sizes []int) (*SubarrayLayout, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("addr: subarray layout needs at least one subarray")
	}
	l := &SubarrayLayout{
		sizes:  make([]int, len(sizes)),
		starts: make([]int, len(sizes)),
	}
	copy(l.sizes, sizes)
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("addr: subarray %d has non-positive size %d", i, s)
		}
		l.starts[i] = l.rows
		l.rows += s
	}
	l.of = make([]int32, l.rows)
	for i := range sizes {
		for row := l.starts[i]; row < l.End(i); row++ {
			l.of[row] = int32(i)
		}
	}
	return l, nil
}

// Rows returns the total number of rows the layout covers.
func (l *SubarrayLayout) Rows() int { return l.rows }

// Count returns the number of subarrays.
func (l *SubarrayLayout) Count() int { return len(l.sizes) }

// Size returns the number of rows in subarray i.
func (l *SubarrayLayout) Size(i int) int { return l.sizes[i] }

// Start returns the first row of subarray i.
func (l *SubarrayLayout) Start(i int) int { return l.starts[i] }

// End returns one past the last row of subarray i.
func (l *SubarrayLayout) End(i int) int { return l.starts[i] + l.sizes[i] }

// subarray returns the index of the subarray containing row. It panics if
// row is outside the layout, which indicates a geometry/layout mismatch
// bug.
func (l *SubarrayLayout) subarray(row int) int {
	if uint(row) >= uint(len(l.of)) {
		l.outside(row)
	}
	return int(l.of[row])
}

// outside panics for a row outside the layout. It is a function of its
// own so that the lookups calling it stay small enough to inline.
//
//go:noinline
func (l *SubarrayLayout) outside(row int) {
	panic(fmt.Sprintf("addr: row %d outside subarray layout of %d rows", row, l.rows))
}

// Locate returns the subarray index containing row, and the row's offset
// within that subarray. It panics if row is outside the layout, which
// indicates a geometry/layout mismatch bug.
func (l *SubarrayLayout) Locate(row int) (sa, offset int) {
	sa = l.subarray(row)
	return sa, row - l.starts[sa]
}

// Bounds returns the half-open row range [start, end) of the subarray
// containing row: every row in it shares row's subarray. It panics like
// Locate for a row outside the layout.
func (l *SubarrayLayout) Bounds(row int) (start, end int) {
	sa := l.subarray(row)
	return l.starts[sa], l.starts[sa] + l.sizes[sa]
}

// SameSubarray reports whether two rows fall in the same subarray.
func (l *SubarrayLayout) SameSubarray(a, b int) bool {
	return l.subarray(a) == l.subarray(b)
}

// IsEdge reports whether the row is the first or last row of its subarray.
// Edge rows have only one in-subarray neighbour, which is how the paper's
// single-sided hammering reverse-engineers subarray boundaries.
func (l *SubarrayLayout) IsEdge(row int) bool {
	start, end := l.Bounds(row)
	return row == start || row == end-1
}
