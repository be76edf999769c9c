package addr

import (
	"testing"
	"testing/quick"
)

func paperGeometry() Geometry {
	return Geometry{
		Channels:       8,
		PseudoChannels: 2,
		Banks:          16,
		Rows:           16384,
		Columns:        32,
		ColumnBytes:    32,
	}
}

func TestPaperGeometryCapacity(t *testing.T) {
	g := paperGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	const wantBytes int64 = 4 << 30 // 4 GiB stack density, as in the paper
	if got := g.TotalBytes(); got != wantBytes {
		t.Fatalf("TotalBytes() = %d, want %d", got, wantBytes)
	}
	if got := g.RowBytes(); got != 1024 {
		t.Fatalf("RowBytes() = %d, want 1024", got)
	}
	if got := g.RowBits(); got != 8192 {
		t.Fatalf("RowBits() = %d, want 8192", got)
	}
	if got := g.TotalBanks(); got != 256 {
		t.Fatalf("TotalBanks() = %d, want 256 (8ch x 2pc x 16 banks)", got)
	}
}

func TestGeometryValidateRejectsZeroDims(t *testing.T) {
	cases := []func(*Geometry){
		func(g *Geometry) { g.Channels = 0 },
		func(g *Geometry) { g.PseudoChannels = 0 },
		func(g *Geometry) { g.Banks = -1 },
		func(g *Geometry) { g.Rows = 0 },
		func(g *Geometry) { g.Columns = 0 },
		func(g *Geometry) { g.ColumnBytes = 0 },
	}
	for i, mutate := range cases {
		g := paperGeometry()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate() accepted invalid geometry %+v", i, g)
		}
	}
}

func TestDieGrouping(t *testing.T) {
	g := paperGeometry()
	if got := g.Dies(); got != 4 {
		t.Fatalf("Dies() = %d, want 4", got)
	}
	wantDie := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for ch, want := range wantDie {
		if got := g.DieOf(ch); got != want {
			t.Errorf("DieOf(%d) = %d, want %d", ch, got, want)
		}
	}
}

func TestBankFlatRoundTrip(t *testing.T) {
	g := paperGeometry()
	seen := make(map[int]bool)
	Banks(g, func(b BankAddr) {
		flat := b.Flat(g)
		if seen[flat] {
			t.Fatalf("duplicate flat index %d for %v", flat, b)
		}
		seen[flat] = true
		if got := BankFromFlat(g, flat); got != b {
			t.Fatalf("BankFromFlat(%d) = %v, want %v", flat, got, b)
		}
	})
	if len(seen) != g.TotalBanks() {
		t.Fatalf("Banks visited %d banks, want %d", len(seen), g.TotalBanks())
	}
}

func TestBankAddrValid(t *testing.T) {
	g := paperGeometry()
	valid := BankAddr{Channel: 7, PseudoChannel: 1, Bank: 15}
	if !valid.Valid(g) {
		t.Errorf("%v should be valid", valid)
	}
	invalid := []BankAddr{
		{Channel: 8},
		{PseudoChannel: 2},
		{Bank: 16},
		{Channel: -1},
	}
	for _, b := range invalid {
		if b.Valid(g) {
			t.Errorf("%v should be invalid", b)
		}
	}
}

func TestRowAddrStringAndValid(t *testing.T) {
	g := paperGeometry()
	r := RowAddr{BankAddr: BankAddr{Channel: 3, PseudoChannel: 1, Bank: 2}, Row: 100}
	if got, want := r.String(), "ch3.pc1.ba2.row100"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !r.Valid(g) {
		t.Error("row should be valid")
	}
	if r.WithRow(16384).Valid(g) {
		t.Error("row 16384 should be invalid")
	}
	if r.WithRow(5).Row != 5 {
		t.Error("WithRow did not set row")
	}
}

func TestSubarrayLayoutPaperShape(t *testing.T) {
	// The paper's bank: sixteen 832-row and four 768-row subarrays
	// summing to 16384 rows, with the 768-row ones in the middle region.
	sizes := make([]int, 0, 20)
	for i := 0; i < 8; i++ {
		sizes = append(sizes, 832)
	}
	for i := 0; i < 4; i++ {
		sizes = append(sizes, 768)
	}
	for i := 0; i < 8; i++ {
		sizes = append(sizes, 832)
	}
	l, err := NewSubarrayLayout(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rows() != 16384 {
		t.Fatalf("layout rows = %d, want 16384", l.Rows())
	}
	if l.Count() != 20 {
		t.Fatalf("layout count = %d, want 20", l.Count())
	}
	// Last subarray must be the last 832 rows, per the paper's observation.
	last := l.Count() - 1
	if l.Size(last) != 832 || l.Start(last) != 16384-832 {
		t.Fatalf("last subarray = [%d, %d), want [15552, 16384)", l.Start(last), l.End(last))
	}
}

func TestSubarrayLocate(t *testing.T) {
	l, err := NewSubarrayLayout([]int{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		row, sa, off int
	}{
		{0, 0, 0}, {9, 0, 9}, {10, 1, 0}, {29, 1, 19}, {30, 2, 0}, {59, 2, 29},
	}
	for _, c := range cases {
		sa, off := l.Locate(c.row)
		if sa != c.sa || off != c.off {
			t.Errorf("Locate(%d) = (%d, %d), want (%d, %d)", c.row, sa, off, c.sa, c.off)
		}
	}
}

func TestSubarrayLocatePropertyRoundTrip(t *testing.T) {
	l, err := NewSubarrayLayout([]int{832, 768, 832, 768})
	if err != nil {
		t.Fatal(err)
	}
	f := func(r uint16) bool {
		row := int(r) % l.Rows()
		sa, off := l.Locate(row)
		return l.Start(sa)+off == row && off < l.Size(sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubarrayLocatePanicsOutOfRange(t *testing.T) {
	l, _ := NewSubarrayLayout([]int{16})
	defer func() {
		if recover() == nil {
			t.Fatal("Locate(16) should panic")
		}
	}()
	l.Locate(16)
}

func TestSubarrayEdges(t *testing.T) {
	l, _ := NewSubarrayLayout([]int{4, 4})
	wantEdges := map[int]bool{0: true, 3: true, 4: true, 7: true}
	for row := 0; row < 8; row++ {
		if got := l.IsEdge(row); got != wantEdges[row] {
			t.Errorf("IsEdge(%d) = %v, want %v", row, got, wantEdges[row])
		}
	}
	if l.SameSubarray(3, 4) {
		t.Error("rows 3 and 4 are in different subarrays")
	}
	if !l.SameSubarray(4, 7) {
		t.Error("rows 4 and 7 are in the same subarray")
	}
}

func TestNewSubarrayLayoutRejectsBadSizes(t *testing.T) {
	if _, err := NewSubarrayLayout(nil); err == nil {
		t.Error("empty layout should be rejected")
	}
	if _, err := NewSubarrayLayout([]int{5, 0}); err == nil {
		t.Error("zero-size subarray should be rejected")
	}
	if _, err := NewSubarrayLayout([]int{-3}); err == nil {
		t.Error("negative subarray should be rejected")
	}
}
