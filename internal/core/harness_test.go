package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
)

func newTestHarness(t testing.TB) *Harness {
	t.Helper()
	h, err := NewHarnessFromConfig(config.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func ba(ch, pc, bank int) addr.BankAddr {
	return addr.BankAddr{Channel: ch, PseudoChannel: pc, Bank: bank}
}

func midRow(h *Harness, sa int) int {
	l := h.Device().Config().Layout()
	return l.Start(sa) + l.Size(sa)/2
}

func TestTable1MatchesPaper(t *testing.T) {
	ps := Table1()
	if len(ps) != 4 {
		t.Fatalf("%d patterns, want 4", len(ps))
	}
	want := []Pattern{
		{"Rowstripe0", 0x00, 0xFF, 0x00},
		{"Rowstripe1", 0xFF, 0x00, 0xFF},
		{"Checkered0", 0x55, 0xAA, 0x55},
		{"Checkered1", 0xAA, 0x55, 0xAA},
	}
	for i, p := range ps {
		if p != want[i] {
			t.Errorf("pattern %d = %+v, want %+v", i, p, want[i])
		}
	}
	// Aggressors always store the complement of the victim.
	for _, p := range ps {
		if p.Aggressor != ^p.Victim {
			t.Errorf("%s: aggressor %#x is not the complement of victim %#x", p.Name, p.Aggressor, p.Victim)
		}
		if p.Outer != p.Victim {
			t.Errorf("%s: outer rows must repeat the victim pattern", p.Name)
		}
	}
}

func TestRegionsMatchPaperWindows(t *testing.T) {
	rs := Regions(16384)
	if len(rs) != 3 {
		t.Fatalf("%d regions, want 3", len(rs))
	}
	// Fig. 5's x-axes: 0-3K, 6.5K-9.5K, 13K-16K.
	cases := []Region{
		{Name: "first", Start: 0, End: 3072},
		{Name: "middle", Start: 6656, End: 9728},
		{Name: "last", Start: 13312, End: 16384},
	}
	for i, want := range cases {
		if rs[i] != want {
			t.Errorf("region %d = %+v, want %+v", i, rs[i], want)
		}
		if rs[i].Rows() != 3072 {
			t.Errorf("region %s spans %d rows, want 3072 (3K)", rs[i].Name, rs[i].Rows())
		}
	}
}

func TestSampleRows(t *testing.T) {
	r := Region{Name: "x", Start: 100, End: 200}
	all := r.SampleRows(0)
	if len(all) != 100 || all[0] != 100 || all[99] != 199 {
		t.Fatalf("SampleRows(0) wrong: len=%d", len(all))
	}
	some := r.SampleRows(10)
	if len(some) != 10 {
		t.Fatalf("SampleRows(10) returned %d rows", len(some))
	}
	for i, row := range some {
		if row < 100 || row >= 200 {
			t.Fatalf("sample %d = %d outside region", i, row)
		}
		if i > 0 && row <= some[i-1] {
			t.Fatalf("samples not strictly increasing: %v", some)
		}
	}
	if got := r.SampleRows(1000); len(got) != 100 {
		t.Fatalf("oversampling returned %d rows, want all 100", len(got))
	}
}

func TestBERInVulnerableChannel(t *testing.T) {
	h := newTestHarness(t)
	r, err := h.BER(ba(7, 0, 0), midRow(h, 1), Table1()[1], DefaultHammers)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flips == 0 {
		t.Fatal("no flips in channel 7 at 256K hammers with Rowstripe1")
	}
	if r.Bits != h.Device().Geometry().RowBits() {
		t.Fatalf("bits = %d, want %d", r.Bits, h.Device().Geometry().RowBits())
	}
	if ber := r.BER(); ber <= 0 || ber > 0.2 {
		t.Fatalf("BER = %v, implausible", ber)
	}
	if r.Elapsed > RefreshBudget {
		t.Fatalf("experiment took %d ps, over the 27 ms budget", r.Elapsed)
	}
}

// TestBERMonotoneInHammerCount checks the premise every HCfirst search
// rests on — bitflips are monotone in the hammer count — against the
// paper's definition, through the sequential oracle, at paper geometry
// over a fixed sample of channels, regions and patterns. At HCPrecision
// 1 the victim flips at its HCfirst and not one hammer below it, and
// along an ascending grid of counts each read-out's flipped bits
// include every bit flipped at the count before (the bits themselves,
// not just their number). The batched searches skip probes on the
// strength of this property.
func TestBERMonotoneInHammerCount(t *testing.T) {
	h, err := NewHarnessFromConfig(config.PaperChip())
	if err != nil {
		t.Fatal(err)
	}
	h.HCPrecision = 1
	tras := h.Device().Config().Timing.TRAS
	regions := Regions(h.Device().Geometry().Rows)
	const steps = 16
	found, flipped := 0, 0
	for _, ch := range []int{0, 3, 7} {
		for ri, r := range regions {
			for pi, p := range Table1() {
				b := ba(ch, ri%2, (ch+pi)%h.Device().Geometry().Banks)
				row := r.Start + (r.End-r.Start)/2 + pi
				t.Run(fmt.Sprintf("ch%d/%s/%s", ch, r.Name, p.Name), func(t *testing.T) {
					hc, ok, err := seqHCFirst(h, b, row, p, DefaultHammers, tras)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						found++
						at, err := seqBER(h, b, row, p, hc, tras)
						if err != nil {
							t.Fatal(err)
						}
						below, err := seqBER(h, b, row, p, hc-1, tras)
						if err != nil {
							t.Fatal(err)
						}
						if at.Flips == 0 || below.Flips != 0 {
							t.Fatalf("HCfirst %d: %d flips at it, %d one hammer below", hc, at.Flips, below.Flips)
						}
					}
					var prev []byte
					for k := 1; k <= steps; k++ {
						n := DefaultHammers * k / steps
						reads, _, err := seqProbe(h, b, row, p, n, tras)
						if err != nil {
							t.Fatal(err)
						}
						cur := flippedBits(reads, p.Victim)
						for i := range prev {
							if prev[i]&^cur[i] != 0 {
								t.Fatalf("byte %d: bits %08b flipped at %d hammers but not at %d",
									i, prev[i]&^cur[i], DefaultHammers*(k-1)/steps, n)
							}
						}
						if k == steps && CountFlips(reads, p.Victim) > 0 {
							flipped++
						}
						prev = cur
					}
				})
			}
		}
	}
	if found == 0 || flipped == 0 {
		t.Fatalf("%d searches found an HCfirst and %d grids flipped a bit; the sample checks nothing", found, flipped)
	}
	t.Logf("%d of %d searches found an HCfirst; %d grids flipped a bit", found, 3*len(regions)*len(Table1()), flipped)
}

// flippedBits returns, byte by byte across a read-out, the bits that
// differ from the fill byte.
func flippedBits(reads [][]byte, fill byte) []byte {
	var out []byte
	for _, col := range reads {
		for _, v := range col {
			out = append(out, v^fill)
		}
	}
	return out
}

func TestBERRejectsBankEdgeVictims(t *testing.T) {
	h := newTestHarness(t)
	rows := h.Device().Geometry().Rows
	for _, phys := range []int{0, rows - 1} {
		if _, err := h.BER(ba(0, 0, 0), phys, Table1()[0], 1024); !errors.Is(err, ErrEdgeVictim) {
			t.Errorf("victim %d: err = %v, want ErrEdgeVictim", phys, err)
		}
	}
}

func TestBERDeterministicAcrossRepeats(t *testing.T) {
	// The paper repeats every experiment five times; the simulated chip
	// is noise-free, so repeats on a re-initialized row are identical.
	h := newTestHarness(t)
	b := ba(6, 1, 2)
	row := midRow(h, 2)
	p := Table1()[3]
	first, err := h.BER(b, row, p, DefaultHammers)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		r, err := h.BER(b, row, p, DefaultHammers)
		if err != nil {
			t.Fatal(err)
		}
		if r.Flips != first.Flips {
			t.Fatalf("repeat %d: %d flips, first run had %d", rep, r.Flips, first.Flips)
		}
	}
}

func TestHCFirstBracketsFirstFlip(t *testing.T) {
	h := newTestHarness(t)
	b := ba(7, 0, 0)
	row := midRow(h, 1)
	p := Table1()[1]
	hc, found, err := h.HCFirst(b, row, p, DefaultHammers)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no HCfirst found in channel 7 within 256K hammers")
	}
	hcFloor := int(h.Device().Config().Fault.HCFloor)
	if hc < hcFloor {
		t.Fatalf("HCfirst %d below the model's absolute floor %d", hc, hcFloor)
	}
	// At HCfirst there are flips; comfortably below, none.
	r, err := h.BER(b, row, p, hc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flips == 0 {
		t.Fatalf("no flips at reported HCfirst %d", hc)
	}
	below := hc - 4*h.HCPrecision
	if below > 0 {
		r, err = h.BER(b, row, p, below)
		if err != nil {
			t.Fatal(err)
		}
		if r.Flips != 0 {
			t.Fatalf("flips already at %d, below reported HCfirst %d", below, hc)
		}
	}
}

func TestHCFirstNotFoundOnStrongRow(t *testing.T) {
	h := newTestHarness(t)
	// Channel 0, last subarray (hardened), tiny hammer budget.
	layout := h.Device().Config().Layout()
	lastSA := layout.Count() - 1
	row := layout.Start(lastSA) + layout.Size(lastSA)/2
	_, found, err := h.HCFirst(ba(0, 0, 0), row, Table1()[1], 15000)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("15K hammers flipped a hardened last-subarray row in the strongest channel")
	}
}

func TestWCDPPrefersChannelMatchedStripe(t *testing.T) {
	h := newTestHarness(t)
	// Channel 7 is true-cell rich: charged cells store 1, so Rowstripe1
	// (victim 0xFF) flips the most cells. Channel 0 is anti-cell rich:
	// Rowstripe0 wins. Check a few mid-subarray rows each.
	cases := []struct {
		ch   int
		want string
	}{
		{ch: 7, want: "Rowstripe1"},
		{ch: 0, want: "Rowstripe0"},
	}
	for _, c := range cases {
		wins := 0
		const rowsTried = 3
		for i := 0; i < rowsTried; i++ {
			row := midRow(h, 1) + i*7
			w, err := h.WCDP(ba(c.ch, 0, 0), row, DefaultHammers)
			if err != nil {
				t.Fatal(err)
			}
			if w.Pattern.Name == c.want {
				wins++
			}
		}
		if wins < 2 {
			t.Errorf("channel %d: %s won only %d/%d rows", c.ch, c.want, wins, rowsTried)
		}
	}
}

func TestWCDPReportsConsistentNumbers(t *testing.T) {
	h := newTestHarness(t)
	w, err := h.WCDP(ba(7, 0, 0), midRow(h, 1), DefaultHammers)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Found {
		t.Fatal("WCDP found no flipping pattern in channel 7")
	}
	if w.HCFirst <= 0 || w.HCFirst > DefaultHammers {
		t.Fatalf("WCDP HCfirst = %d out of range", w.HCFirst)
	}
	if w.BER <= 0 {
		t.Fatal("WCDP BER must be positive when found")
	}
}

func TestVictimsOfInteriorRow(t *testing.T) {
	h := newTestHarness(t)
	b := ba(3, 0, 0)
	m := h.Device().Mapper()
	phys := midRow(h, 1)
	vs, err := h.VictimsOf(b, m.ToLogical(phys))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{m.ToLogical(phys - 1): true, m.ToLogical(phys + 1): true}
	if len(vs) != 2 {
		t.Fatalf("interior aggressor has %d victims (%v), want 2", len(vs), vs)
	}
	for _, v := range vs {
		if !want[v] {
			t.Fatalf("unexpected victim %d, want %v", v, want)
		}
	}
}

func TestVictimsOfSubarrayEdgeRow(t *testing.T) {
	h := newTestHarness(t)
	b := ba(3, 0, 0)
	m := h.Device().Mapper()
	layout := h.Device().Config().Layout()
	edge := layout.End(0) - 1 // last physical row of the first subarray
	vs, err := h.VictimsOf(b, m.ToLogical(edge))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("subarray-edge aggressor has %d victims (%v), want exactly 1 (paper footnote 3)", len(vs), vs)
	}
	if vs[0] != m.ToLogical(edge-1) {
		t.Fatalf("victim %d, want in-subarray neighbour %d", vs[0], m.ToLogical(edge-1))
	}
}

func TestVictimsOfRejectsBadRow(t *testing.T) {
	h := newTestHarness(t)
	if _, err := h.VictimsOf(ba(0, 0, 0), -1); err == nil {
		t.Fatal("negative row accepted")
	}
}

func TestExtendedPatternsAreWeakerThanStripes(t *testing.T) {
	// Solid patterns have no opposite-data aggressors (weakest
	// coupling); the paper's stripes are the strong stimulus. Future
	// work pattern set, implemented as an extension.
	h := newTestHarness(t)
	b := ba(7, 0, 0)
	row := midRow(h, 1)
	stripe, err := h.BER(b, row, Table1()[1], DefaultHammers)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ExtendedPatterns() {
		r, err := h.BER(b, row, p, DefaultHammers)
		if err != nil {
			t.Fatal(err)
		}
		if r.Flips >= stripe.Flips {
			t.Errorf("%s flips %d >= Rowstripe1's %d; same-data aggressors must couple less",
				p.Name, r.Flips, stripe.Flips)
		}
	}
}

func TestExtendedPatternShapes(t *testing.T) {
	ps := ExtendedPatterns()
	if len(ps) != 4 {
		t.Fatalf("%d extended patterns, want 4", len(ps))
	}
	for _, p := range ps {
		if p.Aggressor != p.Victim || p.Outer != p.Victim {
			t.Errorf("%s: solid/colstripe patterns store uniform data across rows", p.Name)
		}
	}
}

func TestBERHoldAmplifies(t *testing.T) {
	h := newTestHarness(t)
	b := ba(0, 0, 0) // weakest channel: minimum-timing hammers at this count do nothing
	victims := []int{midRow(h, 1)}
	tras := h.Device().Config().Timing.TRAS
	const hammers = 8000
	_, _, base, err := h.HCFirstBatchHold(b, victims, Table1()[0], hammers, tras)
	if err != nil {
		t.Fatal(err)
	}
	_, _, pressed, err := h.HCFirstBatchHold(b, victims, Table1()[0], hammers, tras*40)
	if err != nil {
		t.Fatal(err)
	}
	if base[0].Flips != 0 {
		t.Fatalf("premise broken: %d flips at minimum timing", base[0].Flips)
	}
	if pressed[0].Flips == 0 {
		t.Fatal("no RowPress amplification through the harness")
	}
}

func TestHarnessContextCancelsMeasurements(t *testing.T) {
	h := newTestHarness(t)
	b := ba(7, 0, 0)
	row := midRow(h, 1)
	p := Table1()[1]

	ctx, cancel := context.WithCancel(context.Background())
	h.SetContext(ctx)
	// Armed but live: measurements run normally.
	if _, err := h.BER(b, row, p, 2048); err != nil {
		t.Fatalf("armed harness failed a live measurement: %v", err)
	}
	cancel()
	if _, err := h.BER(b, row, p, 2048); !errors.Is(err, context.Canceled) {
		t.Fatalf("BER err = %v, want context.Canceled", err)
	}
	if _, _, err := h.HCFirst(b, row, p, DefaultHammers); !errors.Is(err, context.Canceled) {
		t.Fatalf("HCFirst err = %v, want context.Canceled", err)
	}
	if _, err := h.WCDP(b, row, DefaultHammers); !errors.Is(err, context.Canceled) {
		t.Fatalf("WCDP err = %v, want context.Canceled", err)
	}
	// Disarming restores normal operation; Reset does the same for pooled
	// reuse.
	h.SetContext(nil)
	if _, err := h.BER(b, row, p, 2048); err != nil {
		t.Fatalf("disarmed harness still failing: %v", err)
	}
	h.SetContext(ctx)
	h.Reset()
	if _, err := h.BER(b, row, p, 2048); err != nil {
		t.Fatalf("Reset did not disarm the context: %v", err)
	}
}

func TestHarnessContextCancellationDoesNotPerturbResults(t *testing.T) {
	// A measurement either completes identically or fails with ctx.Err():
	// interleaving cancelled calls must not change subsequent results.
	h := newTestHarness(t)
	b := ba(6, 0, 0)
	row := midRow(h, 1)
	p := Table1()[1]
	want, err := h.BER(b, row, p, DefaultHammers)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.SetContext(ctx)
	if _, err := h.BER(b, row, p, DefaultHammers); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	h.SetContext(nil)
	got, err := h.BER(b, row, p, DefaultHammers)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-cancellation measurement drifted: %+v vs %+v", got, want)
	}
}

func TestVictimsOfBankEdgeAggressor(t *testing.T) {
	// The physically-first row of the bank has a single neighbour.
	h := newTestHarness(t)
	b := ba(2, 0, 0)
	m := h.Device().Mapper()
	vs, err := h.VictimsOf(b, m.ToLogical(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0] != m.ToLogical(1) {
		t.Fatalf("bank-edge aggressor victims = %v, want [%d]", vs, m.ToLogical(1))
	}
}
