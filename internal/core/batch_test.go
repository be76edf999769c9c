package core

import (
	"context"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/hbm"
)

// batchBank returns the bank the batch tests probe: channel 7 is the most
// vulnerable channel of the SmallChip fault profile, so probes actually
// flip bits there.
func batchBank() addr.BankAddr {
	return addr.BankAddr{Channel: 7, PseudoChannel: 0, Bank: 1}
}

func TestBERBatchMatchesSequential(t *testing.T) {
	h := newTestHarness(t)
	ba := batchBank()
	rows := h.Device().Geometry().Rows
	tras := h.Device().Config().Timing.TRAS
	victims := []int{1, 2, 100, 101, 512, rows / 3, rows - 2}
	const hammers = 40_000
	for _, p := range Table1() {
		batch, err := h.BERBatch(ba, victims, p, hammers)
		if err != nil {
			t.Fatalf("pattern %s: batch: %v", p.Name, err)
		}
		for j, v := range victims {
			seq, err := seqBER(h, ba, v, p, hammers, tras)
			if err != nil {
				t.Fatalf("pattern %s row %d: sequential: %v", p.Name, v, err)
			}
			if batch[j] != seq {
				t.Fatalf("pattern %s row %d: batch %+v != sequential %+v", p.Name, v, batch[j], seq)
			}
		}
	}
}

// TestBERBatchChunksLargeBatches drives more victims than MaxProbeBatch so
// the chunked path (several programs per batch call) is exercised.
func TestBERBatchChunksLargeBatches(t *testing.T) {
	h := newTestHarness(t)
	ba := batchBank()
	p := Table1()[1]
	victims := make([]int, MaxProbeBatch+9)
	for i := range victims {
		victims[i] = 1 + i*3
	}
	const hammers = 2_000
	batch, err := h.BERBatch(ba, victims, p, hammers)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(victims) {
		t.Fatalf("got %d results for %d victims", len(batch), len(victims))
	}
	tras := h.Device().Config().Timing.TRAS
	for _, j := range []int{0, MaxProbeBatch - 1, MaxProbeBatch, len(victims) - 1} {
		seq, err := seqBER(h, ba, victims[j], p, hammers, tras)
		if err != nil {
			t.Fatal(err)
		}
		if batch[j] != seq {
			t.Fatalf("row %d (chunk edge): batch %+v != sequential %+v", victims[j], batch[j], seq)
		}
	}
}

func TestHCFirstBatchMatchesSequential(t *testing.T) {
	h := newTestHarness(t)
	ba := batchBank()
	tras := h.Device().Config().Timing.TRAS
	victims := []int{1, 50, 300, 600, 1022}
	const maxHammers = 120_000
	for _, p := range Table1()[:2] {
		hcs, founds, bers, err := h.HCFirstBatch(ba, victims, p, maxHammers)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range victims {
			hc, found, err := seqHCFirst(h, ba, v, p, maxHammers, tras)
			if err != nil {
				t.Fatal(err)
			}
			ber, err := seqBER(h, ba, v, p, maxHammers, tras)
			if err != nil {
				t.Fatal(err)
			}
			if hcs[j] != hc || founds[j] != found || bers[j] != ber {
				t.Fatalf("pattern %s row %d: batch (%d,%v,%+v) != sequential (%d,%v,%+v)",
					p.Name, v, hcs[j], founds[j], bers[j], hc, found, ber)
			}
		}
	}
}

// TestHCFirstBatchChunksLargeBatches drives more victims than
// MaxProbeBatch through the search, so a batch spans several probe
// programs, at a ceiling whose halvings go uneven: after five rounds a
// victim's search width is 4687 or 4688 (150000/32 = 4687.5), and a
// precision of 4687 stops the first kind and not the second, so victims
// converge in different rounds and the search skips more probes of its
// program as its active set shrinks.
func TestHCFirstBatchChunksLargeBatches(t *testing.T) {
	h := newTestHarness(t)
	h.HCPrecision = 4687
	ba := batchBank()
	p := Table1()[0]
	victims := make([]int, MaxProbeBatch+9)
	for i := range victims {
		victims[i] = 1 + i*13
	}
	const maxHammers = 150_000
	hcs, founds, bers, err := h.HCFirstBatch(ba, victims, p, maxHammers)
	if err != nil {
		t.Fatal(err)
	}
	if len(hcs) != len(victims) || len(founds) != len(victims) || len(bers) != len(victims) {
		t.Fatalf("got %d/%d/%d results for %d victims", len(hcs), len(founds), len(bers), len(victims))
	}
	tras := h.Device().Config().Timing.TRAS
	flipped := 0
	for j, v := range victims {
		hc, found, err := seqHCFirst(h, ba, v, p, maxHammers, tras)
		if err != nil {
			t.Fatal(err)
		}
		ber, err := seqBER(h, ba, v, p, maxHammers, tras)
		if err != nil {
			t.Fatal(err)
		}
		if hcs[j] != hc || founds[j] != found || bers[j] != ber {
			t.Fatalf("row %d: batch (%d,%v,%+v) != sequential (%d,%v,%+v)", v, hcs[j], founds[j], bers[j], hc, found, ber)
		}
		if found {
			flipped++
		}
	}
	if flipped == 0 || flipped == len(victims) {
		t.Fatalf("%d of %d victims flipped; the test needs both kinds to shrink the active set", flipped, len(victims))
	}
}

// TestHCFirstBatchAllocsIndependentOfRounds pins program reuse in the
// search: once warm, an HCfirst batch allocates only its result slices,
// the same number of times whether the binary search takes one round or
// seventeen, because a round re-runs the validated program instead of
// assembling a new one.
func TestHCFirstBatchAllocsIndependentOfRounds(t *testing.T) {
	h := newTestHarness(t)
	ba := batchBank()
	p := Table1()[1]
	victims := []int{5, 90, 333, 600, 901}
	const maxHammers = 200_000
	allocs := func(prec int) float64 {
		h.HCPrecision = prec
		search := func() {
			if _, _, _, err := h.HCFirstBatch(ba, victims, p, maxHammers); err != nil {
				t.Fatal(err)
			}
		}
		search() // warm: profiles, row states, builder, arena, scratch
		search()
		return testing.AllocsPerRun(10, search)
	}
	one, many := allocs(maxHammers/2), allocs(1)
	if one != many {
		t.Fatalf("warm HCFirstBatch allocates %.2f times with one round, %.2f with seventeen", one, many)
	}
	if one > 3 {
		t.Fatalf("warm HCFirstBatch allocates %.2f times, want at most its 3 result slices", one)
	}
}

func TestBERBatchRejectsEdgeVictims(t *testing.T) {
	h := newTestHarness(t)
	ba := batchBank()
	if _, err := h.BERBatch(ba, []int{5, 0}, Table1()[0], 1000); err == nil {
		t.Fatal("batch accepted a bank-edge victim")
	}
	rows := h.Device().Geometry().Rows
	if _, err := h.BERBatch(ba, []int{rows - 1}, Table1()[0], 1000); err == nil {
		t.Fatal("batch accepted the last bank row as victim")
	}
}

// TestBERBatchEnforcesBudgetPerProbe pins that the 27 ms refresh budget is
// checked per probe segment, not against the whole batch program: two
// probes that each fit the budget must pass batched even though their sum
// exceeds it, and a single over-budget probe must fail with the same
// error the sequential path reports.
func TestBERBatchEnforcesBudgetPerProbe(t *testing.T) {
	h := newTestHarness(t)
	ba := batchBank()
	p := Table1()[0]
	// One probe at 256K hammers stays inside 27 ms; two of them in one
	// batch program total well over it.
	if _, err := h.BERBatch(ba, []int{10, 20}, p, DefaultHammers); err != nil {
		t.Fatalf("per-probe budget misapplied to the whole batch: %v", err)
	}
	_, seqErr := seqBER(h, ba, 10, p, 500_000, h.Device().Config().Timing.TRAS)
	if seqErr == nil || !strings.Contains(seqErr.Error(), "refresh budget") {
		t.Fatalf("sequential 500K-hammer probe should exceed the budget, got %v", seqErr)
	}
	_, batchErr := h.BERBatch(ba, []int{10}, p, 500_000)
	if batchErr == nil || batchErr.Error() != seqErr.Error() {
		t.Fatalf("batch budget error %q != sequential %q", batchErr, seqErr)
	}
}

func TestBERBatchHonoursCancelledContext(t *testing.T) {
	h := newTestHarness(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.SetContext(ctx)
	defer h.SetContext(nil)
	if _, err := h.BERBatch(batchBank(), []int{5}, Table1()[0], 1000); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// FuzzBatchProbeEquivalence is the batched-probe leg of the differential
// sense fuzz: a batch of probes on a normal (fast-sense) device must
// measure exactly what the sequential oracle measures one probe at a
// time on a device pinned to the reference sense path. The batch is a
// BERBatch at the fuzzed hammer count and an HCFirstBatchHold with that
// count as its ceiling, a fuzzed precision and a fuzzed hold multiplier
// (1 is minimum timing; above it the probes are pressed, RowPress, and
// the refresh budget does not apply) — where the ceiling/precision ratio
// is not a power of two, victims converge in different rounds and the
// search skips different probes of its program each round — against
// sequential BER and HCfirst. Any divergence in the batch concatenation,
// the probe skipping, the segment accounting, or the fast sense path
// shows up as a value mismatch. A fuzzed shift moves every predicted
// first flip the batched search checks, by part of a leaf, by a leaf,
// by many, or past the ceiling (hintShift): a wrong prediction may cost
// probes but must not change an answer.
func FuzzBatchProbeEquivalence(f *testing.F) {
	f.Add(uint8(0), []byte{10, 60, 200}, uint16(20_000), uint16(257), uint8(0), int32(0))
	f.Add(uint8(1), []byte{1, 1, 255}, uint16(50_000), uint16(601), uint8(0), int32(0))
	f.Add(uint8(2), []byte{128}, uint16(1), uint16(1), uint8(0), int32(0))
	f.Add(uint8(3), []byte{7, 9, 11, 13, 40, 80, 160, 220}, uint16(35_000), uint16(8), uint8(0), int32(0))
	f.Add(uint8(0), []byte{3, 30, 90, 150, 210, 250}, uint16(60_001), uint16(12), uint8(0), int32(0))
	f.Add(uint8(1), []byte{20, 70, 140, 230}, uint16(40_000), uint16(1), uint8(0), int32(-1))
	f.Add(uint8(2), []byte{5, 100, 200}, uint16(30_000), uint16(601), uint8(3), int32(300))
	f.Add(uint8(3), []byte{9, 99, 199}, uint16(50_000), uint16(257), uint8(0), int32(-37*128))
	f.Add(uint8(0), []byte{33, 133, 233}, uint16(45_000), uint16(8), uint8(1), int32(DefaultHammers))
	f.Fuzz(func(t *testing.T, pi uint8, vraw []byte, rawHammers, rawPrec uint16, rawHold uint8, shift int32) {
		if len(vraw) == 0 || len(vraw) > 8 {
			t.Skip()
		}
		cfg := config.SmallChip()
		hFast, err := NewHarnessFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dRef, err := hbm.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dRef.SetSenseReference(true)
		hRef, err := NewHarness(dRef)
		if err != nil {
			t.Fatal(err)
		}
		rows := hFast.Device().Geometry().Rows
		victims := make([]int, len(vraw))
		for i, b := range vraw {
			victims[i] = 1 + int(b)*(rows-2)/256
		}
		p := Table1()[int(pi)%len(Table1())]
		hammers := 1 + int(rawHammers)%DefaultHammers
		// An even rawPrec picks a precision of hammers/2^k: after k rounds
		// the search widths are the floor and ceiling of hammers/2^k, so
		// when those differ victims converge in different rounds. An odd
		// one picks any precision (below 1 searches to 1, like HCFirst).
		prec := int(rawPrec >> 1)
		if rawPrec&1 == 0 {
			prec = hammers >> (1 + prec%18)
		}
		hFast.HCPrecision, hRef.HCPrecision = prec, prec
		hFast.hintShift = int(shift)
		tras := cfg.Timing.TRAS
		hold := tras * int64(1+rawHold%16)
		ba := batchBank()
		batch, err := hFast.BERBatch(ba, victims, p, hammers)
		if err != nil {
			t.Fatal(err)
		}
		hcs, founds, ceilings, err := hFast.HCFirstBatchHold(ba, victims, p, hammers, hold)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range victims {
			seq, err := seqBER(hRef, ba, v, p, hammers, tras)
			if err != nil {
				t.Fatal(err)
			}
			if batch[j] != seq {
				t.Fatalf("row %d: batched-on-fast %+v != sequential-on-reference %+v", v, batch[j], seq)
			}
			pressed, err := seqBER(hRef, ba, v, p, hammers, hold)
			if err != nil {
				t.Fatal(err)
			}
			if ceilings[j] != pressed {
				t.Fatalf("row %d, hold %d ps: search ceiling on fast %+v != sequential-on-reference %+v",
					v, hold, ceilings[j], pressed)
			}
			hc, found, err := seqHCFirst(hRef, ba, v, p, hammers, hold)
			if err != nil {
				t.Fatal(err)
			}
			if hcs[j] != hc || founds[j] != found {
				t.Fatalf("row %d, hold %d ps: batched-on-fast HCfirst (%d,%v) != sequential-on-reference (%d,%v)",
					v, hold, hcs[j], founds[j], hc, found)
			}
		}
	})
}

// TestProbeDeviceWork pins the device work of the batched searches: the
// exact command counters and simulated clock a fresh device shows after
// an HCfirst search whose ceiling/precision ratio is not a power of two
// (victims converge in different rounds) with some victims that never
// flip, a two-chunk WCDP search, and a pressed (RowPress) HCfirst
// search. The figures were recorded when the searches began to check
// each victim's predicted leaf before any halving round, and the WCDP
// search to try each victim's predicted winner first, which cut them to
// between a third and a half (the plain bisection's were 19689019,
// 223851408 and 5338144 ACTs), so they show which probes run and that a
// skipped probe issues no command.
func TestProbeDeviceWork(t *testing.T) {
	cases := []struct {
		name  string
		run   func(h *Harness) (flipped, total int, err error)
		stats hbm.Stats
		now   int64
	}{
		{"hcfirst-uneven", func(h *Harness) (int, int, error) {
			h.HCPrecision = 4687
			victims := spreadVictims(h.Device().Geometry().Rows, 20)
			_, found, _, err := h.HCFirstBatch(batchBank(), victims, Table1()[0], 150_000)
			return countTrue(found), len(victims), err
		},
			hbm.Stats{Acts: 10922624, Precharges: 10922624, Reads: 344, Writes: 5736, BitflipsCommitted: 33}, 513364607488},
		{"wcdp-two-chunks", func(h *Harness) (int, int, error) {
			h.HCPrecision = 1000
			victims := spreadVictims(h.Device().Geometry().Rows, MaxProbeBatch+7)
			res, err := h.WCDPBatch(addr.BankAddr{Channel: 4}, victims, 180_000)
			n := 0
			for _, r := range res {
				if r.Found {
					n++
				}
			}
			return n, len(victims), err
		},
			hbm.Stats{Acts: 80461562, Precharges: 80461562, Reads: 3360, Writes: 56784, BitflipsCommitted: 533}, 3781705952316},
		{"hcfirst-hold", func(h *Harness) (int, int, error) {
			victims := spreadVictims(h.Device().Geometry().Rows, 9)
			hold := 4 * h.Device().Config().Timing.TRAS
			_, found, _, err := h.HCFirstBatchHold(addr.BankAddr{Channel: 1}, victims, Table1()[1], 60_000, hold)
			return countTrue(found), len(victims), err
		},
			hbm.Stats{Acts: 2062639, Precharges: 2062639, Reads: 184, Writes: 2960, BitflipsCommitted: 26}, 301107055066},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newTestHarness(t)
			flipped, total, err := c.run(h)
			if err != nil {
				t.Fatal(err)
			}
			if flipped == 0 || flipped == total {
				t.Fatalf("%d of %d victims flipped; the case needs victims that flip and victims that do not", flipped, total)
			}
			d := h.Device()
			if d.Stats() != c.stats || d.Now() != c.now {
				t.Fatalf("device work %#v at %d ps, want %#v at %d ps", d.Stats(), d.Now(), c.stats, c.now)
			}
		})
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestHCFirstBatchBuildsEachLadderOnce pins the sense engine's per-row
// work on the paper's search: HCFirstBatch at the default hammer count,
// under every Table 1 pattern in turn, computes each victim's profile
// and builds its threshold ladder once, and never rebuilds one. Each
// search's first probe is its ceiling, whose screen every later probe
// of the victim stays under, so the first build covers them all.
func TestHCFirstBatchBuildsEachLadderOnce(t *testing.T) {
	h := newTestHarness(t)
	victims := spreadVictims(h.Device().Geometry().Rows, 20)
	flipped := 0
	for _, p := range Table1() {
		_, found, _, err := h.HCFirstBatch(batchBank(), victims, p, DefaultHammers)
		if err != nil {
			t.Fatal(err)
		}
		flipped += countTrue(found)
	}
	if flipped == 0 {
		t.Fatal("no search found a flip: the probes never sensed below their ceiling")
	}
	n := int64(len(victims))
	if c := h.Device().ModelCounters(); c.ProfileComputes != n || c.LadderBuilds != n || c.LadderRebuilds != 0 {
		t.Fatalf("%d victims under four patterns: %+v, want %d profiles, %d ladders and no rebuild", n, c, n, n)
	}
}

// TestHintedSearchProbeCounts pins what the predicted-leaf search costs
// on the shape of the sweep-paper benchmark: the paper chip, 8 rows per
// region in bank 0 of every channel, every Table 1 pattern through
// HCFirstBatch at the default budget and precision. The plain bisection
// ran 8,777 probes there, one ceiling probe per search plus 11 halving
// rounds per flipping one. Now a flipping search checks the ends of its
// predicted leaf, and a halving round runs only where a prediction
// missed.
func TestHintedSearchProbeCounts(t *testing.T) {
	h, err := NewHarnessFromConfig(config.PaperChip())
	if err != nil {
		t.Fatal(err)
	}
	g := h.Device().Geometry()
	var victims []int
	for _, r := range Regions(g.Rows) {
		for _, v := range r.SampleRows(8) {
			if v > 0 && v < g.Rows-1 {
				victims = append(victims, v)
			}
		}
	}
	for ch := range g.Channels {
		for _, p := range Table1() {
			if _, _, _, err := h.HCFirstBatch(addr.BankAddr{Channel: ch}, victims, p, DefaultHammers); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := h.probes
	t.Logf("probes %+v", c)
	if c.live > 2600 {
		t.Errorf("%d live probes, want at most 2600 (the plain bisection ran 8777)", c.live)
	}
	if c.searches == 0 || 20*c.fallback >= c.searches {
		t.Errorf("%d halving-round probes over %d flipping searches, want under 5%%", c.fallback, c.searches)
	}
	if c.live != c.ceiling+c.hint+c.fallback {
		t.Errorf("live probes %d != ceiling %d + hint %d + fallback %d", c.live, c.ceiling, c.hint, c.fallback)
	}
}

// TestFirstFlipBurstMatchesProbes pins the device's prediction to the
// probe the searches run: across channels, patterns, RowPress holds, an
// ECC-on channel and a hot chip, the predicted count flips the victim's
// read-out and one hammer fewer does not. The searches stay exact
// whatever the prediction says; this pins that it says what the probe
// shows, which is what makes them cheap.
func TestFirstFlipBurstMatchesProbes(t *testing.T) {
	cfg := config.SmallChip()
	tras := cfg.Timing.TRAS
	checked := 0
	for _, c := range []struct {
		ch    int
		hold  int64
		ecc   bool
		tempC float64
	}{
		{7, tras, false, 85}, {2, tras, true, 85}, {4, 4 * tras, false, 85}, {1, 16 * tras, false, 85}, {5, tras, false, 95},
	} {
		h, err := NewHarnessFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.ecc {
			enableECC(t, h, c.ch)
		}
		h.Device().SetTemperature(c.tempC)
		ba := addr.BankAddr{Channel: c.ch}
		for _, v := range spreadVictims(cfg.Geometry.Rows, 12) {
			for _, p := range Table1() {
				top, err := seqBER(h, ba, v, p, DefaultHammers, c.hold)
				if err != nil {
					t.Fatal(err)
				}
				n, ok := h.Device().FirstFlipBurst(ba, v, p.Victim, p.Aggressor, c.hold, DefaultHammers)
				if !ok {
					if top.Flips > 0 {
						t.Errorf("ch%d row %d %s hold %d: no prediction, but the ceiling flips", c.ch, v, p.Name, c.hold)
					}
					continue
				}
				at, err := seqBER(h, ba, v, p, n, c.hold)
				if err != nil {
					t.Fatal(err)
				}
				below := BERResult{}
				if n > 1 {
					if below, err = seqBER(h, ba, v, p, n-1, c.hold); err != nil {
						t.Fatal(err)
					}
				}
				if at.Flips == 0 || below.Flips != 0 {
					t.Errorf("ch%d row %d %s hold %d: predicted %d, %d flips there and %d one below",
						c.ch, v, p.Name, c.hold, n, at.Flips, below.Flips)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("%d predictions checked; the cases should flip most of their 240 searches", checked)
	}
}
