package core

import (
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/bender"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/hbm"
)

// better reports whether a beats b as the worst-case pattern: the
// paper's rule applied to full search results.
func better(a, b WCDPResult) bool {
	if a.Found != b.Found {
		return a.Found
	}
	if !a.Found {
		return a.BER > b.BER
	}
	if a.HCFirst != b.HCFirst {
		return a.HCFirst < b.HCFirst
	}
	return a.BER > b.BER
}

// fullSearchWCDP is the WCDP oracle: the sequential HCfirst search and
// ceiling BER under every Table 1 pattern, the best under better kept in
// Table 1 order (so the earliest pattern wins a full tie, Rowstripe0
// when nothing flips).
func fullSearchWCDP(t testing.TB, h *Harness, ba addr.BankAddr, victims []int, maxHammers int) []WCDPResult {
	t.Helper()
	tras := h.Device().Config().Timing.TRAS
	out := make([]WCDPResult, len(victims))
	for pi, p := range Table1() {
		for j, v := range victims {
			hc, found, err := seqHCFirst(h, ba, v, p, maxHammers, tras)
			if err != nil {
				t.Fatal(err)
			}
			ber, err := seqBER(h, ba, v, p, maxHammers, tras)
			if err != nil {
				t.Fatal(err)
			}
			cand := WCDPResult{Pattern: p, HCFirst: hc, Found: found, BER: ber.BER()}
			if pi == 0 || better(cand, out[j]) {
				out[j] = cand
			}
		}
	}
	return out
}

// enableECC turns channel ch's on-die ECC back on, which NewHarness
// disabled: corrected single-bit errors then hide the first flips.
func enableECC(t testing.TB, h *Harness, ch int) {
	t.Helper()
	if _, err := h.Exec(func(b *bender.Builder) { b.MRS(ch, hbm.MRECC, hbm.MRECCEnable) }); err != nil {
		t.Fatal(err)
	}
}

// spreadVictims returns n victim rows spread evenly over a bank's
// interior.
func spreadVictims(rows, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1 + i*(rows-2)/n
	}
	return out
}

// TestWCDPBatchMatchesFullSearch pins WCDPBatch to the four full
// searches across seeds and channels (an ECC-on one among them), a
// ceiling that is not a power of two, precisions from 1 up to half the
// ceiling and beyond it (where patterns share a leaf and the BER
// tie-break decides), a ceiling too low for any flip, and more victims
// than one probe program carries.
func TestWCDPBatchMatchesFullSearch(t *testing.T) {
	cases := []struct {
		name       string
		seed       uint64
		ch         int
		ecc        bool
		victims    int
		maxHammers int
		prec       int
	}{
		{"ch7-default", 1, 7, false, 6, DefaultHammers, DefaultHCPrecision},
		{"ch0-odd-ceiling", 2, 0, false, 6, 200_001, DefaultHCPrecision},
		{"ch3-prec1", 3, 3, false, 5, 150_000, 1},
		{"ch5-half-ceiling", 4, 5, false, 8, 100_000, 50_000},
		{"ch6-over-ceiling", 5, 6, false, 4, 90_001, 90_001},
		{"ch6-one-leaf", 1, 6, false, 6, 200_000, 200_000},
		{"ch2-ecc", 6, 2, true, 6, DefaultHammers, DefaultHCPrecision},
		{"ch1-no-flip", 7, 1, false, 6, 3_000, DefaultHCPrecision},
		{"ch4-chunks", 8, 4, false, MaxProbeBatch + 7, 180_000, 1000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.SmallChip()
			cfg.Seed = c.seed
			h, err := NewHarnessFromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.ecc {
				enableECC(t, h, c.ch)
			}
			h.HCPrecision = c.prec
			ba := addr.BankAddr{Channel: c.ch}
			victims := spreadVictims(h.Device().Geometry().Rows, c.victims)
			got, err := h.WCDPBatch(ba, victims, c.maxHammers)
			if err != nil {
				t.Fatal(err)
			}
			want := fullSearchWCDP(t, h, ba, victims, c.maxHammers)
			found := 0
			for j, v := range victims {
				if got[j] != want[j] {
					t.Fatalf("row %d: WCDPBatch %+v, full search %+v", v, got[j], want[j])
				}
				if want[j].Found {
					found++
				}
			}
			if c.name == "ch1-no-flip" && found != 0 {
				t.Fatalf("%d rows flipped at %d hammers; the case needs rows that never flip", found, c.maxHammers)
			}
			if c.name != "ch1-no-flip" && found == 0 {
				t.Fatal("no row flipped: the case compares nothing but the no-flip rule")
			}
		})
	}
}

// TestWCDPIsOneRowBatch pins the single-row entry point to the batch.
func TestWCDPIsOneRowBatch(t *testing.T) {
	h := newTestHarness(t)
	ba := batchBank()
	for _, v := range []int{40, 500} {
		w, err := h.WCDP(ba, v, DefaultHammers)
		if err != nil {
			t.Fatal(err)
		}
		want := fullSearchWCDP(t, h, ba, []int{v}, DefaultHammers)[0]
		if w != want {
			t.Fatalf("row %d: WCDP %+v, full search %+v", v, w, want)
		}
	}
}

// FuzzWCDPEquivalence is the differential oracle of the pruned WCDP
// search: WCDPBatch on a normal (fast-sense) device must pick exactly
// what the four full HCfirst searches pick on a device pinned to the
// reference sense path, for fuzzed rows, channel, ECC, ceiling and
// precision. A pruning step that trusts a probe it should not shows up
// as a different pattern, HCfirst or BER. A fuzzed shift moves every
// predicted first flip the incumbent and winner bisections check
// (hintShift), so wrong predictions must leave the answers alone too.
func FuzzWCDPEquivalence(f *testing.F) {
	f.Add(uint8(7), false, []byte{10, 60, 200}, uint32(DefaultHammers), uint32(DefaultHCPrecision), int32(0))
	f.Add(uint8(0), false, []byte{1, 128, 255}, uint32(200_001), uint32(1), int32(0))
	f.Add(uint8(2), true, []byte{30, 90, 150}, uint32(DefaultHammers), uint32(128), int32(0))
	f.Add(uint8(5), false, []byte{7, 9, 11, 13, 40, 80, 160, 220}, uint32(100_000), uint32(50_000), int32(0))
	f.Add(uint8(1), false, []byte{100}, uint32(3_000), uint32(128), int32(0))
	f.Add(uint8(4), false, []byte{3, 250}, uint32(77_777), uint32(77_777), int32(0))
	f.Add(uint8(7), false, []byte{15, 115, 215}, uint32(DefaultHammers), uint32(DefaultHCPrecision), int32(DefaultHCPrecision))
	f.Add(uint8(6), true, []byte{25, 125, 225}, uint32(DefaultHammers), uint32(DefaultHCPrecision), int32(-40*DefaultHCPrecision))
	f.Add(uint8(3), false, []byte{45, 145, 245}, uint32(150_000), uint32(1), int32(-1))
	f.Add(uint8(5), false, []byte{55, 155}, uint32(180_000), uint32(1000), int32(DefaultHammers))
	f.Fuzz(func(t *testing.T, ch uint8, ecc bool, vraw []byte, rawHammers, rawPrec uint32, shift int32) {
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
		g := hFast.Device().Geometry()
		ba := addr.BankAddr{Channel: int(ch) % g.Channels}
		if ecc {
			enableECC(t, hFast, ba.Channel)
			enableECC(t, hRef, ba.Channel)
		}
		victims := make([]int, len(vraw))
		for i, b := range vraw {
			victims[i] = 1 + int(b)*(g.Rows-2)/256
		}
		maxHammers := 1 + int(rawHammers%DefaultHammers)
		hFast.HCPrecision = int(rawPrec % (DefaultHammers + 1))
		hRef.HCPrecision = hFast.HCPrecision
		hFast.hintShift = int(shift)
		got, err := hFast.WCDPBatch(ba, victims, maxHammers)
		if err != nil {
			t.Fatal(err)
		}
		want := fullSearchWCDP(t, hRef, ba, victims, maxHammers)
		for j, v := range victims {
			if got[j] != want[j] {
				t.Fatalf("row %d: WCDPBatch on fast %+v, full search on reference %+v", v, got[j], want[j])
			}
		}
	})
}
