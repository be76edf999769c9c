package core

import (
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
)

// FuzzHCFirstDefinition checks the HCfirst search against the paper's
// definition rather than against a second implementation: HCfirst is
// the smallest hammer count that flips a bit of the victim. Every search
// in the package — the bisection, its predicted-leaf check, WCDPBatch's
// pruning — is exact only because flips are monotone in the hammer
// count, and the equivalence fuzzers compare implementations that share
// the fault model, so a model that is not monotone could pass them all.
// Over fuzzed chip seeds, channels, rows, patterns, on-die ECC, RowPress
// holds and temperature setpoints, the search at HCPrecision 1 must
// return a count that flips the victim while one hammer fewer does not
// (or, when it finds none, the ceiling must not flip it), and the bits a
// probe flips must only grow with the hammer count: every bit flipped at
// k is flipped at k' >= k, with k drawn from the counts that flip the
// victim when it has an HCfirst. Both read the victim's read-outs, bit
// by bit, from probes run as their own DRAM Bender programs (seqProbe).
func FuzzHCFirstDefinition(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint16(300), uint8(0), false, uint8(0), uint8(30), uint32(40_000), uint32(90_000))
	f.Add(uint64(2), uint8(3), uint16(1), uint8(1), true, uint8(0), uint8(50), uint32(120_000), uint32(1))
	f.Add(uint64(3), uint8(6), uint16(65535), uint8(2), false, uint8(15), uint8(0), uint32(3_000), uint32(20_000))
	f.Add(uint64(4), uint8(0), uint16(4242), uint8(3), true, uint8(3), uint8(40), uint32(200_000), uint32(62_144))
	f.Add(uint64(5), uint8(5), uint16(777), uint8(1), false, uint8(7), uint8(10), uint32(1), uint32(262_143))
	f.Fuzz(func(t *testing.T, seed uint64, ch uint8, rawRow uint16, pi uint8, ecc bool, rawHold, rawTemp uint8, rawK, rawStep uint32) {
		cfg := config.SmallChip()
		cfg.Seed = seed
		h, err := NewHarnessFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.Geometry
		ba := addr.BankAddr{Channel: int(ch) % g.Channels}
		row := 1 + int(rawRow)%(g.Rows-2)
		p := Table1()[int(pi)%len(Table1())]
		if ecc {
			enableECC(t, h, ba.Channel)
		}
		hold := cfg.Timing.TRAS * int64(1+rawHold%16)
		// The temperature study's setpoints span 55-95 C; the fuzz
		// reaches from 45 C to 95 C.
		h.Device().SetTemperature(45 + float64(rawTemp%51))
		h.HCPrecision = 1

		flips := func(k int) []byte {
			t.Helper()
			reads, _, err := seqProbe(h, ba, row, p, k, hold)
			if err != nil {
				t.Fatal(err)
			}
			return flippedBits(reads, p.Victim)
		}
		hcs, found, _, err := h.HCFirstBatchHold(ba, []int{row}, p, DefaultHammers, hold)
		if err != nil {
			t.Fatal(err)
		}
		if hc := hcs[0]; found[0] {
			if !anySet(flips(hc)) {
				t.Fatalf("HCfirst %d does not flip row %d", hc, row)
			}
			if hc > 1 && anySet(flips(hc-1)) {
				t.Fatalf("row %d flips at %d, one hammer below its HCfirst %d", row, hc-1, hc)
			}
		} else if anySet(flips(DefaultHammers)) {
			t.Fatalf("the search found no HCfirst, but row %d flips at the ceiling %d", row, DefaultHammers)
		}

		k := 1 + int(rawK%DefaultHammers)
		if found[0] {
			k = hcs[0] + int(rawK)%(DefaultHammers-hcs[0]+1)
		}
		k2 := k + int(rawStep)%(DefaultHammers-k+1)
		lo, hi := flips(k), flips(k2)
		for i := range lo {
			if lo[i]&^hi[i] != 0 {
				t.Fatalf("row %d byte %d: bits %08b flip at %d hammers but not at %d", row, i, lo[i]&^hi[i], k, k2)
			}
		}
	})
}

// anySet reports whether any bit of b is set.
func anySet(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return true
		}
	}
	return false
}
