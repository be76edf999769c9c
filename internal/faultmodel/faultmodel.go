// Package faultmodel computes per-cell physical properties of the
// simulated HBM2 chip: RowHammer disturbance thresholds, data-retention
// times, and cell orientation (true vs anti cells).
//
// Every quantity is a deterministic function of (seed, coordinates), so the
// full 4 GiB device needs no materialized state. The model composes, per
// cell:
//
//	threshold = channelMedian                      (die/channel process corner)
//	          x exp(channelSigma * Z_cell)         (cell-to-cell lognormal)
//	          x positionFactor(row in subarray)    (distance to sense amps)
//	          x lastSubarrayFactor                 (weak final subarray)
//	          x rowJitter x bankJitter             (local process variation)
//
// with Z_cell truncated from below and the product clamped to an absolute
// floor. Data-dependent factors (neighbour coupling, intra-row pattern) are
// applied by the device at sense time, because they depend on stored data.
//
// Row profiles carry no per-bit state until a sense needs it. Orientation
// (IsTrue) and the exact threshold (Threshold) are hashed on demand; the
// lazily-built aggregates are a threshold ladder (the row's weakest bits
// with their exact thresholds, in threshold order) and memoized retention
// times with word/row minima. Both let the device's sense fast path skip
// work without changing a single output bit (see internal/hbm/sense.go
// and DESIGN.md §8).
package faultmodel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// Hash domain separators so draws for different per-cell quantities are
// independent even at equal coordinates.
const (
	domThreshold uint64 = 0x7468726573686F6C // "threshol"
	domOrient    uint64 = 0x6F7269656E740000 // "orient"
	domRowJit    uint64 = 0x726F776A69740000 // "rowjit"
	domBankJit   uint64 = 0x62616E6B6A697400 // "bankjit"
	domRetention uint64 = 0x726574656E740000 // "retent"
)

// DefaultCacheBytes is the approximate memory budget of a model's profile
// cache. The entry capacity is derived from it so that small-geometry test
// chips cache thousands of rows while the paper-geometry chip (whose
// profiles are ~64x larger) stays within the same footprint.
const DefaultCacheBytes = 256 << 20

// Model evaluates the fault model for one chip instance. It belongs to
// the hbm.Device that built it and, like that device, is not safe for
// concurrent use: the engine's device pool leases each device to one
// worker at a time, so the profile cache and the lazily-built tiers need
// no synchronization.
type Model struct {
	cfg    *config.Config
	layout *addr.SubarrayLayout

	cache    *profileCache
	counters Counters
	// rungScratch collects a ladder build's rungs before they are copied
	// into the ladder's exact-size slice.
	rungScratch []Rung
}

// Counters reports the work a model has done since it was built, so the
// cost of a study's profile and ladder recomputes shows without a
// profiler.
type Counters struct {
	// ProfileComputes counts full profile computations (cache misses).
	ProfileComputes int64
	// LadderBuilds counts first builds of a profile's threshold ladder,
	// and LadderRebuilds the rebuilds that widen one to a larger cover.
	LadderBuilds, LadderRebuilds int64
}

type cacheKey struct {
	bank addr.BankAddr
	row  int
}

// RowProfile holds the per-row state of one physical row: the hash bases
// and scale from which every per-bit property is derived, plus the
// lazily-built aggregates. Slices are shared with the model's cache:
// callers must treat them as read-only. Orientation and exact thresholds
// are hashed per bit on demand (IsTrue, Model.Threshold); the aggregates
// — the threshold ladder (Model.Ladder) and retention times
// (Model.Retention) — are built on first need, so a row only ever sensed
// without meaningful disturbance never pays for its ladder, and a row
// always sensed inside the refresh window never pays for its retention
// times.
type RowProfile struct {
	// rungs is the threshold ladder: every bit whose float32 threshold is
	// at most cover, with that threshold, sorted by (Thr, Bit). cover is
	// -Inf until the first Ladder call that needs it builds the ladder.
	rungs []Rung
	cover float32

	ret *retProfile // nil until the first Retention call

	// key records the row coordinates for the lazy builds.
	key cacheKey

	// thrBase seeds bit i's threshold hash Mix64(thrBase+i); scale and
	// sigma are the row's lognormal threshold multiplier and spread.
	thrBase      uint64
	scale, sigma float64
	// orientBase seeds bit i's orientation hash h = Mix64(orientBase+i);
	// the bit is a true cell when h>>11 < trueCut (see IsTrue).
	orientBase, trueCut uint64
}

// Rung is one bit of a threshold ladder: its index in the row and its
// exact threshold, Model.Threshold of that bit.
type Rung struct {
	Thr float32
	Bit int32
}

// retProfile holds the lazily-built retention aggregates of one row,
// immutable once built.
type retProfile struct {
	// Sec[i] is bit i's retention time at the reference temperature, equal
	// to Model.RetentionSec(bank, row, i) bit for bit.
	Sec []float64
	// WordMin[w] is the minimum Sec within 64-bit word w: when the elapsed
	// time cannot reach a word's weakest cell, the whole word is skipped.
	WordMin []float64
	// MinSec and MinBit are the row's weakest cell: the first bit holding
	// the minimum retention time.
	MinSec float64
	MinBit int
}

// IsTrue reports whether bit i is a true cell: rng.Bool(h, TrueCellFrac)
// for its orientation hash h, as one integer compare. Bool tests
// float64(h>>11)/2^53 < frac, both sides exact, which for the integer
// h>>11 is h>>11 < ceil(frac*2^53).
func (p *RowProfile) IsTrue(i int) bool {
	return rng.Mix64(p.orientBase+uint64(i))>>11 < p.trueCut
}

// New builds a fault model for the given validated configuration.
func New(cfg *config.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("faultmodel: %w", err)
	}
	m := &Model{
		cfg:    cfg,
		layout: cfg.Layout(),
	}
	m.cache = newProfileCache(defaultCacheEntries(cfg))
	return m, nil
}

// defaultCacheEntries derives the profile-cache entry capacity from the
// byte budget and the most a cached row profile can hold, so
// DefaultCacheBytes bounds the cache whatever its rows are asked: per
// bit, a rung of a ladder that admits every bit (8 B) and a float64
// retention time; per 64-bit word, a float64 retention minimum; and a
// fixed allowance for the structs and cache bookkeeping. A ladder
// usually holds a few hundred rungs, far below its worst case.
func defaultCacheEntries(cfg *config.Config) int {
	bits := cfg.Geometry.RowBits()
	words := (bits + 63) / 64
	perEntry := bits*(8+8) + words*8 + 256
	n := DefaultCacheBytes / perEntry
	if n < 64 {
		n = 64
	}
	return n
}

// Layout exposes the subarray layout the model was built with.
func (m *Model) Layout() *addr.SubarrayLayout { return m.layout }

// PositionFactor returns the threshold multiplier for a physical row due
// to its position within its subarray and the last-subarray effect. Edge
// rows (near the sense amplifiers) get the highest thresholds and centre
// rows the lowest, so BER peaks mid-subarray, reproducing Fig. 5's
// periodic pattern. The bank's final subarray is additionally hardened by
// LastSubarrayFactor: it exhibits far fewer bitflips in the paper, and
// fewer bitflips means higher thresholds.
func (m *Model) PositionFactor(physRow int) float64 {
	sa, off := m.layout.Locate(physRow)
	size := m.layout.Size(sa)
	f := m.cfg.Fault
	factor := f.MidFactor
	if size > 1 {
		t := float64(off) / float64(size-1) // 0 at first row, 1 at last
		// Cosine bump: EdgeFactor at t=0 and t=1, MidFactor at t=0.5.
		factor = f.MidFactor + (f.EdgeFactor-f.MidFactor)*(math.Cos(2*math.Pi*t)+1)/2
	}
	if sa == m.layout.Count()-1 {
		factor *= f.LastSubarrayFactor
	}
	return factor
}

// rowScale returns the row-level multiplier: position x row jitter x bank
// jitter.
func (m *Model) rowScale(b addr.BankAddr, physRow int) float64 {
	f := m.cfg.Fault
	seed := m.cfg.Seed
	rj := math.Exp(f.RowJitterSigma * rng.Normal(rng.Combine(
		seed, domRowJit, uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow))))
	bj := math.Exp(f.BankJitterSigma * rng.Normal(rng.Combine(
		seed, domBankJit, uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank))))
	return m.PositionFactor(physRow) * rj * bj
}

// Profile returns the cached per-bit profile of a physical row, computing
// it on a miss. The returned profile is shared with the cache: treat it as
// read-only.
func (m *Model) Profile(b addr.BankAddr, physRow int) *RowProfile {
	key := cacheKey{bank: b, row: physRow}
	if p := m.cache.get(key); p != nil {
		return p
	}
	p := m.computeProfile(b, physRow)
	m.cache.put(key, p)
	return p
}

// computeProfile derives a row's hash bases and threshold scale; it does
// no per-bit work.
func (m *Model) computeProfile(b addr.BankAddr, physRow int) *RowProfile {
	m.counters.ProfileComputes++
	ch := m.cfg.Fault.Channels[b.Channel]
	coords := func(dom uint64) uint64 {
		return rng.Combine(m.cfg.Seed, dom,
			uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow))
	}
	return &RowProfile{
		cover:      float32(math.Inf(-1)),
		key:        cacheKey{bank: b, row: physRow},
		thrBase:    coords(domThreshold),
		scale:      ch.MedianHC * m.rowScale(b, physRow),
		sigma:      ch.Sigma,
		orientBase: coords(domOrient),
		trueCut:    uint64(math.Ceil(ch.TrueCellFrac * (1 << 53))),
	}
}

// Threshold returns the intrinsic disturbance threshold of bit i of a
// row, in double-sided hammer units: the exact value every flip is
// decided against. It is derived from the bit's hash on each call; the
// ladder caches it only for the row's weakest bits.
func (m *Model) Threshold(p *RowProfile, i int) float32 {
	return m.threshold(p, rng.Mix64(p.thrBase+uint64(i)))
}

// threshold derives a bit's threshold from its hash Mix64(thrBase+i).
func (m *Model) threshold(p *RowProfile, h uint64) float32 {
	f := &m.cfg.Fault
	z := rng.Normal(h)
	if z < f.ZFloor {
		z = f.ZFloor
	}
	thr := p.scale * math.Exp(p.sigma*z)
	if thr < f.HCFloor {
		thr = f.HCFloor
	}
	return float32(thr)
}

// ladderGrowth is the factor by which a rebuilt ladder's cover at least
// grows, so a row sensed at slowly rising disturbance rebuilds its
// ladder a logarithmic number of times.
const ladderGrowth = 2

// Ladder returns the prefix of the row's threshold ladder whose
// thresholds are at most screen: exactly the bits i with float32
// Threshold(p, i) <= screen, with those thresholds, sorted by (Thr, Bit).
// A NaN screen, or one below float32(HCFloor), admits no bit and builds
// nothing. The ladder is built on the first call that needs it, to cover
// that call's screen; a later screen above the cover rebuilds it to at
// least ladderGrowth times the old cover. The result is shared with the
// profile and valid until the next Ladder call on it.
func (m *Model) Ladder(p *RowProfile, screen float32) []Rung {
	if !(screen >= float32(m.cfg.Fault.HCFloor)) {
		return nil // also rejects NaN
	}
	if screen > p.cover {
		m.buildLadder(p, screen)
	}
	n, _ := slices.BinarySearchFunc(p.rungs, screen, func(r Rung, s float32) int {
		if r.Thr <= s {
			return -1
		}
		return 1
	})
	return p.rungs[:n]
}

// buildLadder (re)builds p's ladder to cover screen, in one hash pass:
// Cut at the cover screens out every bit whose key shows its threshold
// exceeds the cover, and only the bits that pass pay for their exact
// threshold. The rungs are collected in the model's scratch and copied
// into one exact-size slice, the build's only allocation.
func (m *Model) buildLadder(p *RowProfile, screen float32) {
	cover := screen
	if math.IsInf(float64(p.cover), -1) {
		m.counters.LadderBuilds++
	} else {
		m.counters.LadderRebuilds++
		cover = max(screen, p.cover*ladderGrowth)
	}
	cut := m.Cut(p, cover)
	rungs := m.rungScratch[:0]
	bits := m.cfg.Geometry.RowBits()
	for i := 0; i < bits; i++ {
		h := rng.Mix64(p.thrBase + uint64(i))
		if int(h>>48) > cut {
			continue
		}
		if thr := m.threshold(p, h); thr <= cover {
			rungs = append(rungs, Rung{Thr: thr, Bit: int32(i)})
		}
	}
	m.rungScratch = rungs
	slices.SortFunc(rungs, func(a, b Rung) int {
		return cmp.Or(cmp.Compare(a.Thr, b.Thr), cmp.Compare(a.Bit, b.Bit))
	})
	p.rungs, p.cover = nil, cover
	if len(rungs) > 0 {
		p.rungs = slices.Clone(rungs)
	}
}

// Margins of Cut. A bit of the row passes a screen s when float32(thr) <=
// s, where thr = max(HCFloor, scale*Exp(sigma*max(ZFloor, normInv(u))))
// and u = (h>>11)/2^53 for the bit's hash h, whose top 16 bits are its key
// floor(u*2^16). Each step is monotone non-decreasing except normInv, so
// Cut inverts the chain and widens it by one margin per step that can
// round against it:
//
//   - cutRel inflates s relatively. Rounding thr to float32 moves it by at
//     most 2^-24 relative; the product with scale, Exp's ulp error and
//     the product sigma*z (|z| <= 7.04, the normInv range under the u
//     clamp) add a few 2^-53; t = s*(1+cutRel) and t/scale round once
//     each. 2^-22 covers their sum with room to spare.
//   - cutZ widens z = Log(t/scale)/sigma absolutely. Acklam's normInv is
//     within 1.15e-9 relative of the true inverse, 7.04*1.15e-9 = 8.1e-9
//     absolute at |z| <= 7.04, plus its own float64 evaluation error and
//     the ulps of Log and the division, each below 1e-14.
//   - cutU inflates u = Erfc(-z/sqrt2)/2 relatively for Erfc's ulps and
//     the rounding of its argument: (z^2+2)*2^-52, below 1.2e-14 at
//     |z| <= 7.04, is far inside 2^-40.
//
// The clamps are monotone and only raise a threshold: a screen below
// float32(HCFloor) admits no bit, and a bound below ZFloor admits none
// either; otherwise a passing bit has max(ZFloor, z) <= bound, so z itself
// is. A bit clamped from above (u > 1-1e-12) is admitted by returning the
// largest key once the bound reaches the clamp. TestThresholdCutConservative
// pins the margins: without them, 845 bits of its 4.19 M-bit sample carry
// keys above their own threshold's cut.
const (
	cutRel = 1.0 / (1 << 22)
	cutZ   = 1e-8
	cutU   = 1.0 / (1 << 40)
)

// Cut returns the largest key that a bit of the row can carry when its
// float32 threshold is at most screen, or -1 when no bit of the row can
// have a threshold that low. A bit's key is the top 16 bits of its
// threshold hash, Mix64(thrBase+i)>>48. It costs one Log and one Erfc.
// The cut is conservative — a bit whose key exceeds it cannot pass the
// screen — but not exact: a bit whose key passes must still be checked
// against its exact Threshold, as the ladder build does.
func (m *Model) Cut(p *RowProfile, screen float32) int {
	f := &m.cfg.Fault
	if !(screen >= float32(f.HCFloor)) {
		return -1 // also rejects NaN
	}
	t := float64(screen) * (1 + cutRel)
	z := math.Log(t/p.scale)/p.sigma + cutZ
	if z < f.ZFloor {
		return -1
	}
	u := math.Erfc(-z/math.Sqrt2) / 2 * (1 + cutU)
	if u >= 1-1e-12 {
		return math.MaxUint16
	}
	return int(u * (1 << 16))
}

// retention returns the lazily-built retention aggregates of a profile,
// computing them on first use. The build costs one per-bit pass of the
// exact RetentionSec math; it is only paid for rows whose sense actually
// clears the retention floor gate (or via RowMinRetention).
func (m *Model) retention(p *RowProfile) *retProfile {
	if p.ret == nil {
		bits := m.cfg.Geometry.RowBits()
		b, physRow := p.key.bank, p.key.row
		r := m.cfg.Ret
		rp := &retProfile{
			Sec:     make([]float64, bits),
			WordMin: make([]float64, (bits+63)/64),
			MinSec:  math.Inf(1),
		}
		for w := range rp.WordMin {
			rp.WordMin[w] = math.Inf(1)
		}
		// Prefix-fold the coordinate hash: Combine is a left fold, so
		// Mix64(prefix ^ bit) equals Combine(..., bit) exactly.
		prefix := rng.Combine(m.cfg.Seed, domRetention,
			uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow))
		logMedian := math.Log(r.MedianSec)
		for i := 0; i < bits; i++ {
			t := math.Exp(logMedian + r.Sigma*rng.Normal(rng.Mix64(prefix^uint64(i))))
			if t < r.FloorSec {
				t = r.FloorSec
			}
			rp.Sec[i] = t
			if w := i >> 6; t < rp.WordMin[w] {
				rp.WordMin[w] = t
			}
			if t < rp.MinSec {
				rp.MinSec, rp.MinBit = t, i
			}
		}
		p.ret = rp
	}
	return p.ret
}

// Retention exposes a profile's retention aggregates: the per-bit
// retention times at the reference temperature and their per-word and
// per-row minima, so a retention scan can gate on the row minimum and
// skip whole words. Building them on first use is the expensive step; see
// retention.
func (m *Model) Retention(p *RowProfile) (sec, wordMin []float64, minSec float64) {
	rp := m.retention(p)
	return rp.Sec, rp.WordMin, rp.MinSec
}

// RetentionSec returns the retention time of one cell at the reference
// temperature (85 C), in seconds. The device scales it by the Arrhenius
// factor for the current ambient temperature.
func (m *Model) RetentionSec(b addr.BankAddr, physRow, bit int) float64 {
	r := m.cfg.Ret
	h := rng.Combine(m.cfg.Seed, domRetention,
		uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow), uint64(bit))
	t := rng.LogNormal(h, math.Log(r.MedianSec), r.Sigma)
	if t < r.FloorSec {
		t = r.FloorSec
	}
	return t
}

// RowMinRetention returns the smallest retention time in a physical row
// and the bit holding it. The U-TRR methodology profiles exactly this: the
// row's weakest cell determines when retention errors appear.
func (m *Model) RowMinRetention(b addr.BankAddr, physRow int) (sec float64, bit int) {
	rp := m.retention(m.Profile(b, physRow))
	return rp.MinSec, rp.MinBit
}

// Counters reports the model's profile and ladder work so far.
func (m *Model) Counters() Counters { return m.counters }

// Charged reports whether a cell holding the given bit value stores
// charge. True cells are charged when storing 1, anti cells when storing
// 0. Only charged cells can lose charge, so only they can flip — this is
// what makes RowHammer data-pattern dependent.
func Charged(isTrue, bitSet bool) bool { return isTrue == bitSet }

// CouplingFactor returns the threshold multiplier given how many of the
// two adjacent physical rows store the opposite value in the victim bit's
// column. More opposite-data aggressors couple more strongly (lower
// effective threshold multiplier).
func (m *Model) CouplingFactor(opposite int) float64 {
	f := m.cfg.Fault
	switch opposite {
	case 2:
		return f.CouplingBoth
	case 1:
		return f.CouplingOne
	default:
		return f.CouplingNone
	}
}

// IntraRowFactor returns the threshold multiplier due to the victim's
// same-row neighbours: alternating data (checkered patterns) protects
// slightly compared to uniform data (stripe patterns).
func (m *Model) IntraRowFactor(alternating bool) float64 {
	if alternating {
		return m.cfg.Fault.IntraRowAlternating
	}
	return 1
}

// DistanceWeight returns the disturbance contributed to a victim by one
// activation of an aggressor at the given physical row distance, or 0
// beyond the blast radius.
func (m *Model) DistanceWeight(distance int) float64 {
	if distance <= 0 || distance > len(m.cfg.Fault.DistanceWeights) {
		return 0
	}
	return m.cfg.Fault.DistanceWeights[distance-1]
}

// BlastRadius returns the maximum distance with nonzero disturbance.
func (m *Model) BlastRadius() int { return len(m.cfg.Fault.DistanceWeights) }

// CacheLen reports the number of cached row profiles (for tests and
// ablation benchmarks).
func (m *Model) CacheLen() int { return m.cache.len() }

// SetCacheCap overrides the profile cache capacity in entries, dropping
// all cached profiles. A capacity of one disables caching benefits (every
// insert immediately evicts the previous entry); used by the ablation
// benchmarks. The default capacity is derived from DefaultCacheBytes.
func (m *Model) SetCacheCap(n int) { m.cache.setCap(n) }
