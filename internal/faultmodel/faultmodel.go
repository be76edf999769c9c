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
// Row profiles additionally carry lazily-built aggregates — per-bit
// thresholds with their word and row minima, and memoized retention times
// with word/row minima — that let the device's sense fast path skip work
// without changing a single output bit (see internal/hbm/sense.go and
// DESIGN.md §8).
package faultmodel

import (
	"fmt"
	"math"

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

	cache *profileCache
	// computes counts full profile computations, for the cache tests and
	// cache-behaviour benchmarks.
	computes int64
}

type cacheKey struct {
	bank addr.BankAddr
	row  int
}

// RowProfile holds the precomputed per-bit properties of one physical row.
// Slices are shared with the model's cache: callers must treat them as
// read-only. The expensive per-bit aggregates — thresholds and retention
// times, each a full pass of inverse-CDF and exp work — are built lazily
// on first need (Model.Thresholds / Model.Retention): a row that is
// only ever sensed without meaningful disturbance never pays for its
// thresholds, and a row always sensed inside the refresh window
// never pays for its retention times.
type RowProfile struct {
	// TrueCell has bit i set when cell i is a true cell (charged at 1).
	TrueCell []uint64

	thr *thrProfile // nil until the first Thresholds call
	ret *retProfile // nil until the first Retention call

	// key records the row coordinates for the lazy builds.
	key cacheKey
}

// thrProfile holds the lazily-built disturbance-threshold aggregates of
// one row.
type thrProfile struct {
	// Thr[i] is the intrinsic disturbance threshold of bit i, in
	// double-sided hammer units.
	Thr []float32
	// WordMin[w] is the minimum Thr within 64-bit word w: a word whose
	// minimum exceeds the effective disturbance cannot flip, so the sense
	// scan skips it wholesale.
	WordMin []float32
	// Min is the row's smallest Thr: a disturbance below it cannot flip
	// any bit, so the sense scan skips the row.
	Min float32
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

// IsTrue reports whether bit i is a true cell.
func (p *RowProfile) IsTrue(i int) bool {
	return p.TrueCell[i/64]&(1<<(uint(i)%64)) != 0
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
// byte budget and the per-row profile footprint: per bit, a float32
// threshold and a float64 retention time; per 64-bit word, the orientation
// word, a float32 threshold minimum and a float64 retention minimum; and
// a fixed allowance for the structs and cache bookkeeping.
func defaultCacheEntries(cfg *config.Config) int {
	bits := cfg.Geometry.RowBits()
	words := (bits + 63) / 64
	perEntry := bits*(4+8) + words*(8+4+8) + 256
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

func (m *Model) computeProfile(b addr.BankAddr, physRow int) *RowProfile {
	m.computes++
	bits := m.cfg.Geometry.RowBits()
	words := (bits + 63) / 64
	prof := &RowProfile{
		TrueCell: make([]uint64, words),
		key:      cacheKey{bank: b, row: physRow},
	}
	ch := m.cfg.Fault.Channels[b.Channel]
	orientBase := rng.Combine(m.cfg.Seed, domOrient,
		uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow))
	trueFrac := ch.TrueCellFrac
	for i := 0; i < bits; i++ {
		if rng.Bool(rng.Mix64(orientBase+uint64(i)), trueFrac) {
			prof.TrueCell[i>>6] |= 1 << (uint(i) % 64)
		}
	}
	return prof
}

// thresholds returns the lazily-built threshold aggregates of a profile.
// The build — one per-bit pass of inverse-CDF and exp work that also folds
// the word and row minima — is only paid for rows that are ever sensed
// with enough accumulated disturbance to possibly flip; aggressor rows,
// whose disturbance is cleared by their own activations, never need it.
func (m *Model) thresholds(p *RowProfile) *thrProfile {
	if p.thr == nil {
		bits := m.cfg.Geometry.RowBits()
		words := (bits + 63) / 64
		b, physRow := p.key.bank, p.key.row
		tp := &thrProfile{
			Thr:     make([]float32, bits),
			WordMin: make([]float32, words),
			Min:     float32(math.Inf(1)),
		}
		for w := range tp.WordMin {
			tp.WordMin[w] = float32(math.Inf(1))
		}
		ch := m.cfg.Fault.Channels[b.Channel]
		f := m.cfg.Fault
		scale := ch.MedianHC * m.rowScale(b, physRow)
		base := rng.Combine(m.cfg.Seed, domThreshold,
			uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow))
		sigma, zFloor, hcFloor := ch.Sigma, f.ZFloor, f.HCFloor
		for i := 0; i < bits; i++ {
			z := rng.Normal(rng.Mix64(base + uint64(i)))
			if z < zFloor {
				z = zFloor
			}
			thr := scale * math.Exp(sigma*z)
			if thr < hcFloor {
				thr = hcFloor
			}
			t32 := float32(thr)
			tp.Thr[i] = t32
			if w := i >> 6; t32 < tp.WordMin[w] {
				tp.WordMin[w] = t32
			}
		}
		for _, wm := range tp.WordMin {
			if wm < tp.Min {
				tp.Min = wm
			}
		}
		p.thr = tp
	}
	return p.thr
}

// Thresholds exposes a profile's disturbance-threshold aggregates: the
// per-bit thresholds and their per-word and per-row minima, so a
// disturbance scan can gate on the row minimum and skip whole words.
// Building them on first use is the expensive step; see thresholds.
func (m *Model) Thresholds(p *RowProfile) (thr, wordMin []float32, minThr float32) {
	tp := m.thresholds(p)
	return tp.Thr, tp.WordMin, tp.Min
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

// ProfileComputes reports how many full profile computations the model has
// performed (for the cache tests and ablation benchmarks).
func (m *Model) ProfileComputes() int64 { return m.computes }

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
func (m *Model) BlastRadius() int { return m.cfg.Fault.BlastRadius() }

// CacheLen reports the number of cached row profiles (for tests and
// ablation benchmarks).
func (m *Model) CacheLen() int { return m.cache.len() }

// SetCacheCap overrides the profile cache capacity in entries, dropping
// all cached profiles. A capacity of one disables caching benefits (every
// insert immediately evicts the previous entry); used by the ablation
// benchmarks. The default capacity is derived from DefaultCacheBytes.
func (m *Model) SetCacheCap(n int) { m.cache.setCap(n) }
