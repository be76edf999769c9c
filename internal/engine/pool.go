package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
)

// DevicePool caches warmed simulated devices (wrapped in characterization
// harnesses) keyed by the full configuration contents, so repeated engine
// runs over the same chip design + seed reuse devices instead of paying
// chip instantiation and ECC-disable setup per run. The pool is
// shared-nothing at the worker level: Get hands out exclusive ownership,
// Put returns it; a harness is never used by two workers at once.
//
// One mutex guards the idle sets, and the traffic counters are atomics
// so Stats() never serializes Get/Put. The engine leases one harness per
// worker for the whole run (per-worker affinity), so the lock is taken
// O(workers) times per run, not O(jobs).
//
// Reuse is sound because every per-cell quantity of the simulated chip is
// a pure function of (Seed, coordinates) and the Section 4 measurements
// rewrite their victim and aggressor rows before hammering. Studies whose
// outcome depends on accumulated device state (thermal setpoints, nominal
// refresh cadence, retention decay) must not use the pool.
type DevicePool struct {
	mu   sync.Mutex
	idle map[uint64]*idleSet

	created    atomic.Int64
	reused     atomic.Int64
	dropped    atomic.Int64
	collisions atomic.Int64

	// maxIdle is the GOMAXPROCS snapshot taken at construction, used
	// when MaxIdlePerKey is 0. Snapshotting once per pool keeps the cap
	// consistent even if GOMAXPROCS changes mid-run (benchmarks with
	// -cpu do exactly that).
	maxIdle int

	// MaxIdlePerKey caps how many warmed devices are kept per
	// configuration; surplus Puts are dropped for the GC. 0 means the
	// GOMAXPROCS value observed when the pool was constructed.
	//
	// Contract: set it before the pool is shared across goroutines
	// (typically right after NewDevicePool); it is read without
	// synchronization on every Put.
	MaxIdlePerKey int
}

// idleSet holds one configuration's warmed devices plus a deep snapshot
// of that configuration. The snapshot guards the 64-bit key: on the
// astronomically rare hash collision (or a caller mutating a config's
// slices after Put), Get must build fresh rather than silently lease a
// device instantiated for different parameters — this repo's whole point
// is measurement fidelity.
type idleSet struct {
	cfg       config.Config // deep snapshot: slices cloned
	harnesses []*core.Harness
}

// PoolStats counts pool traffic; Reused/Created is the warm-hit ratio.
type PoolStats struct {
	// Created counts harnesses built because no idle one matched.
	Created int
	// Reused counts Gets served from the idle set.
	Reused int
	// Dropped counts Puts discarded over MaxIdlePerKey.
	Dropped int
	// Collisions counts operations that hit an idle set whose snapshot
	// did not match the config contents (64-bit key collision); they are
	// served/dropped as misses instead of aliasing devices.
	Collisions int
}

// SharedPool is the process-wide pool every engine run uses by default.
var SharedPool = NewDevicePool()

// NewDevicePool returns an empty pool. The MaxIdlePerKey default is
// pinned to GOMAXPROCS as observed here, not re-read later.
func NewDevicePool() *DevicePool {
	return &DevicePool{idle: make(map[uint64]*idleSet), maxIdle: runtime.GOMAXPROCS(0)}
}

// snapshot deep-copies a config (cloning its slices) so the idle set's
// guard cannot alias backing arrays the caller might mutate.
func snapshot(cfg *config.Config) config.Config {
	c := *cfg
	c.SubarraySizes = append([]int(nil), cfg.SubarraySizes...)
	c.Fault.Channels = append([]config.ChannelProfile(nil), cfg.Fault.Channels...)
	c.Fault.DistanceWeights = append([]float64(nil), cfg.Fault.DistanceWeights...)
	return c
}

// Get leases a warmed harness for cfg, building one only when the idle
// set is empty (or, vanishingly rarely, holds a hash-colliding config —
// verified by contents before any device is handed out). The caller owns
// it exclusively until Put. Configs are keyed by content (Config.Hash), so
// content-equal copies share warmed devices regardless of pointer identity.
func (p *DevicePool) Get(cfg *config.Config) (*core.Harness, error) {
	k := cfg.Hash()
	p.mu.Lock()
	if e := p.idle[k]; e != nil && len(e.harnesses) > 0 {
		if e.cfg.Equal(cfg) {
			h := e.harnesses[len(e.harnesses)-1]
			e.harnesses = e.harnesses[:len(e.harnesses)-1]
			p.mu.Unlock()
			p.reused.Add(1)
			return h, nil
		}
		p.collisions.Add(1)
	}
	p.mu.Unlock()
	p.created.Add(1)
	return core.NewHarnessFromConfig(cfg)
}

// Put returns a leased harness to the idle set, restoring its tunables to
// the NewHarness defaults so the next lease starts from a known state.
func (p *DevicePool) Put(cfg *config.Config, h *core.Harness) {
	if h == nil {
		return
	}
	h.Reset()
	k := cfg.Hash()
	max := p.MaxIdlePerKey
	if max <= 0 {
		max = p.maxIdle
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.idle[k]
	if e == nil {
		p.idle[k] = &idleSet{cfg: snapshot(cfg), harnesses: []*core.Harness{h}}
		return
	}
	if !e.cfg.Equal(cfg) {
		// Key collision with a different resident config: dropping the
		// device is always safe; aliasing it never is.
		p.collisions.Add(1)
		p.dropped.Add(1)
		return
	}
	if len(e.harnesses) >= max {
		p.dropped.Add(1)
		return
	}
	e.harnesses = append(e.harnesses, h)
}

// Stats returns a snapshot of the pool counters. It reads only atomics,
// so it never blocks (or is blocked by) Get/Put traffic.
func (p *DevicePool) Stats() PoolStats {
	return PoolStats{
		Created:    int(p.created.Load()),
		Reused:     int(p.reused.Load()),
		Dropped:    int(p.dropped.Load()),
		Collisions: int(p.collisions.Load()),
	}
}

// Drain empties the idle sets, releasing every cached device to the GC.
func (p *DevicePool) Drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = make(map[uint64]*idleSet)
}

// DrainConfig releases the idle devices warmed for one configuration.
// Fleet-style sweeps over many chip instances (one config per seed) must
// call this per instance, or every seed's devices stay resident for the
// process lifetime: keys are never evicted, only capped per key.
func (p *DevicePool) DrainConfig(cfg *config.Config) {
	k := cfg.Hash()
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.idle, k)
}

// idleLen reports how many warmed devices are resident for cfg; it is a
// test hook for asserting the MaxIdlePerKey bound.
func (p *DevicePool) idleLen(cfg *config.Config) int {
	k := cfg.Hash()
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.idle[k]; e != nil {
		return len(e.harnesses)
	}
	return 0
}
