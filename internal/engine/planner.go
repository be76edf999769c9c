package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Planner selects how a run's job indexes are assigned to workers. Every
// planner hands each index in [0, n) to exactly one worker exactly once.
// Because Reduce folds results in strict index order, the planner
// changes only the schedule — never the output: the same run is
// byte-identical under every planner at every worker count.
//
// Every planner also maintains the block invariant Reduce's backpressure
// relies on: at any moment each worker owns at most one contiguous
// remaining block, consumed from its low end (stealing transfers the
// *top* half of a victim's block to the thief as the thief's new block).
// The fold frontier — the lowest unfolded index — is therefore always
// the low end of whichever block contains it, so that block's owner pops
// exactly the frontier index next, which the backpressure window (>= 1)
// always admits: the ordered fold cannot deadlock. Note the invariant is
// per block, not per worker — a thief may run stolen indexes below ones
// it completed earlier, so code must not assume a worker sees globally
// ascending indexes.
type Planner int

const (
	// PlanQueue is the default: workers pull the next index from one
	// shared counter. It balances perfectly under heterogeneous job costs
	// and keeps every worker near the fold frontier, which is what gives
	// Reduce its full overlap; its only cost is zero assignment locality.
	PlanQueue Planner = iota
	// PlanContiguous splits [0, n) into one contiguous block per worker
	// up front — the in-process analogue of the static cross-process
	// shard partition (results.ShardRange). Maximal locality, but a
	// straggler block runs long and, under Reduce, workers on later
	// blocks park against the backpressure window until the fold frontier
	// reaches them.
	PlanContiguous
	// PlanWeighted is PlanContiguous with block boundaries balancing the
	// total of per-job cost estimates (Options.Weights) instead of the
	// job count. With nil weights it degenerates to PlanContiguous.
	PlanWeighted
	// PlanStealing starts from the contiguous split and lets a worker
	// that exhausts its block steal the upper half of the largest
	// remaining block — the classic in-process work-stealing queue, for
	// heterogeneous fleets where static splits misestimate job costs.
	PlanStealing
)

// String returns the canonical flag spelling of the planner.
func (p Planner) String() string {
	switch p {
	case PlanQueue:
		return "queue"
	case PlanContiguous:
		return "contiguous"
	case PlanWeighted:
		return "weighted"
	case PlanStealing:
		return "stealing"
	}
	return fmt.Sprintf("planner(%d)", int(p))
}

// Planners lists every planner in flag-spelling order.
func Planners() []Planner {
	return []Planner{PlanQueue, PlanContiguous, PlanWeighted, PlanStealing}
}

// ParsePlanner parses the flag spelling produced by Planner.String.
func ParsePlanner(s string) (Planner, error) {
	for _, p := range Planners() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown planner %q (want queue, contiguous, weighted or stealing)", s)
}

// assigner is a planner instantiated for one run: next(w) pops worker w's
// next job index, or ok=false when the run has no work left for it. next
// is called only by worker w for a given w, but different workers call
// concurrently, so shared state needs synchronization.
type assigner interface {
	next(worker int) (i int, ok bool)
}

// plan instantiates the planner for n jobs across the given workers.
// weights, when non-nil, must have length n (validated by Options).
func (p Planner) plan(n, workers int, weights []float64) assigner {
	switch p {
	case PlanContiguous:
		return newBlockAssigner(contiguousBounds(n, workers), false)
	case PlanWeighted:
		if weights == nil {
			return newBlockAssigner(contiguousBounds(n, workers), false)
		}
		return newBlockAssigner(weightedBounds(weights, workers), false)
	case PlanStealing:
		return newBlockAssigner(contiguousBounds(n, workers), true)
	default:
		return &queueAssigner{n: n}
	}
}

// queueAssigner hands out indexes from one shared counter.
type queueAssigner struct {
	next_ atomic.Int64
	n     int
}

func (q *queueAssigner) next(int) (int, bool) {
	i := int(q.next_.Add(1)) - 1
	return i, i < q.n
}

// contiguousBounds splits [0, n) into workers near-equal contiguous
// blocks (the ShardRange partition, so in-process contiguous runs mirror
// the cross-process shard split).
func contiguousBounds(n, workers int) [][2]int {
	out := make([][2]int, workers)
	for w := 0; w < workers; w++ {
		out[w] = [2]int{n * w / workers, n * (w + 1) / workers}
	}
	return out
}

// weightedBounds splits [0, n) into contiguous blocks of near-equal total
// weight: block w starts at the first job whose weight prefix sum reaches
// w/workers of the total. Non-positive weights count as the smallest
// positive weight seen (cost estimates, not exact costs).
func weightedBounds(weights []float64, workers int) [][2]int {
	n := len(weights)
	floor := 0.0
	for _, w := range weights {
		if w > 0 && (floor == 0 || w < floor) {
			floor = w
		}
	}
	if floor == 0 {
		floor = 1
	}
	total := 0.0
	prefix := make([]float64, n+1)
	for i, w := range weights {
		if w <= 0 {
			w = floor
		}
		total += w
		prefix[i+1] = total
	}
	bounds := make([][2]int, workers)
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo
		if w == workers-1 {
			hi = n
		} else {
			target := total * float64(w+1) / float64(workers)
			for hi < n && prefix[hi+1] < target {
				hi++
			}
			// Take the boundary job into the block whose target it
			// crosses, so every block is non-trivially sized when the
			// weights allow it.
			if hi < n && prefix[hi+1]-target <= target-prefix[hi] {
				hi++
			}
		}
		bounds[w] = [2]int{lo, hi}
		lo = hi
	}
	return bounds
}

// blockAssigner owns one contiguous remaining block per worker, consumed
// from the low end. With stealing enabled, a worker whose block is empty
// takes the upper half of the largest remaining block. Consuming from the
// low end and stealing from the high end preserves the one-block-per-
// worker invariant Reduce's backpressure relies on (see Planner): the
// block containing the fold frontier is popped at the frontier itself.
type blockAssigner struct {
	mu     sync.Mutex
	blocks [][2]int
	steal  bool
}

func newBlockAssigner(bounds [][2]int, steal bool) *blockAssigner {
	return &blockAssigner{blocks: bounds, steal: steal}
}

func (b *blockAssigner) next(worker int) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	blk := &b.blocks[worker]
	if blk[0] >= blk[1] && b.steal {
		// Steal the upper half of the largest remaining block. Ties go to
		// the lowest victim index, so the schedule is deterministic for a
		// given interleaving (the output never depends on it either way).
		victim, size := -1, 0
		for v := range b.blocks {
			if v == worker {
				continue
			}
			if s := b.blocks[v][1] - b.blocks[v][0]; s > size {
				victim, size = v, s
			}
		}
		if victim >= 0 && size > 1 {
			vb := &b.blocks[victim]
			mid := vb[0] + size/2
			blk[0], blk[1] = mid, vb[1]
			vb[1] = mid
		}
	}
	if blk[0] >= blk[1] {
		return 0, false
	}
	i := blk[0]
	blk[0]++
	return i, true
}
