package batching

import (
	"sync"

	"flashps/internal/perfmodel"
)

// Clock is the execution seam that makes the core clock-agnostic: the
// discrete-event harness (internal/cluster, internal/replay) passes
// *simclock.Clock, which satisfies it directly, while the live serving
// plane runs its Runner on *obs.WallClock. Times are seconds; the epoch is
// driver-defined.
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
	// At schedules fn at absolute time t. A virtual clock panics if t is
	// in the past; a wall clock runs fn as soon as it can.
	At(t float64, fn func())
	// After schedules fn delay seconds from now.
	After(delay float64, fn func())
}

// CoreConfig parameterizes the shared scheduling/batching core.
type CoreConfig struct {
	// Policy is the load-balancing policy for Place.
	Policy Policy
	// Discipline is the batching discipline gating Admit.
	Discipline Discipline
	// Estimator backs the mask-aware cost model (required for MaskAware).
	Estimator *perfmodel.Estimator
	// MaxBatch bounds a worker's running batch (≤0: estimator profile's
	// MaxBatch, or 1 without an estimator).
	MaxBatch int
	// Seed feeds the policy's tie-breaking randomness.
	Seed uint64
	// MaxQueue, when > 0, bounds a worker's outstanding requests: a
	// submission beyond it goes to ShedVictim.
	MaxQueue int
	// MaxRetries bounds how many times a request lost to a worker crash is
	// re-placed on another replica (≤ 0: never).
	MaxRetries int
	// RetryBackoff is the base, in clock seconds, of the capped
	// exponential backoff before each re-placement.
	RetryBackoff float64
	// Log, when non-nil, receives the decision sequence; nil allocates a
	// private log (still readable via Decisions).
	Log *DecisionLog
}

// Core is the shared decision engine: every placement, admission, and
// shedding choice in both the simulator and the live serving plane flows
// through one Core, which records the choice in its DecisionLog. Core is
// concurrency-safe; the simulator calls it from a single event goroutine,
// the serving plane from the frontend and every engine loop.
type Core struct {
	mu       sync.Mutex
	sched    *Scheduler
	disc     Discipline
	maxBatch int
	maxQueue int
	retries  int
	backoff  float64
	log      *DecisionLog
}

// NewCore builds a Core.
func NewCore(cfg CoreConfig) *Core {
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		if cfg.Estimator != nil {
			maxBatch = cfg.Estimator.Profile.MaxBatch
		} else {
			maxBatch = 1
		}
	}
	log := cfg.Log
	if log == nil {
		log = &DecisionLog{}
	}
	return &Core{
		sched:    New(cfg.Policy, cfg.Estimator, cfg.MaxBatch, cfg.Seed),
		disc:     cfg.Discipline,
		maxBatch: maxBatch,
		maxQueue: cfg.MaxQueue,
		retries:  cfg.MaxRetries,
		backoff:  cfg.RetryBackoff,
		log:      log,
	}
}

// Discipline returns the configured batching discipline.
func (c *Core) Discipline() Discipline { return c.disc }

// MaxBatch returns the per-worker running-batch bound.
func (c *Core) MaxBatch() int { return c.maxBatch }

// MaxQueue returns the per-worker bound on outstanding requests (0: none).
func (c *Core) MaxQueue() int { return c.maxQueue }

// Retry decides whether a request lost to a worker crash gets its
// attempt-th re-placement (1-based) and after what backoff: the base
// doubles per attempt, capped at 8× the base.
func (c *Core) Retry(attempt int) (backoff float64, ok bool) {
	if attempt > c.retries {
		return 0, false
	}
	backoff = c.backoff * float64(int(1)<<(attempt-1))
	if max := 8 * c.backoff; backoff > max {
		backoff = max
	}
	return backoff, true
}

// Log returns the decision log.
func (c *Core) Log() *DecisionLog { return c.log }

// Decisions returns a snapshot of the decision sequence so far.
func (c *Core) Decisions() []Decision { return c.log.Snapshot() }

// Place routes item across the candidate workers (Algorithm 2 or a
// baseline policy) and returns the chosen worker's ID. views and ids are
// parallel: views[i] snapshots worker ids[i]'s outstanding load, in a
// stable (admission) order. Panics on an empty candidate list.
func (c *Core) Place(views []WorkerView, ids []int, item Item) int {
	c.mu.Lock()
	pick := c.sched.Pick(views, item)
	c.mu.Unlock()
	id := ids[pick]
	c.log.append(Decision{Kind: KindPlace, Request: item.ID, Worker: id, Batch: len(views)})
	return id
}

// PlaceFixed records an externally routed placement (the fleet router
// picked the worker before the core saw the request) as a KindPlace
// decision with the same shape Place emits: Batch carries the candidate
// count so differential replay can pin the router's view size. The core
// stays the single writer of the decision log either way.
func (c *Core) PlaceFixed(item Item, worker, candidates int) {
	c.log.append(Decision{Kind: KindPlace, Request: item.ID, Worker: worker, Batch: candidates})
}

// AdmitBudget returns how many more requests the discipline lets worker's
// running batch accept right now: Static admits only into an empty batch;
// the continuous disciplines admit up to MaxBatch at every step boundary.
func (c *Core) AdmitBudget(worker, running int) int {
	var budget int
	if c.disc == Static {
		if running > 0 {
			return 0
		}
		budget = c.maxBatch
	} else {
		budget = c.maxBatch - running
	}
	if budget < 0 {
		budget = 0
	}
	return budget
}

// Admit decides how many of the queued items (FIFO) join worker's running
// batch of the given size, recording one KindAdmit decision per admitted
// request with the resulting batch size.
func (c *Core) Admit(worker, running int, queued []Item) int {
	n := c.AdmitBudget(worker, running)
	if n > len(queued) {
		n = len(queued)
	}
	for i := 0; i < n; i++ {
		c.log.append(Decision{Kind: KindAdmit, Request: queued[i].ID,
			Worker: worker, Batch: running + i + 1})
	}
	return n
}

// ShedVictim applies the mask-aware overload policy: among the worker's
// outstanding candidates, pick the one with the largest mask ratio
// strictly above the incoming request's (ties broken toward the larger
// ID), recording a KindShed decision for it. When every candidate is at
// most as large as the newcomer it returns -1 and records a KindReject
// for the incoming request instead (blind rejection as the last resort).
func (c *Core) ShedVictim(worker int, cands []Item, incoming Item) int {
	victim := -1
	for i, it := range cands {
		if it.MaskRatio <= incoming.MaskRatio {
			continue
		}
		if victim < 0 || it.MaskRatio > cands[victim].MaskRatio ||
			(it.MaskRatio == cands[victim].MaskRatio && it.ID > cands[victim].ID) {
			victim = i
		}
	}
	if victim < 0 {
		c.log.append(Decision{Kind: KindReject, Request: incoming.ID, Worker: worker})
		return -1
	}
	c.log.append(Decision{Kind: KindShed, Request: cands[victim].ID, Worker: worker})
	return victim
}
