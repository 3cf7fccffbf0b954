// Package batching is the execution-agnostic scheduling and batching core
// shared by the discrete-event simulator (internal/cluster) and the live
// serving plane (internal/serve). It implements FlashPS's mask-aware
// load-balancing policy (paper Algorithm 2) together with the
// request-granularity and token-granularity baselines it is evaluated
// against (§6.5), the three batching disciplines of §4.3 (static,
// strawman continuous, disaggregated continuous), and a clock-driven
// request/worker state machine (Runner) parameterized by a Clock/Executor
// interface pair so the identical policy code is driven either by virtual
// time (internal/simclock) or by real engine replicas.
//
// The mask-aware policy scores each candidate worker by estimating the
// serving latency its queue would have if the new request were assigned to
// it: per-block compute and cache-load latencies come from the offline
// linear regressions (internal/perfmodel, Fig 11), combined by the
// bubble-free pipeline DP (internal/pipeline, Algorithm 1) exactly as the
// paper's dp(batch, Comp, Load) extension describes.
package batching

import (
	"math"

	"flashps/internal/perfmodel"
	"flashps/internal/pipeline"
	"flashps/internal/tensor"
)

// Policy selects the load-balancing algorithm.
type Policy int

const (
	// RoundRobin cycles through workers.
	RoundRobin Policy = iota
	// LeastRequests balances the number of outstanding requests per
	// worker (request-granularity baseline).
	LeastRequests
	// LeastTokens balances the number of outstanding masked tokens per
	// worker (token-granularity baseline).
	LeastTokens
	// MaskAware is the paper's Algorithm 2: pick the worker whose
	// estimated serving latency with the new request is minimal,
	// accounting for both computation and cache loading.
	MaskAware
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastRequests:
		return "least-requests"
	case LeastTokens:
		return "least-tokens"
	case MaskAware:
		return "mask-aware"
	default:
		return "unknown"
	}
}

// WorkerView is the scheduler's snapshot of one worker replica's
// outstanding work (running batch + queue). Callers must build Ratios and
// RemSteps in a stable order (e.g. request admission order): the mask-aware
// cost is a floating-point sum over them, so a randomized order would make
// placement depend on map iteration.
type WorkerView struct {
	// Ratios holds the outstanding requests' mask ratios.
	Ratios []float64
	// RemSteps holds the corresponding remaining denoising steps.
	RemSteps []int
}

// Item describes the request being routed, admitted, or shed.
type Item struct {
	// ID identifies the request in the decision log. Placement never reads
	// it (see TestPlacementInvariantUnderRelabeling).
	ID        uint64
	MaskRatio float64
	Steps     int
}

// Scheduler routes requests across worker replicas under one policy.
type Scheduler struct {
	policy   Policy
	est      *perfmodel.Estimator
	maxBatch int
	rr       int
	rng      *tensor.RNG
	ratios   []float64 // Cost's scratch: the worker's ratios and the request's
}

// New constructs a scheduler. est is required only for MaskAware; maxBatch
// bounds the engine batch size used in cost estimation (≤0 defaults to the
// estimator profile's MaxBatch, or 1 without an estimator).
func New(policy Policy, est *perfmodel.Estimator, maxBatch int, seed uint64) *Scheduler {
	if maxBatch <= 0 {
		if est != nil {
			maxBatch = est.Profile.MaxBatch
		} else {
			maxBatch = 1
		}
	}
	return &Scheduler{policy: policy, est: est, maxBatch: maxBatch, rng: tensor.NewRNG(seed ^ 0x5C4ED)}
}

// Pick returns the index of the worker to serve req. It panics on an empty
// worker list.
func (s *Scheduler) Pick(workers []WorkerView, req Item) int {
	if len(workers) == 0 {
		panic("batching: Pick with no workers")
	}
	switch s.policy {
	case RoundRobin:
		idx := s.rr % len(workers)
		s.rr++
		return idx
	case LeastRequests:
		return s.argmin(workers, func(w WorkerView) float64 {
			return float64(len(w.Ratios))
		})
	case LeastTokens:
		return s.argmin(workers, func(w WorkerView) float64 {
			var tokens float64
			for _, m := range w.Ratios {
				tokens += m
			}
			return tokens
		})
	case MaskAware:
		return s.argmin(workers, func(w WorkerView) float64 {
			return s.Cost(w, req)
		})
	default:
		return 0
	}
}

// argmin returns the index minimizing score, breaking ties uniformly at
// random so equal workers share load.
func (s *Scheduler) argmin(workers []WorkerView, score func(WorkerView) float64) int {
	best := 0
	bestScore := math.Inf(1)
	ties := 0
	for i, w := range workers {
		v := score(w)
		switch {
		case v < bestScore:
			best, bestScore, ties = i, v, 1
		case v == bestScore:
			ties++
			if s.rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// Cost implements Algorithm 2's CalcCost: the estimated time for the worker
// to drain its outstanding work plus the new request. Per-step latency of
// the hypothetical batch comes from the pipeline DP over regression-
// estimated per-block compute and load latencies, scaled by the remaining
// denoising steps and the number of engine batches required.
func (s *Scheduler) Cost(w WorkerView, req Item) float64 {
	if s.est == nil {
		// Without regressions, fall back to masked-token counting.
		var tokens float64
		for _, m := range w.Ratios {
			tokens += m
		}
		return tokens + req.MaskRatio
	}
	ratios := append(append(s.ratios[:0], w.Ratios...), req.MaskRatio)
	s.ratios = ratios

	n := len(ratios)
	cost := pipeline.BlockCost{
		CompCached: s.est.CompLatency(ratios),
		CompFull:   s.est.CompFullLatency(n),
		Load:       s.est.LoadLatency(ratios),
	}
	stepLatency := pipeline.UniformLatency(cost, s.est.Profile.Blocks)

	totalSteps := req.Steps
	if totalSteps <= 0 {
		totalSteps = s.est.Profile.Steps
	}
	for _, st := range w.RemSteps {
		totalSteps += st
	}
	batches := (n + s.maxBatch - 1) / s.maxBatch
	return stepLatency * float64(totalSteps) / float64(n) * float64(batches)
}
