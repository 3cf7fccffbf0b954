// Package pipeline implements the paper's Algorithm 1: the dynamic program
// that decides, per transformer block, whether to use cached activations
// (computing masked tokens only, but paying a cache load) or to compute all
// tokens (no load), so that the two-stream pipeline of cache loading and
// computation has no bubbles (Fig 9).
//
// Pipeline semantics: loads for cache-using blocks are issued in block
// order on a dedicated copy stream; the compute stream processes blocks in
// order, and a cache-using block's computation cannot start before both its
// load and the previous block's computation finish.
package pipeline

import (
	"fmt"
	"math"
)

// BlockCost gives one block's latencies (seconds) for the current batch:
// masked-token computation with cached activations, full-token computation
// without them, and the cache load.
type BlockCost struct {
	CompCached float64
	CompFull   float64
	Load       float64
}

// Schedule is the DP's output: the per-block cache decision and the
// resulting pipeline makespan.
type Schedule struct {
	UseCache []bool
	Latency  float64
}

// Evaluate simulates the two-stream pipeline for a given cache decision and
// returns its makespan. It is the paper's dp(·) evaluation primitive reused
// by the mask-aware scheduler's cost scoring (Algo 2).
func Evaluate(useCache []bool, costs []BlockCost) (float64, error) {
	if len(useCache) != len(costs) {
		return 0, fmt.Errorf("pipeline: decision length %d != block count %d", len(useCache), len(costs))
	}
	var loadDone, compDone float64
	for i, c := range costs {
		if useCache[i] {
			loadDone += c.Load
			start := math.Max(compDone, loadDone)
			compDone = start + c.CompCached
		} else {
			compDone += c.CompFull
		}
	}
	return compDone, nil
}

// NaiveLatency returns the makespan of the naive scheme (Fig 9-Top): every
// block uses the cache, and each block's load runs sequentially before its
// computation with no overlap.
func NaiveLatency(costs []BlockCost) float64 {
	var total float64
	for _, c := range costs {
		total += c.Load + c.CompCached
	}
	return total
}

// StrawmanLatency returns the makespan of the strawman pipeline
// (Fig 9-Middle): every block uses the cache with loads overlapped, but no
// block may fall back to full computation, so bubbles remain whenever
// loading outpaces computation.
func StrawmanLatency(costs []BlockCost) float64 {
	all := make([]bool, len(costs))
	for i := range all {
		all[i] = true
	}
	v, _ := Evaluate(all, costs)
	return v
}

// IdealLatency returns the lower bound where cache loading is free: every
// block uses cached activations and only computation remains (the "ideal"
// line of Fig 4-Left).
func IdealLatency(costs []BlockCost) float64 {
	var total float64
	for _, c := range costs {
		total += c.CompCached
	}
	return total
}

// FullComputeLatency returns the makespan when no block uses the cache
// (mask-agnostic full computation).
func FullComputeLatency(costs []BlockCost) float64 {
	var total float64
	for _, c := range costs {
		total += c.CompFull
	}
	return total
}

// state is a Pareto-optimal DP state after processing a prefix of blocks:
// loadSum is the busy time of the load stream, slack = compDone - loadSum.
// The eventual makespan of a completed schedule is loadSum + slack.
type state struct {
	slack   float64
	loadSum float64
	parent  int // index into the previous layer's states
	cached  bool
}

// frontierEps is the loadSum difference below which frontierStep takes two
// states for one.
const frontierEps = 1e-12

// frontierStep extends every state of cur — a frontier: slack strictly
// rising, loadSum strictly falling — by one block of cost c, either way,
// and appends the Pareto frontier of the results to next[:0]: taken in
// order of slack, and among equal slacks the least loadSum, a state stays
// when its loadSum is below the last kept one's by more than frontierEps
// (another has both ≤ otherwise, or is taken for the same). Both
// transitions are monotone in slack, so the cached and the computed
// children each come out ordered and merging them stands in for a sort;
// where two children agree in slack and loadSum the first merged stays,
// the cached one at equal slack. It is the one forward pass of Optimize
// and UniformLatency and does not allocate while next has room.
func frontierStep(next, cur []state, c BlockCost) []state {
	// Use cached activations: the load stream extends by Load; the compute
	// stream waits for whichever of (previous compute, this load) finishes
	// last, then computes masked tokens.
	cached := func(i int) state {
		return state{math.Max(cur[i].slack-c.Load, 0) + c.CompCached, cur[i].loadSum + c.Load, i, true}
	}
	// Compute all tokens: no load, the compute stream extends.
	full := func(i int) state {
		return state{cur[i].slack + c.CompFull, cur[i].loadSum, i, false}
	}
	next = next[:0]
	keep := func(p state) {
		n := len(next)
		switch {
		case n > 0 && p.slack == next[n-1].slack:
			if p.loadSum < next[n-1].loadSum {
				next[n-1] = p
			}
		case n == 0 || p.loadSum < next[n-1].loadSum-frontierEps:
			next = append(next, p)
		}
	}
	i, j := 0, 0
	for i < len(cur) && j < len(cur) {
		if a, b := cached(i), full(j); a.slack <= b.slack {
			keep(a)
			i++
		} else {
			keep(b)
			j++
		}
	}
	for ; i < len(cur); i++ {
		keep(cached(i))
	}
	for ; j < len(cur); j++ {
		keep(full(j))
	}
	return next
}

// bestLatency is the least makespan among a final frontier's states.
func bestLatency(final []state) (best int, latency float64) {
	latency = final[0].slack + final[0].loadSum
	for i, st := range final[1:] {
		if lat := st.slack + st.loadSum; lat < latency {
			best, latency = i+1, lat
		}
	}
	return best, latency
}

// Optimize runs the DP over all 2^N cache decisions using a Pareto frontier
// on (slack, loadSum) — a state is dominated when another has both ≤ — and
// returns a latency-minimal schedule; which one, where several share the
// latency, is frontierStep's merge order. For the homogeneous per-block
// costs of a real batch the frontier stays tiny, giving the paper's O(N)
// behavior; the frontier is exact for heterogeneous costs too.
func Optimize(costs []BlockCost) Schedule {
	layers := make([][]state, len(costs)+1)
	layers[0] = []state{{parent: -1}}
	for i, c := range costs {
		layers[i+1] = frontierStep(make([]state, 0, 2*len(layers[i])), layers[i], c)
	}
	idx, latency := bestLatency(layers[len(costs)])
	useCache := make([]bool, len(costs))
	for i := len(costs) - 1; i >= 0; i-- {
		st := layers[i+1][idx]
		useCache[i] = st.cached
		idx = st.parent
	}
	return Schedule{UseCache: useCache, Latency: latency}
}

// UniformLatency is Optimize(Uniform(c, n)).Latency — the same forward pass,
// so the same float64 — without the schedule behind it: what the mask-aware
// scheduler's cost scoring (Algo 2) asks per candidate worker. With equal
// blocks a frontier holds at most one state per count of cached blocks so
// far, and below uniformBlocks blocks the call does not allocate.
func UniformLatency(c BlockCost, n int) float64 {
	var a, b [uniformBlocks]state
	cur, next := append(a[:0], state{parent: -1}), b[:0]
	for i := 0; i < n; i++ {
		cur, next = frontierStep(next, cur, c), cur
	}
	_, latency := bestLatency(cur)
	return latency
}

// uniformBlocks sizes the two frontiers UniformLatency keeps on its stack;
// every model profile has fewer blocks.
const uniformBlocks = 64

// CacheBlockCount returns how many blocks of a schedule use the cache.
func (s Schedule) CacheBlockCount() int {
	n := 0
	for _, u := range s.UseCache {
		if u {
			n++
		}
	}
	return n
}

// Uniform replicates one block cost n times — the common case where every
// transformer block in a step has identical batch costs.
func Uniform(c BlockCost, n int) []BlockCost {
	costs := make([]BlockCost, n)
	for i := range costs {
		costs[i] = c
	}
	return costs
}
