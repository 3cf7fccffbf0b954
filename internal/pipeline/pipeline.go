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
	"sort"
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

// Optimize runs the DP over all 2^N cache decisions using a Pareto frontier
// on (slack, loadSum) — a state is dominated when another has both ≤ — and
// returns a latency-minimal schedule. For the homogeneous per-block costs
// of a real batch the frontier stays tiny, giving the paper's O(N)
// behavior; the frontier is exact for heterogeneous costs too.
func Optimize(costs []BlockCost) Schedule {
	if len(costs) == 0 {
		return Schedule{UseCache: []bool{}, Latency: 0}
	}
	layers := make([][]state, len(costs)+1)
	layers[0] = []state{{slack: 0, loadSum: 0, parent: -1}}
	for i, c := range costs {
		next := make([]state, 0, 2*len(layers[i]))
		for pi, st := range layers[i] {
			// Use cached activations: the load stream extends by Load; the
			// compute stream waits for whichever of (previous compute,
			// this load) finishes last, then computes masked tokens.
			next = append(next, state{
				slack:   math.Max(st.slack-c.Load, 0) + c.CompCached,
				loadSum: st.loadSum + c.Load,
				parent:  pi,
				cached:  true,
			})
			// Compute all tokens: no load, compute stream extends.
			next = append(next, state{
				slack:   st.slack + c.CompFull,
				loadSum: st.loadSum,
				parent:  pi,
				cached:  false,
			})
		}
		layers[i+1] = paretoPrune(next)
	}

	final := layers[len(costs)]
	best := 0
	bestLatency := final[0].slack + final[0].loadSum
	for i, st := range final[1:] {
		if lat := st.slack + st.loadSum; lat < bestLatency {
			bestLatency = lat
			best = i + 1
		}
	}

	useCache := make([]bool, len(costs))
	idx := best
	for i := len(costs) - 1; i >= 0; i-- {
		st := layers[i+1][idx]
		useCache[i] = st.cached
		idx = st.parent
	}
	return Schedule{UseCache: useCache, Latency: bestLatency}
}

// frontierEps is the loadSum difference below which paretoPrune takes two
// states for one.
const frontierEps = 1e-12

// paretoPrune removes dominated states: after sorting by slack ascending,
// only states with strictly decreasing loadSum survive. States with
// near-identical coordinates are merged to bound the frontier.
func paretoPrune(states []state) []state {
	sort.Slice(states, func(a, b int) bool {
		if states[a].slack != states[b].slack {
			return states[a].slack < states[b].slack
		}
		return states[a].loadSum < states[b].loadSum
	})
	out := states[:0]
	bestLoad := math.Inf(1)
	for _, st := range states {
		if st.loadSum < bestLoad-frontierEps {
			out = append(out, st)
			bestLoad = st.loadSum
		}
	}
	return out
}

// UniformLatency is Optimize(Uniform(c, n)).Latency — the same frontier,
// the same arithmetic in the same order, the same float64 — without the
// schedule behind it and without allocating: what the mask-aware
// scheduler's cost scoring (Algo 2) asks per candidate worker.
func UniformLatency(c BlockCost, n int) float64 {
	// With equal blocks a state's loadSum is Load added once per cached
	// block, and the frontier keeps one state per distinct loadSum: at most
	// one more than the blocks so far.
	const maxStates = 64
	if n >= maxStates {
		return Optimize(Uniform(c, n)).Latency
	}
	type point struct{ slack, loadSum float64 }
	var (
		cur  [maxStates]point
		next [2 * maxStates]point
	)
	m := 1 // cur[0] is the empty prefix
	for i := 0; i < n; i++ {
		k := 0
		for _, st := range cur[:m] {
			next[k] = point{math.Max(st.slack-c.Load, 0) + c.CompCached, st.loadSum + c.Load}
			next[k+1] = point{st.slack + c.CompFull, st.loadSum}
			k += 2
		}
		// paretoPrune: order by (slack, loadSum), keep strictly falling loadSum.
		for a := 1; a < k; a++ {
			p, b := next[a], a
			for ; b > 0 && (p.slack < next[b-1].slack || p.slack == next[b-1].slack && p.loadSum < next[b-1].loadSum); b-- {
				next[b] = next[b-1]
			}
			next[b] = p
		}
		m = 0
		bestLoad := math.Inf(1)
		for _, p := range next[:k] {
			if p.loadSum < bestLoad-frontierEps {
				cur[m], bestLoad = p, p.loadSum
				m++
			}
		}
	}
	best := cur[0].slack + cur[0].loadSum
	for _, p := range cur[1:m] {
		if lat := p.slack + p.loadSum; lat < best {
			best = lat
		}
	}
	return best
}

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
