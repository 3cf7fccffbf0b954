package pipeline

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"flashps/internal/perfmodel"
	"flashps/internal/tensor"
)

func TestEvaluateLengthMismatch(t *testing.T) {
	if _, err := Evaluate([]bool{true}, Uniform(BlockCost{1, 2, 1}, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEvaluateAllFullIsSum(t *testing.T) {
	costs := []BlockCost{{1, 4, 2}, {1, 5, 2}, {1, 6, 2}}
	got, err := Evaluate([]bool{false, false, false}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("all-full latency = %g want 15", got)
	}
}

func TestEvaluateComputeBoundPipeline(t *testing.T) {
	// Load (1s) < compute (3s): only the first block's load is exposed.
	costs := Uniform(BlockCost{CompCached: 3, CompFull: 10, Load: 1}, 4)
	got := StrawmanLatency(costs)
	want := 1.0 + 4*3 // first load, then back-to-back computes
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("compute-bound pipeline = %g want %g", got, want)
	}
}

func TestEvaluateLoadBoundPipeline(t *testing.T) {
	// Load (3s) > compute (1s): every block waits for its load; bubbles
	// appear between computations (Fig 9-Middle).
	costs := Uniform(BlockCost{CompCached: 1, CompFull: 10, Load: 3}, 4)
	got := StrawmanLatency(costs)
	want := 4*3 + 1.0 // last load finishes at 12, then its compute
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("load-bound pipeline = %g want %g", got, want)
	}
}

func TestNaiveAndIdealBrackets(t *testing.T) {
	costs := Uniform(BlockCost{CompCached: 2, CompFull: 7, Load: 2}, 8)
	naive := NaiveLatency(costs)
	straw := StrawmanLatency(costs)
	ideal := IdealLatency(costs)
	opt := Optimize(costs).Latency
	if !(ideal <= opt && opt <= straw && straw <= naive) {
		t.Fatalf("ordering violated: ideal %g, opt %g, strawman %g, naive %g",
			ideal, opt, straw, naive)
	}
	if naive != 8*(2+2) {
		t.Fatalf("naive = %g", naive)
	}
	if ideal != 16 {
		t.Fatalf("ideal = %g", ideal)
	}
}

func TestOptimizeAllCachedWhenLoadCheap(t *testing.T) {
	costs := Uniform(BlockCost{CompCached: 5, CompFull: 20, Load: 0.1}, 10)
	s := Optimize(costs)
	if s.CacheBlockCount() != 10 {
		t.Fatalf("cheap loads: %d/10 blocks cached, want all", s.CacheBlockCount())
	}
	want := 0.1 + 10*5
	if math.Abs(s.Latency-want) > 1e-9 {
		t.Fatalf("latency = %g want %g", s.Latency, want)
	}
}

func TestOptimizeAllFullWhenCacheUseless(t *testing.T) {
	// Cached compute barely cheaper but load enormous: compute everything.
	costs := Uniform(BlockCost{CompCached: 9, CompFull: 10, Load: 100}, 6)
	s := Optimize(costs)
	if s.CacheBlockCount() != 0 {
		t.Fatalf("useless cache: %d blocks cached, want 0", s.CacheBlockCount())
	}
	if s.Latency != 60 {
		t.Fatalf("latency = %g want 60", s.Latency)
	}
}

func TestOptimizeMixesWhenLoadBound(t *testing.T) {
	// Load (3) > cached compute (1), full compute (4): mixing removes
	// bubbles — the Fig 9-Bottom scenario.
	costs := Uniform(BlockCost{CompCached: 1, CompFull: 4, Load: 3}, 12)
	s := Optimize(costs)
	straw := StrawmanLatency(costs)
	full := FullComputeLatency(costs)
	if s.Latency >= straw {
		t.Fatalf("optimized (%g) not better than strawman (%g)", s.Latency, straw)
	}
	if s.Latency >= full {
		t.Fatalf("optimized (%g) not better than all-full (%g)", s.Latency, full)
	}
	k := s.CacheBlockCount()
	if k == 0 || k == 12 {
		t.Fatalf("expected a mixed schedule, got %d/12 cached", k)
	}
}

func TestOptimizeEmptyAndSingle(t *testing.T) {
	s := Optimize(nil)
	if s.Latency != 0 || len(s.UseCache) != 0 {
		t.Fatalf("empty optimize = %+v", s)
	}
	s = Optimize([]BlockCost{{CompCached: 1, CompFull: 5, Load: 2}})
	if s.Latency != 3 || !s.UseCache[0] {
		t.Fatalf("single block = %+v", s)
	}
	s = Optimize([]BlockCost{{CompCached: 1, CompFull: 2, Load: 9}})
	if s.Latency != 2 || s.UseCache[0] {
		t.Fatalf("single block expensive load = %+v", s)
	}
}

// bruteForce enumerates all 2^n decisions — ground truth for the DP.
func bruteForce(costs []BlockCost) float64 {
	n := len(costs)
	best := math.Inf(1)
	useCache := make([]bool, n)
	for bits := 0; bits < 1<<n; bits++ {
		for i := 0; i < n; i++ {
			useCache[i] = bits&(1<<i) != 0
		}
		v, _ := Evaluate(useCache, costs)
		if v < best {
			best = v
		}
	}
	return best
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(11)
		costs := make([]BlockCost, n)
		for i := range costs {
			cc := rng.Float64() * 5
			costs[i] = BlockCost{
				CompCached: cc,
				CompFull:   cc + rng.Float64()*10, // full ≥ cached
				Load:       rng.Float64() * 8,
			}
		}
		got := Optimize(costs)
		want := bruteForce(costs)
		if math.Abs(got.Latency-want) > 1e-9 {
			return false
		}
		// The returned decision must evaluate to the returned latency.
		ev, err := Evaluate(got.UseCache, costs)
		return err == nil && math.Abs(ev-got.Latency) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeHeterogeneousBlocks(t *testing.T) {
	costs := []BlockCost{
		{CompCached: 1, CompFull: 3, Load: 5},
		{CompCached: 2, CompFull: 8, Load: 0.5},
		{CompCached: 0.5, CompFull: 2, Load: 4},
		{CompCached: 3, CompFull: 12, Load: 1},
	}
	got := Optimize(costs)
	want := bruteForce(costs)
	if math.Abs(got.Latency-want) > 1e-9 {
		t.Fatalf("heterogeneous: DP %g vs brute force %g", got.Latency, want)
	}
}

// Paper-scale sanity: for SDXL at m=0.2 the optimized pipeline is within a
// hair of max(ΣC_w, first-load + ΣC_w) and far below naive (Fig 4-Left).
func TestPaperScaleSDXLSchedule(t *testing.T) {
	p := perfmodel.SDXLPaper
	ratios := []float64{0.2}
	items := []perfmodel.LoadItem{{Template: 1, Step: 0, Ratio: 0.2}}
	c := BlockCost{
		CompCached: p.BlockComputeMasked(ratios),
		CompFull:   p.BlockComputeFull(1),
		Load:       p.BlockLoadBatch(items),
	}
	costs := Uniform(c, p.Blocks)
	opt := Optimize(costs)
	naive := NaiveLatency(costs)
	if naive/opt.Latency < 1.5 {
		t.Fatalf("bubble-free (%g) should roughly halve naive (%g)", opt.Latency, naive)
	}
	// The bubble-free schedule must beat mask-agnostic full computation by
	// around the paper's 2.2× at m=0.2.
	full := FullComputeLatency(costs)
	if speedup := full / opt.Latency; speedup < 1.7 {
		t.Fatalf("speedup vs full = %.2f, want ≳2", speedup)
	}
}

func TestUniform(t *testing.T) {
	costs := Uniform(BlockCost{1, 2, 3}, 3)
	if len(costs) != 3 || costs[2].Load != 3 {
		t.Fatalf("Uniform = %+v", costs)
	}
}

// degenerateCosts draws block costs at second and at microsecond scale, with
// zero and vanishing terms (loads within frontierEps of each other), small
// integers (sums that tie exactly), cached dearer than full, and equal terms.
func degenerateCosts(rng *tensor.RNG) BlockCost {
	draw := func() float64 {
		switch rng.Intn(7) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 1e-13
		case 2:
			return rng.Float64() * 1e-4
		case 3:
			return float64(rng.Intn(4))
		default:
			return rng.Float64() * 5
		}
	}
	c := BlockCost{CompCached: draw(), CompFull: draw(), Load: draw()}
	if rng.Intn(8) == 0 {
		c.CompFull = c.CompCached
	}
	return c
}

// TestFrontierStepIsSortAndPrune holds the merge to what it stands in for:
// every child of every state, sorted by (slack, loadSum), kept while
// loadSum falls by more than frontierEps. The frontiers agree in every
// coordinate at every block, so the latency does in its bits.
func TestFrontierStepIsSortAndPrune(t *testing.T) {
	sortAndPrune := func(cur []state, c BlockCost) []state {
		var all []state
		for _, st := range cur {
			all = append(all,
				state{slack: math.Max(st.slack-c.Load, 0) + c.CompCached, loadSum: st.loadSum + c.Load},
				state{slack: st.slack + c.CompFull, loadSum: st.loadSum})
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].slack != all[b].slack {
				return all[a].slack < all[b].slack
			}
			return all[a].loadSum < all[b].loadSum
		})
		var out []state
		bestLoad := math.Inf(1)
		for _, st := range all {
			if st.loadSum < bestLoad-frontierEps {
				out, bestLoad = append(out, st), st.loadSum
			}
		}
		return out
	}
	rng := tensor.NewRNG(11)
	for trial := 0; trial < 20000; trial++ {
		uniform := rng.Intn(2) == 0
		c := degenerateCosts(rng)
		got, want := []state{{}}, []state{{}}
		for block, n := 0, rng.Intn(24); block < n; block++ {
			if !uniform {
				c = degenerateCosts(rng)
			}
			got, want = frontierStep(nil, got, c), sortAndPrune(want, c)
			if len(got) != len(want) {
				t.Fatalf("trial %d block %d: %d states, want %d", trial, block, len(got), len(want))
			}
			for i := range got {
				if got[i].slack != want[i].slack || got[i].loadSum != want[i].loadSum {
					t.Fatalf("trial %d block %d state %d: (%v, %v), want (%v, %v)", trial, block, i,
						got[i].slack, got[i].loadSum, want[i].slack, want[i].loadSum)
				}
			}
		}
	}
}

func TestUniformLatencyIsOptimizeLatency(t *testing.T) {
	// The same float64 as the DP behind a schedule, at every block count up
	// to past the frontiers it keeps on its stack.
	rng := tensor.NewRNG(5)
	for trial := 0; trial < 4000; trial++ {
		c := degenerateCosts(rng)
		n := rng.Intn(70)
		if trial < 70 {
			n = trial
		}
		got, want := UniformLatency(c, n), Optimize(Uniform(c, n)).Latency
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("UniformLatency(%+v, %d) = %v, Optimize %v", c, n, got, want)
		}
	}
	c := BlockCost{CompCached: 0.0003, CompFull: 0.0008, Load: 0.0004}
	if n := testing.AllocsPerRun(10, func() { UniformLatency(c, 57) }); n != 0 {
		t.Fatalf("UniformLatency allocates %v/op, want 0", n)
	}
}

func BenchmarkUniformLatency56Blocks(b *testing.B) {
	c := BlockCost{CompCached: 0.0003, CompFull: 0.0008, Load: 0.0004}
	for i := 0; i < b.N; i++ {
		UniformLatency(c, 56)
	}
}

func BenchmarkOptimize56Blocks(b *testing.B) {
	costs := Uniform(BlockCost{CompCached: 0.0003, CompFull: 0.0008, Load: 0.0004}, 56)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimize(costs)
	}
}
