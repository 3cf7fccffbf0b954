// Command flashps-kernels benchmarks the tensor hot-loop kernels against
// their pre-optimization reference implementations and writes a
// machine-readable report. The committed BENCH_kernels.json at the repo root
// is the evidence artifact for the kernel-optimization work; regenerate it
// with `make bench-kernels`.
//
// The report has three parts, read against the core's FMA ceiling
// (fma_peak: twelve independent FMA chains at ZMM and at YMM width, which
// every matmul entry and every FLOP-counting budget row reports its share
// of): before/after entries per kernel and shape,
// with attention's parts per row group beside the same parts run one head at
// a time (attention_budgets); a per-op budget of one transformer block (full, and mask-aware at 2, 7 and
// 22 of 64 tokens with K/V computed over all tokens and with K/V derived
// from the template) — FLOPs, computed bytes, ns and share of the block —
// which is the roofline ROADMAP item 2 asks for, with the mask size at
// which derived K/V stops paying and what deriving a template costs; and
// every "after" kernel again at parallelism 1 and 2, where 2 must not lose
// (the command exits 1 if it does). On a host whose kernel level is above
// avx2 the command runs itself once more under the avx2 cap and keeps that
// run's figures beside its own — every "after" kernel (level_check), each
// block's and op's time in block_budgets, the lone session's step and its
// cost law in lane_fixed_work — where the host's own level must not lose
// either.
//
// Everything that is compared is timed in interleaved rounds and reported
// as a median (timeRounds): on a shared host a vCPU changes speed every few
// seconds, so two numbers taken a second apart differ by more than most of
// the effects measured here.
//
// Usage:
//
//	flashps-kernels                    # print JSON to stdout
//	flashps-kernels -o BENCH_kernels.json
//	flashps-kernels -par 1             # force serial kernels
//	flashps-kernels -rounds 5          # quicker, noisier
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"testing"
	"time"

	"flashps/internal/benchfmt"
	"flashps/internal/diffusion"
	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

// Side reports one implementation's measurement.
type Side struct {
	NsPerOp     int64   `json:"ns_op"`
	GFLOPs      float64 `json:"gflops"`
	AllocsPerOp int64   `json:"allocs_op"`
}

// Entry compares the optimized kernel ("after") with the reference
// implementation it replaced ("before") on one op and shape.
type Entry struct {
	Op      string  `json:"op"`
	Shape   string  `json:"shape"`
	FLOP    int64   `json:"flop"`
	Before  Side    `json:"before"`
	After   Side    `json:"after"`
	Speedup float64 `json:"speedup"`
	// PeakShare is the after side's GFLOP/s over the FMA ceiling of the
	// report's kernel level (fma_peak), on matmul entries.
	PeakShare float64 `json:"share_of_fma_peak,omitempty"`
	Note      string  `json:"note,omitempty"`
}

// BudgetRow is one op of a transformer block, timed on its own at the
// block's shapes, in the same interleaved rounds as the block. FLOP counts
// 2 per multiply-accumulate; Bytes is computed from the operand shapes
// (every input and output touched once), not measured. Pct is the op's
// share of the whole block's time; the "(unattributed)" row is what the ops
// do not add up to.
type BudgetRow struct {
	Op     string  `json:"op"`
	Shape  string  `json:"shape"`
	FLOP   int64   `json:"flop"`
	Bytes  int64   `json:"bytes"`
	Ns     int64   `json:"ns"`
	NsAVX2 int64   `json:"ns_avx2,omitempty"` // the same run capped at avx2 (keepCapped)
	GFLOPs float64 `json:"gflops,omitempty"`
	GBps   float64 `json:"gb_s"`
	Pct    float64 `json:"pct_of_block"`
	// PeakShare is GFLOPs over the FMA ceiling of the report's kernel
	// level (fma_peak), on the rows that count FLOPs: the GEMMs, and
	// attention's two.
	PeakShare float64 `json:"share_of_fma_peak,omitempty"`
}

// Budget is the per-op table of one block execution.
type Budget struct {
	Block        string      `json:"block"`
	MaskedTokens int         `json:"masked_tokens"`
	BlockNs      int64       `json:"block_ns"`
	BlockNsAVX2  int64       `json:"block_ns_avx2,omitempty"`
	BlockGFLOPs  float64     `json:"block_gflops"`
	Rows         []BudgetRow `json:"rows"`
}

// ParRow is one kernel at parallelism 1 and 2. The split threshold is
// sized by work (tensor.minTaskFLOPs), so small shapes run the same serial
// code at both settings and Ratio is 1 within noise; a shape that splits
// (33 MFLOP here: the 256³ GEMM, flux-sim attention) must not lose by it.
type ParRow struct {
	Op    string  `json:"op"`
	Shape string  `json:"shape"`
	Ns1   int64   `json:"ns_par1"`
	Ns2   int64   `json:"ns_par2"`
	Ratio float64 `json:"par2_over_par1"`
}

// parSlack is how much slower than parallelism 1 a kernel may measure at
// parallelism 2 before it counts as a loss: the spread of two medians of
// the same serial code on this class of host.
const parSlack = 1.10

// LevelRow is one kernel at the host's own kernel level and at the avx2 cap,
// from two processes of the same run. Shapes narrower than a ZMM tile run
// the same code at both and Ratio is 1 within noise.
type LevelRow struct {
	Op       string  `json:"op"`
	Shape    string  `json:"shape"`
	NsAVX2   int64   `json:"ns_avx2"`
	NsNative int64   `json:"ns_native"`
	Ratio    float64 `json:"native_over_avx2"`
}

// levelSlack is parSlack for level_check. It is wider because the two sides
// are medians of two processes a minute apart, not of interleaved rounds:
// the sub-tile attention shapes, the same code at both levels, have read
// 0.94 in one run of this host and 1.17 in the next.
const levelSlack = 1.20

// CrossoverRow is the masked block at one mask size with the unmasked
// tokens' K/V computed (LN1 and two L-row projections per block) and
// derived (a copy of the packed K with the masked rows written in; V read
// where it stands), timed in the same rounds.
type CrossoverRow struct {
	MaskedTokens int     `json:"masked_tokens"`
	ComputedNs   int64   `json:"computed_ns"`
	DerivedNs    int64   `json:"derived_ns"`
	Ratio        float64 `json:"derived_over_computed"`
}

// Derivation is what building one template's derived K/V costs: every
// cached step and guidance pass of the model, blocks 1…B−1, and block 0 of
// the unconditional pass.
type Derivation struct {
	Model string `json:"model"`
	Bytes int64  `json:"bytes"`
	Ns    int64  `json:"ns"`
}

// ScalingRow is the engine's denoising step at one batch shape: Members
// cached-Y sessions of MaskedTokens masked tokens each (0: every member's
// mask drawn from workload.ProductionTrace), on one template with derived
// K/V, different prompts and mask positions. Stacked runs each step as one
// Engine.StepBatch over the members; sequential steps the same sessions one
// by one — each still one stacked step of its own two guidance passes, so
// the ratio prices stacking across members alone. Both run whole edits in
// the same interleaved rounds; a member-step is one session's one step, and
// Ratio is the median over rounds of the two adjacent samples' ratio, which
// the host's speed changes move less than they move either median.
type ScalingRow struct {
	Members        int     `json:"members"`
	MaskedTokens   int     `json:"masked_tokens"`
	MeanTokens     float64 `json:"mean_masked_tokens"`
	StackedUs      float64 `json:"stacked_us_per_member_step"`
	SequentialUs   float64 `json:"sequential_us_per_member_step"`
	StackedPerS    float64 `json:"stacked_member_steps_per_s"`
	SequentialPerS float64 `json:"sequential_member_steps_per_s"`
	Ratio          float64 `json:"stacked_over_sequential"`
}

// FixedWorkRow is the lone session's step at one mask size, per lane-step
// (a guided member-step is two), at the parent revision, at this one capped
// at avx2 (where the host's level is above it) and at this one.
type FixedWorkRow struct {
	MaskedTokens int     `json:"masked_tokens"`
	ParentUs     float64 `json:"parent_us_per_lane_step,omitempty"`
	AVX2Us       float64 `json:"avx2_us_per_lane_step,omitempty"`
	Us           float64 `json:"us_per_lane_step"`
}

// FixedWork is the per-lane cost law of the engine's step, µs per lane-step
// = intercept + slope · masked tokens, least squares over batch_scaling's
// one-member rows: the intercept is what a lane pays whatever its mask — all
// rows' K/V where they are still projected, the copies of derived K/V,
// attention's per-call set-up — and the slope what a masked token costs.
// The parent's law is fitted to the same rows of the report this run
// overwrites (its revision in ParentRev), when there was one; the avx2 law
// is the same run's capped at avx2 (keepCapped).
type FixedWork struct {
	ParentRev       string         `json:"parent_rev,omitempty"`
	ParentIntercept float64        `json:"parent_intercept_us,omitempty"`
	ParentSlope     float64        `json:"parent_slope_us_per_token,omitempty"`
	AVX2Intercept   float64        `json:"avx2_intercept_us,omitempty"`
	AVX2Slope       float64        `json:"avx2_slope_us_per_token,omitempty"`
	Intercept       float64        `json:"intercept_us"`
	Slope           float64        `json:"slope_us_per_token"`
	Rows            []FixedWorkRow `json:"rows"`
}

// LeftoverRow says how much of a masked block's token-wise GEMM time (four
// H×H projections, FFN up and down) goes to the 1–3-row remainder tile of
// its operand, over batches of Members requests with production masks:
// PerLane with one operand per guidance pass of one request, as the engine
// ran before the stacked step; Stacked with all of the batch's lanes in one
// operand. Computed from this report's own matmul rows at M = 1, 2, 3
// (remainder tiles) and M = 8 (two full tiles).
type LeftoverRow struct {
	Members      int     `json:"members"`
	MeanRows     float64 `json:"mean_stacked_rows"`
	PerLaneShare float64 `json:"per_lane_remainder_share"`
	StackedShare float64 `json:"stacked_remainder_share"`
	StackedOver  float64 `json:"stacked_over_per_lane_gemm_time"`
}

// AttentionPartRow is one part of an attention call, in ns per row group
// (≤ 4 query rows): as the kernel runs it, and as the kernel ran it one
// (head, row group) at a time (tensor.AttentionPart), timed in the same
// rounds. A part the kernel does inside another reads 0. The "rest" row is
// what the parts do not add up to of the whole call — the call as
// attention's entries time it, K packed per call — where the per-head call
// is the parent report's entry of the same shape, taken in another process,
// and absent when that report has none.
type AttentionPartRow struct {
	Part      string  `json:"part"`
	Ns        float64 `json:"ns_per_row_group"`
	PerHeadNs float64 `json:"per_head_ns_per_row_group,omitempty"`
}

// AttentionBudget is the part-by-part time of one attention call at the
// sd21-sim head shape (4 heads of 16 columns) against its 64 keys.
type AttentionBudget struct {
	Shape     string             `json:"shape"`
	RowGroups int                `json:"row_groups"`
	CallNs    int64              `json:"call_ns"`
	Rows      []AttentionPartRow `json:"rows"`
}

// fmaChains is how many independent FMA chains fmaPeak runs: enough to
// cover the FMA latency on both ports with room to spare (4 cycles × 2
// ports needs 8), so that the ports, not a chain, set the rate.
const fmaChains = 12

// FMAPeak is the ceiling the GEMM figures are read against: the GFLOP/s
// of fmaChains independent FMA chains on one core (2 FLOP per lane per
// FMA), with ZMM and with YMM registers, where the kernel level reaches
// them.
type FMAPeak struct {
	Chains int     `json:"chains"`
	ZMM    float64 `json:"zmm_gflops,omitempty"`
	YMM    float64 `json:"ymm_gflops,omitempty"`
}

// fmaPeak times the FMA chains the kernel level can run, in interleaved
// rounds like everything else here.
func fmaPeak(kernels string) FMAPeak {
	const steps = 1 << 12
	p := FMAPeak{Chains: fmaChains}
	var fns []func()
	if tensor.HasAVX2() {
		fns = append(fns, func() { fmaChainsYMM(steps) })
	}
	if kernels == "avx512" {
		fns = append(fns, func() { fmaChainsZMM(steps) })
	}
	ns := medianRounds(fns...)
	if len(ns) > 0 {
		p.YMM = fmaChains * 8 * 2 * steps / ns[0]
	}
	if len(ns) > 1 {
		p.ZMM = fmaChains * 16 * 2 * steps / ns[1]
	}
	return p
}

// ceiling is the peak of the registers the kernel level's GEMM runs on (0
// at the portable level).
func (p FMAPeak) ceiling(kernels string) float64 {
	if kernels == "avx512" {
		return p.ZMM
	}
	return p.YMM
}

// Report is the top-level BENCH_kernels.json document.
type Report struct {
	Meta        benchfmt.Meta     `json:"meta"`
	Parallelism int               `json:"parallelism"`
	FMAPeak     FMAPeak           `json:"fma_peak"`
	Entries     []Entry           `json:"entries"`
	Attention   []AttentionBudget `json:"attention_budgets"`
	Budgets     []Budget          `json:"block_budgets"`
	Crossover   []CrossoverRow    `json:"masked_block_crossover"`
	Derivation  Derivation        `json:"derivation_per_template"`
	Scaling     []ScalingRow      `json:"batch_scaling"`
	FixedWork   FixedWork         `json:"lane_fixed_work"`
	Leftover    []LeftoverRow     `json:"leftover_tiles"`
	ParCheck    []ParRow          `json:"par_check,omitempty"`
	LevelCheck  []LevelRow        `json:"level_check,omitempty"` // where Meta.Kernels is above avx2
}

// rounds is how many interleaved rounds timeRounds takes (-rounds).
var rounds = 15

// timeRounds returns ns per call of each fn in each of the rounds. Each
// round times every fn once, for about a slice of calls, so all of them
// sample the same stretch of host speed; their medians are comparable with
// each other — and add up, where the fns are the parts of a whole — in a
// way back-to-back benchmarks of a second each are not.
func timeRounds(slice time.Duration, fns ...func()) [][]float64 {
	iters := make([]int, len(fns))
	for i, fn := range fns {
		fn() // warm caches and size arenas
		for n := 1; ; n *= 2 {
			start := time.Now()
			for j := 0; j < n; j++ {
				fn()
			}
			if el := time.Since(start); el >= slice/2 || n >= 1<<20 {
				iters[i] = max(1, int(float64(n)*float64(slice)/float64(el+1)))
				break
			}
		}
	}
	samples := make([][]float64, len(fns))
	for r := 0; r < rounds; r++ {
		for i, fn := range fns {
			start := time.Now()
			for j := 0; j < iters[i]; j++ {
				fn()
			}
			samples[i] = append(samples[i], float64(time.Since(start).Nanoseconds())/float64(iters[i]))
		}
	}
	return samples
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// medianRounds is the median of timeRounds per fn, at millisecond slices.
func medianRounds(fns ...func()) []float64 {
	var med []float64
	for _, s := range timeRounds(time.Millisecond, fns...) {
		med = append(med, median(s))
	}
	return med
}

func side(ns float64, flop int64, fn func()) Side {
	s := Side{NsPerOp: int64(ns + 0.5), AllocsPerOp: int64(testing.AllocsPerRun(5, fn))}
	if ns > 0 && flop > 0 {
		s.GFLOPs = float64(flop) / ns
	}
	return s
}

// benchCase is one kernel and shape: the reference implementation it
// replaced ("before") and the kernel ("after").
type benchCase struct {
	op, shape     string
	flop          int64
	before, after func()
}

func (c benchCase) entry() Entry {
	ns := medianRounds(c.before, c.after)
	e := Entry{Op: c.op, Shape: c.shape, FLOP: c.flop,
		Before: side(ns[0], c.flop, c.before), After: side(ns[1], c.flop, c.after)}
	if ns[1] > 0 {
		e.Speedup = ns[0] / ns[1]
	}
	return e
}

// parRow times c's kernel at parallelism 1 and 2, interleaved in slices
// long enough for the worker pool to be as warm as it is inside a denoise
// step, where one split call follows another. Ratio is the median over
// rounds of the two adjacent slices' ratio, which the host's speed changes
// move less than they move either median.
func (c benchCase) parRow() ParRow {
	at := func(p int) func() {
		return func() { tensor.SetParallelism(p); c.after() }
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	ns := timeRounds(10*time.Millisecond, at(1), at(2))
	ratios := make([]float64, len(ns[0]))
	for r := range ratios {
		ratios[r] = ns[1][r] / ns[0][r]
	}
	return ParRow{Op: c.op, Shape: c.shape, Ns1: int64(median(ns[0]) + 0.5), Ns2: int64(median(ns[1]) + 0.5), Ratio: median(ratios)}
}

// The float64 scalar formulas internal/tensor computed with before the
// float32 vector math: the "before" side of the token-wise rows.

func refExp(x []float32) {
	for i, v := range x {
		x[i] = float32(math.Exp(float64(v)))
	}
}

func refGeLU(x []float32) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		f := float64(v)
		x[i] = float32(0.5 * f * (1 + math.Tanh(c*(f+0.044715*f*f*f))))
	}
}

func refSoftmaxRows(m *tensor.Matrix) {
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - max))
			row[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

func refLayerNormRows(dst, src *tensor.Matrix, gamma, beta []float32, eps float32) {
	copy(dst.Data, src.Data)
	for i := 0; i < dst.R; i++ {
		row := dst.Row(i)
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(len(row))
		var varsum float64
		for _, v := range row {
			d := float64(v) - mean
			varsum += d * d
		}
		inv := float32(1 / math.Sqrt(varsum/float64(len(row))+float64(eps)))
		for j, v := range row {
			row[j] = (v-float32(mean))*inv*gamma[j] + beta[j]
		}
	}
}

// tokenwiseCases benchmarks exp, GeLU, LayerNorm and softmax at the
// sd21-sim shapes. Every iteration restores its input first (both sides
// pay the same copy), so repeated in-place application cannot drift the
// values away from the activation range the step sees.
func tokenwiseCases(rng *tensor.RNG, cfg model.Config) []benchCase {
	L, H, F := cfg.Tokens(), cfg.Hidden, cfg.Hidden*cfg.FFNMult
	var out []benchCase

	scores := tensor.Randn(rng, L, L, 2)
	shifted := scores.Clone()
	for i := range shifted.Data {
		shifted.Data[i] = -float32(math.Abs(float64(shifted.Data[i]))) // softmax arguments are ≤ 0
	}
	work := tensor.New(L, L)
	out = append(out, benchCase{"exp", fmt.Sprintf("%d", L*L), 0,
		func() { copy(work.Data, shifted.Data); refExp(work.Data) },
		func() { copy(work.Data, shifted.Data); tensor.Exp(work.Data) }})
	out = append(out, benchCase{"softmax", fmt.Sprintf("%dx%d", L, L), 0,
		func() { copy(work.Data, scores.Data); refSoftmaxRows(work) },
		func() { copy(work.Data, scores.Data); tensor.SoftmaxRows(work) }})

	pre := tensor.Randn(rng, L, F, 1)
	ff := tensor.New(L, F)
	out = append(out, benchCase{"gelu", fmt.Sprintf("%dx%d", L, F), 0,
		func() { copy(ff.Data, pre.Data); refGeLU(ff.Data) },
		func() { copy(ff.Data, pre.Data); tensor.GeLU(ff) }})

	// LayerNorm over every token, and over the masked rows of the 7- and
	// 22-token blocks (row groups and a remainder), whose inputs come from
	// their own RNG so that every other case keeps its inputs.
	x := tensor.Randn(rng, L, H, 1)
	gamma, beta := tensor.Randn(rng, 1, H, 1).Data, tensor.Randn(rng, 1, H, 1).Data
	stackedRNG := tensor.NewRNG(3)
	for _, src := range []*tensor.Matrix{x, tensor.Randn(stackedRNG, 7, H, 1), tensor.Randn(stackedRNG, 22, H, 1)} {
		ln := tensor.New(src.R, H)
		out = append(out, benchCase{"layernorm", fmt.Sprintf("%dx%d", src.R, H), 0,
			func() { refLayerNormRows(ln, src, gamma, beta, 1e-5) },
			func() { tensor.LayerNormRowsInto(ln, src, gamma, beta, 1e-5) }})
	}
	return out
}

// gemmCases benchmarks the masked-row GEMMs: M rows against the
// sd21-sim projection (H×H), FFN-up (H×4H) and FFN-down (4H×H) weights.
// M = 1, 2, 3 run wholly in the remainder micro-kernel; 5, 7, 13 mix it
// with full 4-row tiles; 8 and 64 are full tiles only.
func gemmCases(rng *tensor.RNG, cfg model.Config) []benchCase {
	H, F := cfg.Hidden, cfg.Hidden*cfg.FFNMult
	var out []benchCase
	for _, w := range []struct{ k, n int }{{H, H}, {H, F}, {F, H}} {
		b := tensor.Randn(rng, w.k, w.n, 1)
		for _, m := range []int{1, 2, 3, 5, 7, 8, 13, 64} {
			a := tensor.Randn(rng, m, w.k, 1)
			dst := tensor.New(m, w.n)
			flop := 2 * int64(m) * int64(w.k) * int64(w.n)
			out = append(out, benchCase{"matmul", fmt.Sprintf("%dx%dx%d", m, w.k, w.n), flop,
				func() { tensor.MatMulNaiveInto(dst, a, b) },
				func() { tensor.MatMulInto(dst, a, b) }})
		}
	}
	return out
}

// op is one operation of a block, timed on its own.
type op struct {
	name, shape string
	flop, bytes int64
	fn          func()
}

// blockPlan is one block variant to budget: the whole block and every op of
// it on its own, at the shapes the block runs them with.
type blockPlan struct {
	name string
	m    int
	run  func()
	ops  []op
}

// planBlock sets up one block variant: M = len(idx) masked rows of L tokens
// (idx nil means the full-token block). derived selects the masked block
// that is given the unmasked tokens' K/V derived from the template
// (Block.ForwardMaskedDerivedWS): LN1 and the K/V projections shrink to the
// masked rows, a copy of the packed K with the masked rows written in takes
// the place of the two L-row projections, attention skips its pack and takes
// the masked rows' V beside the template's.
func planBlock(rng *tensor.RNG, cfg model.Config, idx []int, derived bool) blockPlan {
	L, H, F := cfg.Tokens(), cfg.Hidden, cfg.Hidden*cfg.FFNMult
	M, name := L, "full"
	if idx != nil {
		M, name = len(idx), "masked"
	}
	if derived {
		name = "masked-derived"
	}
	blk := model.NewBlock(H, cfg.FFNMult, rng)
	blk.Heads = cfg.Heads
	scale := float32(1 / math.Sqrt(float64(H/cfg.Heads)))

	x, cachedY := tensor.Randn(rng, L, H, 1), tensor.Randn(rng, L, H, 1)
	ln1, k, v, y := tensor.New(L, H), tensor.New(L, H), tensor.New(L, H), tensor.New(L, H)
	lnM, q, attn, xM, h, ln2, yM := tensor.New(M, H), tensor.New(M, H), tensor.New(M, H),
		tensor.New(M, H), tensor.New(M, H), tensor.New(M, H), tensor.New(M, H)
	ff := tensor.New(M, F)
	// Fill the intermediates once so each op is timed on realistic inputs.
	tensor.LayerNormRowsInto(ln1, x, blk.LN1Gamma, blk.LN1Beta, 1e-5)
	qIn := ln1
	if idx != nil {
		tensor.GatherRowsInto(lnM, ln1, idx)
		tensor.GatherRowsInto(xM, x, idx)
		qIn = lnM
	} else {
		copy(xM.Data, x.Data)
	}
	tensor.MatMulInto(q, qIn, blk.WQ)
	tensor.MatMulInto(k, ln1, blk.WK)
	tensor.MatMulInto(v, ln1, blk.WV)
	attnWS := tensor.NewArena()
	tensor.FusedAttentionWS(attnWS, attn, q, k, v, cfg.Heads, scale)
	tensor.MatMulInto(h, attn, blk.WO)
	tensor.AddInPlace(h, xM)
	tensor.LayerNormRowsInto(ln2, h, blk.LN2Gamma, blk.LN2Beta, 1e-5)
	tensor.MatMulGeLUInto(ff, ln2, blk.W1)

	f4 := func(floats ...int) int64 { // bytes of float32 operands
		var n int64
		for _, f := range floats {
			n += 4 * int64(f)
		}
		return n
	}
	gemm := func(name string, dst, a, b *tensor.Matrix, fn func()) op {
		return op{name, fmt.Sprintf("%dx%dx%d", a.R, a.C, b.C), 2 * int64(a.R) * int64(a.C) * int64(b.C),
			f4(a.R*a.C, b.R*b.C, dst.R*dst.C), fn}
	}
	var ops []op
	given := blk.DeriveKV(nil, x, nil)
	keys := given.K
	kM, vM := tensor.New(M, H), tensor.New(M, H)
	if derived {
		ops = []op{
			{"gather_x", fmt.Sprintf("%dx%d", M, H), 0, f4(2 * M * H), func() { tensor.GatherRowsInto(xM, x, idx) }},
			{"layernorm1", fmt.Sprintf("%dx%d", M, H), 0, f4(2*M*H, 2*H), func() {
				tensor.LayerNormRowsInto(lnM, xM, blk.LN1Gamma, blk.LN1Beta, 1e-5)
			}},
			gemm("q_proj", q, lnM, blk.WQ, func() { tensor.MatMulInto(q, lnM, blk.WQ) }),
			gemm("k_proj", kM, lnM, blk.WK, func() { tensor.MatMulInto(kM, lnM, blk.WK) }),
			gemm("v_proj", vM, lnM, blk.WV, func() { tensor.MatMulInto(vM, lnM, blk.WV) }),
			{"k_copy+rows", fmt.Sprintf("%dx%d", L, H), 0, f4(2*L*H, 2*M*H), func() {
				attnWS.Reset()
				keys = given.K.WithRows(attnWS, kM, idx)
			}},
		}
	} else {
		ops = []op{
			{"layernorm1", fmt.Sprintf("%dx%d", L, H), 0, f4(2*L*H, 2*H), func() {
				tensor.LayerNormRowsInto(ln1, x, blk.LN1Gamma, blk.LN1Beta, 1e-5)
			}},
		}
		if idx != nil {
			ops = append(ops, op{"gather_ln_x", fmt.Sprintf("2x%dx%d", M, H), 0, f4(4 * M * H), func() {
				tensor.GatherRowsInto(lnM, ln1, idx)
				tensor.GatherRowsInto(xM, x, idx)
			}})
		}
		ops = append(ops,
			gemm("q_proj", q, qIn, blk.WQ, func() { tensor.MatMulInto(q, qIn, blk.WQ) }),
			gemm("k_proj", k, ln1, blk.WK, func() { tensor.MatMulInto(k, ln1, blk.WK) }),
			gemm("v_proj", v, ln1, blk.WV, func() { tensor.MatMulInto(v, ln1, blk.WV) }),
		)
	}
	ops = append(ops,
		op{"attention", fmt.Sprintf("Lq%d_Lk%d_H%d_h%d", M, L, H, cfg.Heads), 4 * int64(M) * int64(L) * int64(H),
			f4(2*M*H, 2*L*H), func() {
				if derived {
					tensor.FusedAttentionPacked(attnWS, attn, q, keys, tensor.ValuesOf(given.V).WithRows(vM, idx), cfg.Heads)
					return
				}
				attnWS.Reset()
				tensor.FusedAttentionWS(attnWS, attn, q, k, v, cfg.Heads, scale)
			}},
		gemm("o_proj+residual", h, attn, blk.WO, func() {
			tensor.MatMulInto(h, attn, blk.WO)
			tensor.AddInPlace(h, xM)
		}),
		op{"layernorm2", fmt.Sprintf("%dx%d", M, H), 0, f4(2*M*H, 2*H), func() {
			tensor.LayerNormRowsInto(ln2, h, blk.LN2Gamma, blk.LN2Beta, 1e-5)
		}},
		gemm("ffn_up+gelu", ff, ln2, blk.W1, func() { tensor.MatMulGeLUInto(ff, ln2, blk.W1) }),
		gemm("ffn_down+residual", yM, ff, blk.W2, func() {
			tensor.MatMulInto(yM, ff, blk.W2)
			tensor.AddInPlace(yM, h)
		}),
	)
	if idx != nil {
		ops = append(ops, op{"replenish+scatter", fmt.Sprintf("%dx%d", L, H), 0, f4(2*L*H, 2*M*H), func() {
			copy(y.Data, cachedY.Data)
			tensor.ScatterRows(y, yM, idx)
		}})
	}

	ws := tensor.NewArena()
	run := func() {
		ws.Reset()
		switch {
		case derived:
			blk.ForwardMaskedDerivedWS(ws, x, cachedY, &given, nil, idx)
		case idx != nil:
			blk.ForwardMaskedWS(ws, x, cachedY, nil, idx)
		default:
			blk.ForwardWS(ws, x, nil, nil)
		}
	}
	return blockPlan{name, M, run, ops}
}

// blockBudgets times every plan's block and ops in the same interleaved
// rounds, so that the ops' medians add up to their block's and the variants
// of one mask size — K/V computed and K/V derived — are comparable with
// each other whatever the host did between two calls.
func blockBudgets(plans ...blockPlan) []Budget {
	var fns []func()
	for _, p := range plans {
		fns = append(fns, p.run)
		for _, o := range p.ops {
			fns = append(fns, o.fn)
		}
	}
	ns := medianRounds(fns...)
	var buds []Budget
	for _, p := range plans {
		whole, rest := ns[0], ns[0]
		bud := Budget{Block: p.name, MaskedTokens: p.m, BlockNs: int64(whole + 0.5)}
		for i, o := range p.ops {
			t := ns[i+1]
			rest -= t
			row := BudgetRow{Op: o.name, Shape: o.shape, FLOP: o.flop, Bytes: o.bytes,
				Ns: int64(t + 0.5), GBps: float64(o.bytes) / t, Pct: 100 * t / whole}
			if o.flop > 0 {
				row.GFLOPs = float64(o.flop) / t
			}
			bud.BlockGFLOPs += float64(o.flop) / whole
			bud.Rows = append(bud.Rows, row)
		}
		// Arena headers and call overhead — or, if negative, ops that
		// run faster back to back on a warm cache than inside the block.
		bud.Rows = append(bud.Rows, BudgetRow{Op: "(unattributed)", Ns: int64(rest), Pct: 100 * rest / whole})
		buds = append(buds, bud)
		ns = ns[1+len(p.ops):]
	}
	return buds
}

// attentionBudgets times the parts of the attention call at Lq 1, 2, 4, 7,
// 22 and 64 query rows against sd21-sim's 64 keys, each as the kernel runs
// it and one (head, row group) at a time, with the whole call in the same
// rounds. prior is the report this run overwrites: its attention entries are
// the per-head column's whole call.
func attentionBudgets(rng *tensor.RNG, cfg model.Config, prior []byte) []AttentionBudget {
	var parent struct {
		Entries []Entry `json:"entries"`
	}
	_ = json.Unmarshal(prior, &parent) // none, or unreadable: no per-head rest
	L, H := cfg.Tokens(), cfg.Hidden
	scale := float32(1 / math.Sqrt(float64(H/cfg.Heads)))
	var buds []AttentionBudget
	for _, lq := range []int{1, 2, 4, 7, 22, 64} {
		q, k, v := tensor.Randn(rng, lq, H, 1), tensor.Randn(rng, L, H, 1), tensor.Randn(rng, L, H, 1)
		dst, ws := tensor.New(lq, H), tensor.NewArena()
		keys := tensor.PackKeysInto(make([]float32, L*H), k, scale)
		parts := tensor.AttentionParts(dst, q, keys, v, cfg.Heads)
		fns := []func(){
			func() { ws.Reset(); tensor.FusedAttentionWS(ws, dst, q, k, v, cfg.Heads, scale) },
			func() { ws.Reset(); tensor.PackKeysInto(ws.GetRaw(L, H).Data, k, scale) },
		}
		for _, p := range parts {
			if p.Run != nil {
				fns = append(fns, p.Run)
			}
			fns = append(fns, p.PerHead)
		}
		ns := medianRounds(fns...)
		groups := float64((lq + 3) / 4)
		shape := fmt.Sprintf("Lq%d_Lk%d_H%d_h%d", lq, L, H, cfg.Heads)
		if lq == L {
			shape = fmt.Sprintf("L%d_H%d_h%d", L, H, cfg.Heads)
		}
		bud := AttentionBudget{Shape: shape, RowGroups: int(groups), CallNs: int64(ns[0] + 0.5)}
		pack := ns[1] / groups
		bud.Rows = append(bud.Rows, AttentionPartRow{"pack", pack, pack})
		parentCall := 0.0
		for _, e := range parent.Entries {
			if e.Op == "attention" && e.Shape == shape {
				parentCall = float64(e.After.NsPerOp) / groups
			}
		}
		rest, restPerHead := ns[0]/groups-pack, parentCall-pack
		ns = ns[2:]
		for _, p := range parts {
			row := AttentionPartRow{Part: p.Name}
			if p.Run != nil {
				row.Ns, ns = ns[0]/groups, ns[1:]
			}
			row.PerHeadNs, ns = ns[0]/groups, ns[1:]
			rest, restPerHead = rest-row.Ns, restPerHead-row.PerHeadNs
			bud.Rows = append(bud.Rows, row)
		}
		row := AttentionPartRow{Part: "rest", Ns: rest}
		if parentCall > 0 {
			row.PerHeadNs = restPerHead
		}
		bud.Rows = append(bud.Rows, row)
		buds = append(buds, bud)
	}
	return buds
}

// crossover times the masked block with K/V computed and with K/V derived
// at a sweep of mask sizes, in the same rounds: derived K/V removes work
// proportional to the unmasked tokens and adds an L×H copy, so it stops
// paying where almost every token is masked.
func crossover(rng *tensor.RNG, cfg model.Config) []CrossoverRow {
	L, H := cfg.Tokens(), cfg.Hidden
	blk := model.NewBlock(H, cfg.FFNMult, rng)
	blk.Heads = cfg.Heads
	x, cachedY := tensor.Randn(rng, L, H, 1), tensor.Randn(rng, L, H, 1)
	given := blk.DeriveKV(nil, x, nil)
	var rows []CrossoverRow
	for _, m := range []int{1, 2, 4, 7, 13, 22, 32, 48, 56, 60, 63} {
		idx := mask.Blob(tensor.NewRNG(uint64(m)), cfg.LatentH, cfg.LatentW, m).MaskedIndices()
		ws := tensor.NewArena()
		ns := medianRounds(
			func() { ws.Reset(); blk.ForwardMaskedWS(ws, x, cachedY, nil, idx) },
			func() { ws.Reset(); blk.ForwardMaskedDerivedWS(ws, x, cachedY, &given, nil, idx) })
		rows = append(rows, CrossoverRow{len(idx), int64(ns[0] + 0.5), int64(ns[1] + 0.5), ns[1] / ns[0]})
	}
	return rows
}

// derivation times model.Model.DeriveKV over one cached step and scales it
// to a template: every step, and when the model has them both guidance
// passes, the unconditional one with its first block.
func derivation(rng *tensor.RNG, cfg model.Config) Derivation {
	m := model.MustNew(cfg, 42)
	cached := &model.StepActivations{Blocks: make([]model.BlockActivations, cfg.NumBlocks)}
	for i := range cached.Blocks {
		cached.Blocks[i].Y = tensor.Randn(rng, cfg.Tokens(), cfg.Hidden, 1)
	}
	latent := tensor.Randn(rng, cfg.Tokens(), cfg.LatentChannels, 1)
	ws := tensor.NewArena()
	ns := medianRounds(
		func() { ws.Reset(); m.DeriveKV(ws, cached, nil, 0) },
		func() { ws.Reset(); m.DeriveKV(ws, cached, latent, 0) })
	steps := int64(cfg.Steps)
	d := Derivation{cfg.Name, steps * model.DerivedKVBytes(cached, false), steps * int64(ns[0]+0.5)}
	if cfg.GuidanceScale > 0 {
		d.Bytes += steps * model.DerivedKVBytes(cached, true)
		d.Ns += steps * int64(ns[1]+0.5)
	}
	return d
}

// scalingCell is one batch shape of batchScaling.
type scalingCell struct {
	row  ScalingRow
	reqs []diffusion.EditRequest
	reps int          // edits per timed sample
	ns   [2][]float64 // per member-step, per round: stacked, sequential
}

// batchScaling times the engine's step at 1/2/4/8 members × 2/7/22 masked
// tokens and a production mix, stacked and sequential, every cell and both
// variants in each of the interleaved rounds. Sessions are opened outside
// the timed region; a sample is whole edits, all their steps.
func batchScaling(cfg model.Config) ([]ScalingRow, error) {
	e, err := diffusion.NewEngine(cfg, 42)
	if err != nil {
		return nil, err
	}
	h, w := e.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	tpl, _, err := e.PrepareTemplate(7, img.SynthTemplate(7, h, w), "template", false)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(14)
	var cells []*scalingCell
	for _, tokens := range []int{2, 7, 22, 0} {
		for _, members := range []int{1, 2, 4, 8} {
			c := &scalingCell{row: ScalingRow{Members: members, MaskedTokens: tokens}}
			for k := 0; k < members; k++ {
				m := mask.Blob(rng, cfg.LatentH, cfg.LatentW, tokens)
				if tokens == 0 { // WithRatio masks at least one token
					m = mask.WithRatio(rng, cfg.LatentH, cfg.LatentW, workload.ProductionTrace.Sample(rng))
				}
				c.row.MeanTokens += float64(m.MaskedCount()) / float64(members)
				c.reqs = append(c.reqs, diffusion.EditRequest{Template: tpl, Mask: m,
					Prompt: fmt.Sprintf("edit %d", k), Seed: rng.Uint64(), Mode: diffusion.EditCachedY})
			}
			cells = append(cells, c)
		}
	}
	// run times reps edits of c's batch and returns ns per member-step.
	run := func(c *scalingCell, stacked bool) (float64, error) {
		var total time.Duration
		for r := 0; r < c.reps; r++ {
			var sessions []*diffusion.EditSession
			for _, req := range c.reqs {
				s, err := e.BeginEdit(req)
				if err != nil {
					return 0, err
				}
				sessions = append(sessions, s)
			}
			start := time.Now()
			for !sessions[0].Done() {
				if stacked {
					if errs := e.StepBatch(sessions); errs != nil {
						return 0, fmt.Errorf("batch step: %v", errs)
					}
					continue
				}
				for _, s := range sessions {
					if _, err := s.Step(); err != nil {
						return 0, err
					}
				}
			}
			total += time.Since(start)
		}
		return float64(total.Nanoseconds()) / float64(c.reps*len(c.reqs)*cfg.Steps), nil
	}
	for _, c := range cells {
		c.reps = 1
		ns, err := run(c, true) // warms the template's derived K/V and the arenas
		if err != nil {
			return nil, err
		}
		c.reps = max(1, int(float64(2*time.Millisecond)/(ns*float64(len(c.reqs)*cfg.Steps))))
	}
	for r := 0; r < rounds; r++ {
		for _, c := range cells {
			for v, stacked := range []bool{true, false} {
				ns, err := run(c, stacked)
				if err != nil {
					return nil, err
				}
				c.ns[v] = append(c.ns[v], ns)
			}
		}
	}
	var rows []ScalingRow
	for _, c := range cells {
		st, seq := median(c.ns[0]), median(c.ns[1])
		c.row.StackedUs, c.row.SequentialUs = st/1e3, seq/1e3
		c.row.StackedPerS, c.row.SequentialPerS = 1e9/st, 1e9/seq
		ratios := make([]float64, len(c.ns[0]))
		for r := range ratios {
			ratios[r] = c.ns[0][r] / c.ns[1][r]
		}
		c.row.Ratio = median(ratios)
		rows = append(rows, c.row)
	}
	return rows, nil
}

// fixedWork fits the per-lane cost law to the one-member rows of scaling
// and, when prior holds an earlier report with such rows, to its as the
// parent's.
func fixedWork(scaling []ScalingRow, prior []byte, cfg model.Config) FixedWork {
	lanes := 1.0
	if cfg.GuidanceScale > 0 {
		lanes = 2
	}
	// fit returns the one-member rows of rows at fixed mask sizes, per
	// lane-step, and the least-squares line through them.
	fit := func(rows []ScalingRow) (pts []FixedWorkRow, intercept, slope float64) {
		var n, sx, sy, sxx, sxy float64
		for _, r := range rows {
			if r.Members != 1 || r.MaskedTokens == 0 {
				continue
			}
			x, y := float64(r.MaskedTokens), r.StackedUs/lanes
			pts = append(pts, FixedWorkRow{MaskedTokens: r.MaskedTokens, Us: y})
			n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
		}
		if den := n*sxx - sx*sx; den != 0 {
			slope = (n*sxy - sx*sy) / den
			intercept = (sy - slope*sx) / n
		}
		return pts, intercept, slope
	}
	var fw FixedWork
	fw.Rows, fw.Intercept, fw.Slope = fit(scaling)
	var parent struct {
		Meta    benchfmt.Meta `json:"meta"`
		Scaling []ScalingRow  `json:"batch_scaling"`
	}
	if json.Unmarshal(prior, &parent) != nil {
		return fw
	}
	var pts []FixedWorkRow
	if pts, fw.ParentIntercept, fw.ParentSlope = fit(parent.Scaling); len(pts) > 0 {
		fw.ParentRev = parent.Meta.GitRevision
	}
	for i := range fw.Rows {
		for _, p := range pts {
			if p.MaskedTokens == fw.Rows[i].MaskedTokens {
				fw.Rows[i].ParentUs = p.Us
			}
		}
	}
	return fw
}

// leftoverTiles prices the remainder tiles of the token-wise GEMMs from the
// report's matmul rows: an M-row operand costs ⌊M/4⌋ full tiles (half the
// M = 8 row each) and, when M mod 4 ≠ 0, the M mod 4 row of the same shape.
func leftoverTiles(entries []Entry, cfg model.Config) []LeftoverRow {
	H, F := cfg.Hidden, cfg.Hidden*cfg.FFNMult
	at := func(m, k, n int) float64 {
		shape := fmt.Sprintf("%dx%dx%d", m, k, n)
		for _, e := range entries {
			if e.Op == "matmul" && e.Shape == shape {
				return float64(e.After.NsPerOp)
			}
		}
		panic("flashps-kernels: no matmul row " + shape)
	}
	var tile float64   // one full 4-row tile of all six GEMMs
	var rem [4]float64 // their remainder tiles of 1, 2, 3 rows
	for _, g := range []struct{ k, n, count int }{{H, H, 4}, {H, F, 1}, {F, H, 1}} {
		tile += float64(g.count) * at(8, g.k, g.n) / 2
		for r := 1; r <= 3; r++ {
			rem[r] += float64(g.count) * at(r, g.k, g.n)
		}
	}
	passes := 1
	if cfg.GuidanceScale > 0 {
		passes = 2
	}
	rng := tensor.NewRNG(15)
	var rows []LeftoverRow
	for _, members := range []int{1, 2, 4, 8} {
		var laneAll, laneRem, stackAll, stackRem, sumRows float64
		const batches = 4000
		for b := 0; b < batches; b++ {
			total := 0
			for k := 0; k < members; k++ {
				m := mask.WithRatio(rng, cfg.LatentH, cfg.LatentW, workload.ProductionTrace.Sample(rng)).MaskedCount()
				laneAll += float64(passes) * (float64(m/4)*tile + rem[m%4])
				laneRem += float64(passes) * rem[m%4]
				total += passes * m
			}
			stackAll += float64(total/4)*tile + rem[total%4]
			stackRem += rem[total%4]
			sumRows += float64(total)
		}
		rows = append(rows, LeftoverRow{Members: members, MeanRows: sumRows / batches,
			PerLaneShare: laneRem / laneAll, StackedShare: stackRem / stackAll, StackedOver: stackAll / laneAll})
	}
	return rows
}

// cappedRun runs this command again with the kernel level capped at avx2 —
// the level is fixed at process start — and returns its report. A child that
// wrote its report and then exited 1 (a par_check loss, printed on stderr)
// is reported as lost, with the report.
func cappedRun(par int) (rep *Report, lost bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	cmd := exec.Command(exe, "-par", fmt.Sprint(par), "-rounds", fmt.Sprint(rounds))
	cmd.Env = append(os.Environ(), "FLASHPS_KERNELS=avx2")
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	rep = new(Report)
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, false, fmt.Errorf("avx2-capped run: %v (%v)", err, runErr)
	}
	return rep, runErr != nil, nil
}

// keepCapped puts the avx2-capped run's figures beside this run's: every
// entry at both levels in level_check, each block's and op's time in
// block_budgets, the lone session's step and its cost law in lane_fixed_work.
func keepCapped(rep, capped *Report) error {
	if len(capped.Entries) != len(rep.Entries) || len(capped.Budgets) != len(rep.Budgets) ||
		len(capped.FixedWork.Rows) != len(rep.FixedWork.Rows) {
		return fmt.Errorf("avx2-capped run: %d entries, %d block budgets, %d fixed-work rows; this run has %d, %d, %d",
			len(capped.Entries), len(capped.Budgets), len(capped.FixedWork.Rows),
			len(rep.Entries), len(rep.Budgets), len(rep.FixedWork.Rows))
	}
	for i, e := range rep.Entries {
		c := capped.Entries[i]
		rep.LevelCheck = append(rep.LevelCheck, LevelRow{Op: e.Op, Shape: e.Shape, NsAVX2: c.After.NsPerOp, NsNative: e.After.NsPerOp,
			Ratio: float64(e.After.NsPerOp) / float64(c.After.NsPerOp)})
	}
	for i := range rep.Budgets {
		b, c := &rep.Budgets[i], capped.Budgets[i]
		if len(c.Rows) != len(b.Rows) {
			return fmt.Errorf("avx2-capped run: %d ops in block budget %s, this run has %d", len(c.Rows), b.Block, len(b.Rows))
		}
		b.BlockNsAVX2 = c.BlockNs
		for j := range b.Rows {
			b.Rows[j].NsAVX2 = c.Rows[j].Ns
		}
	}
	fw := &rep.FixedWork
	fw.AVX2Intercept, fw.AVX2Slope = capped.FixedWork.Intercept, capped.FixedWork.Slope
	for i := range fw.Rows {
		fw.Rows[i].AVX2Us = capped.FixedWork.Rows[i].Us
	}
	return nil
}

func main() {
	var (
		out = flag.String("o", "", "output file (default stdout)")
		par = flag.Int("par", runtime.GOMAXPROCS(0), "kernel worker parallelism (1 = serial)")
	)
	flag.IntVar(&rounds, "rounds", rounds, "interleaved timing rounds per comparison (median reported)")
	flag.Parse()
	tensor.SetParallelism(*par)

	rng := tensor.NewRNG(1)
	cfg := model.SD21Sim
	rep := Report{Meta: benchfmt.CollectMeta(), Parallelism: tensor.Parallelism()}
	rep.FMAPeak = fmaPeak(rep.Meta.Kernels)
	var cases []benchCase

	// GEMM at the flat SD21Sim backbone's attention-projection and FFN
	// shapes (L=64, H=64, 4H=256) and a larger square for headroom.
	for _, s := range []struct{ m, k, n int }{
		{64, 64, 64}, {64, 64, 256}, {256, 256, 256},
	} {
		a := tensor.Randn(rng, s.m, s.k, 1)
		b := tensor.Randn(rng, s.k, s.n, 1)
		dst := tensor.New(s.m, s.n)
		flop := 2 * int64(s.m) * int64(s.k) * int64(s.n)
		cases = append(cases, benchCase{
			"matmul", fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), flop,
			func() { tensor.MatMulNaiveInto(dst, a, b) },
			func() { tensor.MatMulInto(dst, a, b) },
		})
	}

	// Multi-head self-attention at the SD21Sim (L=64, H=64, 4 heads),
	// SDXLSim (L=144, H=96, 4 heads) and FluxSim (L=256, H=128, 8 heads)
	// shapes, then the masked-query shapes of an SD21Sim edit: Lq gathered
	// rows against all 64 keys, down to the 1–3 rows of a 3% mask, where a
	// cost that does not shrink with Lq would show. FLOP counts the two
	// GEMMs (QK^T and PV) per head: 4·Lq·Lk·H total. The kernel runs as in
	// the block, its packed K^T served by a warm arena.
	attnShapes := []struct{ lq, lk, h, heads int }{{64, 64, 64, 4}, {144, 144, 96, 4}, {256, 256, 128, 8}}
	for _, lq := range []int{1, 2, 3, 4, 7, 13, 22} {
		attnShapes = append(attnShapes, struct{ lq, lk, h, heads int }{lq, 64, 64, 4})
	}
	for _, s := range attnShapes {
		q := tensor.Randn(rng, s.lq, s.h, 1)
		k := tensor.Randn(rng, s.lk, s.h, 1)
		v := tensor.Randn(rng, s.lk, s.h, 1)
		dst := tensor.New(s.lq, s.h)
		ws := tensor.NewArena()
		scale := float32(1 / math.Sqrt(float64(s.h/s.heads)))
		shape := fmt.Sprintf("L%d_H%d_h%d", s.lk, s.h, s.heads)
		if s.lq != s.lk {
			shape = fmt.Sprintf("Lq%d_Lk%d_H%d_h%d", s.lq, s.lk, s.h, s.heads)
		}
		cases = append(cases, benchCase{
			"attention", shape, 4 * int64(s.lq) * int64(s.lk) * int64(s.h),
			func() { tensor.AttentionNaiveInto(dst, q, k, v, s.heads, scale) },
			func() {
				ws.Reset()
				tensor.FusedAttentionWS(ws, dst, q, k, v, s.heads, scale)
			},
		})
	}

	cases = append(cases, tokenwiseCases(rng, cfg)...)
	cases = append(cases, gemmCases(rng, cfg)...)

	// One full transformer block at SD21Sim scale: "before" is the exported
	// allocating entry point (heap matrices per call), "after" runs the
	// workspace path with a warm arena — the denoise hot loop's actual shape.
	blk := model.NewBlock(64, 4, tensor.NewRNG(2))
	blk.Heads = 4
	x := tensor.Randn(rng, 64, 64, 1)
	ws := tensor.NewArena()
	// Block FLOP ≈ QKV+out projections (8LH²) + attention (4L²H) + FFN (16LH²).
	cases = append(cases, benchCase{
		"block_forward", "L64_H64_h4", 24*int64(64)*64*64 + 4*64*64*64,
		func() { blk.Forward(x, nil, nil) },
		func() {
			ws.Reset()
			blk.ForwardWS(ws, x, nil, nil)
		},
	})

	for _, c := range cases {
		rep.Entries = append(rep.Entries, c.entry())
	}
	// The report this run overwrites is the parent's when the tree is clean.
	prior, _ := os.ReadFile(*out) // none, or unreadable: no parent column
	rep.Attention = attentionBudgets(rng, cfg, prior)

	// Where one block's time goes: mask-aware with 2, 7 and 22 of 64 tokens
	// (m = 0.03, 0.11, 0.34) in a contiguous blob, as production masks are,
	// with the unmasked tokens' K/V computed (block 0, or a template without
	// derived state) and derived (every other block); and full.
	for _, m := range []int{2, 7, 22} {
		idx := mask.Blob(tensor.NewRNG(7), cfg.LatentH, cfg.LatentW, m).MaskedIndices()
		rep.Budgets = append(rep.Budgets, blockBudgets(planBlock(rng, cfg, idx, false), planBlock(rng, cfg, idx, true))...)
	}
	rep.Budgets = append(rep.Budgets, blockBudgets(planBlock(rng, cfg, nil, false))...)
	if ceil := rep.FMAPeak.ceiling(rep.Meta.Kernels); ceil > 0 {
		for i, e := range rep.Entries {
			if e.Op == "matmul" {
				rep.Entries[i].PeakShare = e.After.GFLOPs / ceil
			}
		}
		for _, b := range rep.Budgets {
			for j, row := range b.Rows {
				b.Rows[j].PeakShare = row.GFLOPs / ceil
			}
		}
	}
	rep.Crossover = crossover(rng, cfg)
	rep.Derivation = derivation(rng, cfg)
	var err error
	if rep.Scaling, err = batchScaling(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "flashps-kernels: batch scaling: %v\n", err)
		os.Exit(1)
	}
	rep.FixedWork = fixedWork(rep.Scaling, prior, cfg)
	rep.Leftover = leftoverTiles(rep.Entries, cfg)

	// ROADMAP 2e: splitting a call across workers must never lose to
	// running it on the caller.
	var lost []string
	if runtime.GOMAXPROCS(0) > 1 {
		for _, c := range cases {
			row := c.parRow()
			// A loss must repeat: a neighbour's burst on one vCPU can cover
			// most of one case's rounds.
			for retry := 0; retry < 2 && row.Ratio > parSlack; retry++ {
				row = c.parRow()
			}
			rep.ParCheck = append(rep.ParCheck, row)
			if row.Ratio > parSlack {
				lost = append(lost, fmt.Sprintf("%s %s: %d ns at parallelism 2, %d ns at 1", row.Op, row.Shape, row.Ns2, row.Ns1))
			}
		}
	}

	// A level above avx2 is compared with avx2, which it must equal in bits
	// and not lose to in time.
	var lostLevel []string
	if tensor.HasAVX2() && rep.Meta.Kernels != "avx2" {
		capped, cappedLost, err := cappedRun(*par)
		if err == nil {
			err = keepCapped(&rep, capped)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "flashps-kernels: %v\n", err)
			os.Exit(1)
		}
		for _, row := range rep.LevelCheck {
			if row.Ratio > levelSlack {
				lostLevel = append(lostLevel, fmt.Sprintf("%s %s: %d ns at %s, %d ns at avx2", row.Op, row.Shape, row.NsNative, rep.Meta.Kernels, row.NsAVX2))
			}
		}
		if cappedLost {
			lostLevel = append(lostLevel, "the avx2-capped run reported a loss of its own (above)")
		}
	}

	if err := write(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "flashps-kernels: %v\n", err)
		os.Exit(1)
	}
	if len(lost) > 0 {
		fmt.Fprintf(os.Stderr, "flashps-kernels: slower at parallelism 2 than at 1 by more than %.0f%%:\n", 100*(parSlack-1))
		for _, l := range lost {
			fmt.Fprintln(os.Stderr, "  "+l)
		}
	}
	if len(lostLevel) > 0 {
		fmt.Fprintf(os.Stderr, "flashps-kernels: slower at the host's kernel level than capped at avx2 by more than %.0f%%:\n", 100*(levelSlack-1))
		for _, l := range lostLevel {
			fmt.Fprintln(os.Stderr, "  "+l)
		}
	}
	if len(lost)+len(lostLevel) > 0 {
		os.Exit(1)
	}
}

// write encodes rep to path, or to stdout when path is empty.
func write(path string, rep Report) error {
	w := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if path != "" {
		return w.Close()
	}
	return nil
}
