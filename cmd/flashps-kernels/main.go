// Command flashps-kernels benchmarks the tensor hot-loop kernels against
// their pre-optimization reference implementations and writes a
// machine-readable report. The committed BENCH_kernels.json at the repo root
// is the evidence artifact for the kernel-optimization work; regenerate it
// with `make bench-kernels`.
//
// The report has two parts: before/after entries per kernel and shape, and
// a per-op budget of one transformer block (full, and mask-aware at
// m = 0.11) — FLOPs, computed bytes, ns and share of the block — which is
// the roofline ROADMAP item 2 asks for.
//
// Usage:
//
//	flashps-kernels                    # print JSON to stdout
//	flashps-kernels -o BENCH_kernels.json
//	flashps-kernels -par 1             # force serial kernels
//	flashps-kernels -test.benchtime 100ms   # quicker, noisier
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"flashps/internal/benchfmt"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/tensor"
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
	Note    string  `json:"note,omitempty"`
}

// BudgetRow is one op of a transformer block, timed on its own at the
// block's shapes. FLOP counts 2 per multiply-accumulate; Bytes is computed
// from the operand shapes (every input and output touched once), not
// measured. Pct is the op's share of the whole block's measured time; the
// "(unattributed)" row is what the separately timed ops do not add up to.
type BudgetRow struct {
	Op     string  `json:"op"`
	Shape  string  `json:"shape"`
	FLOP   int64   `json:"flop"`
	Bytes  int64   `json:"bytes"`
	Ns     int64   `json:"ns"`
	GFLOPs float64 `json:"gflops,omitempty"`
	GBps   float64 `json:"gb_s"`
	Pct    float64 `json:"pct_of_block"`
}

// Budget is the per-op table of one block execution.
type Budget struct {
	Block        string      `json:"block"`
	MaskedTokens int         `json:"masked_tokens"`
	BlockNs      int64       `json:"block_ns"`
	BlockGFLOPs  float64     `json:"block_gflops"`
	Rows         []BudgetRow `json:"rows"`
}

// Report is the top-level BENCH_kernels.json document.
type Report struct {
	Meta        benchfmt.Meta `json:"meta"`
	Parallelism int           `json:"parallelism"`
	Entries     []Entry       `json:"entries"`
	Budgets     []Budget      `json:"block_budgets"`
}

func measure(flop int64, fn func()) Side {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	s := Side{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp()}
	if s.NsPerOp > 0 && flop > 0 {
		s.GFLOPs = float64(flop) / float64(s.NsPerOp)
	}
	return s
}

func entry(op, shape string, flop int64, before, after func()) Entry {
	e := Entry{Op: op, Shape: shape, FLOP: flop,
		Before: measure(flop, before), After: measure(flop, after)}
	if e.After.NsPerOp > 0 {
		e.Speedup = float64(e.Before.NsPerOp) / float64(e.After.NsPerOp)
	}
	return e
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

// tokenwiseEntries benchmarks exp, GeLU, LayerNorm and softmax at the
// sd21-sim shapes. Every iteration restores its input first (both sides
// pay the same copy), so repeated in-place application cannot drift the
// values away from the activation range the step sees.
func tokenwiseEntries(rng *tensor.RNG, cfg model.Config) []Entry {
	L, H, F := cfg.Tokens(), cfg.Hidden, cfg.Hidden*cfg.FFNMult
	var out []Entry

	scores := tensor.Randn(rng, L, L, 2)
	shifted := scores.Clone()
	for i := range shifted.Data {
		shifted.Data[i] = -float32(math.Abs(float64(shifted.Data[i]))) // softmax arguments are ≤ 0
	}
	work := tensor.New(L, L)
	out = append(out, entry("exp", fmt.Sprintf("%d", L*L), 0,
		func() { copy(work.Data, shifted.Data); refExp(work.Data) },
		func() { copy(work.Data, shifted.Data); tensor.Exp(work.Data) }))
	out = append(out, entry("softmax", fmt.Sprintf("%dx%d", L, L), 0,
		func() { copy(work.Data, scores.Data); refSoftmaxRows(work) },
		func() { copy(work.Data, scores.Data); tensor.SoftmaxRows(work) }))

	pre := tensor.Randn(rng, L, F, 1)
	ff := tensor.New(L, F)
	out = append(out, entry("gelu", fmt.Sprintf("%dx%d", L, F), 0,
		func() { copy(ff.Data, pre.Data); refGeLU(ff.Data) },
		func() { copy(ff.Data, pre.Data); tensor.GeLU(ff) }))

	x := tensor.Randn(rng, L, H, 1)
	ln := tensor.New(L, H)
	gamma, beta := tensor.Randn(rng, 1, H, 1).Data, tensor.Randn(rng, 1, H, 1).Data
	out = append(out, entry("layernorm", fmt.Sprintf("%dx%d", L, H), 0,
		func() { refLayerNormRows(ln, x, gamma, beta, 1e-5) },
		func() { tensor.LayerNormRowsInto(ln, x, gamma, beta, 1e-5) }))
	return out
}

// gemmEntries benchmarks the masked-row GEMMs: M rows against the
// sd21-sim projection (H×H), FFN-up (H×4H) and FFN-down (4H×H) weights.
// M = 1, 2, 3 run wholly in the remainder micro-kernel; 5, 7, 13 mix it
// with full 4-row tiles; 8 and 64 are full tiles only.
func gemmEntries(rng *tensor.RNG, cfg model.Config) []Entry {
	H, F := cfg.Hidden, cfg.Hidden*cfg.FFNMult
	var out []Entry
	for _, w := range []struct{ k, n int }{{H, H}, {H, F}, {F, H}} {
		b := tensor.Randn(rng, w.k, w.n, 1)
		for _, m := range []int{1, 2, 3, 5, 7, 8, 13, 64} {
			a := tensor.Randn(rng, m, w.k, 1)
			dst := tensor.New(m, w.n)
			flop := 2 * int64(m) * int64(w.k) * int64(w.n)
			out = append(out, entry("matmul", fmt.Sprintf("%dx%dx%d", m, w.k, w.n), flop,
				func() { tensor.MatMulNaiveInto(dst, a, b) },
				func() { tensor.MatMulInto(dst, a, b) }))
		}
	}
	return out
}

// blockBudget times every op of one block on its own, at the shapes the
// block runs them with (M = len(idx) masked rows of L tokens; idx nil means
// the full-token block), and the whole block for the shares.
func blockBudget(rng *tensor.RNG, cfg model.Config, idx []int) Budget {
	L, H, F := cfg.Tokens(), cfg.Hidden, cfg.Hidden*cfg.FFNMult
	M, name := L, "full"
	if idx != nil {
		M, name = len(idx), "masked"
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
	tensor.FusedAttentionInto(attn, q, k, v, cfg.Heads, scale)
	tensor.MatMulInto(h, attn, blk.WO)
	tensor.AddInPlace(h, xM)
	tensor.LayerNormRowsInto(ln2, h, blk.LN2Gamma, blk.LN2Beta, 1e-5)
	tensor.MatMulGeLUInto(ff, ln2, blk.W1)

	type op struct {
		name, shape string
		flop, bytes int64
		fn          func()
	}
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
	ops := []op{
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
		op{"attention", fmt.Sprintf("Lq%d_Lk%d_H%d_h%d", M, L, H, cfg.Heads), 4 * int64(M) * int64(L) * int64(H),
			f4(2*M*H, 2*L*H), func() { tensor.FusedAttentionInto(attn, q, k, v, cfg.Heads, scale) }},
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
		if idx != nil {
			blk.ForwardMaskedWS(ws, x, cachedY, nil, idx)
		} else {
			blk.ForwardWS(ws, x, nil, nil)
		}
	}
	run() // size the arena
	var blockFLOP int64
	for _, o := range ops {
		blockFLOP += o.flop
	}
	whole := measure(blockFLOP, run)
	bud := Budget{Block: name, MaskedTokens: M, BlockNs: whole.NsPerOp, BlockGFLOPs: whole.GFLOPs}
	var sum int64
	for _, o := range ops {
		s := measure(o.flop, o.fn)
		sum += s.NsPerOp
		bud.Rows = append(bud.Rows, BudgetRow{Op: o.name, Shape: o.shape, FLOP: o.flop, Bytes: o.bytes,
			Ns: s.NsPerOp, GFLOPs: s.GFLOPs, GBps: float64(o.bytes) / float64(s.NsPerOp),
			Pct: 100 * float64(s.NsPerOp) / float64(whole.NsPerOp)})
	}
	// Arena Get/clear, headers and call overhead — or, if negative, ops that
	// run faster back to back on a warm cache than inside the block.
	rest := whole.NsPerOp - sum
	bud.Rows = append(bud.Rows, BudgetRow{Op: "(unattributed)", Ns: rest,
		Pct: 100 * float64(rest) / float64(whole.NsPerOp)})
	return bud
}

func main() {
	testing.Init() // registers -test.benchtime for quicker runs
	var (
		out = flag.String("o", "", "output file (default stdout)")
		par = flag.Int("par", runtime.GOMAXPROCS(0), "kernel worker parallelism (1 = serial)")
	)
	flag.Parse()
	tensor.SetParallelism(*par)

	rng := tensor.NewRNG(1)
	cfg := model.SD21Sim
	rep := Report{Meta: benchfmt.CollectMeta(), Parallelism: tensor.Parallelism()}

	// GEMM at the flat SD21Sim backbone's attention-projection and FFN
	// shapes (L=64, H=64, 4H=256) and a larger square for headroom.
	for _, s := range []struct{ m, k, n int }{
		{64, 64, 64}, {64, 64, 256}, {256, 256, 256},
	} {
		a := tensor.Randn(rng, s.m, s.k, 1)
		b := tensor.Randn(rng, s.k, s.n, 1)
		dst := tensor.New(s.m, s.n)
		flop := 2 * int64(s.m) * int64(s.k) * int64(s.n)
		rep.Entries = append(rep.Entries, entry(
			"matmul", fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), flop,
			func() { tensor.MatMulNaiveInto(dst, a, b) },
			func() { tensor.MatMulInto(dst, a, b) },
		))
	}

	// Multi-head attention at the SD21Sim (L=64, H=64, 4 heads) and
	// FluxSim (L=256, H=128, 8 heads) shapes. FLOP counts the two GEMMs
	// (QK^T and PV) per head: 4·L²·H total.
	for _, s := range []struct{ l, h, heads int }{
		{64, 64, 4}, {256, 128, 8},
	} {
		q := tensor.Randn(rng, s.l, s.h, 1)
		k := tensor.Randn(rng, s.l, s.h, 1)
		v := tensor.Randn(rng, s.l, s.h, 1)
		dst := tensor.New(s.l, s.h)
		scale := float32(1.0 / float64(s.h/s.heads))
		flop := 4 * int64(s.l) * int64(s.l) * int64(s.h)
		e := entry(
			"attention", fmt.Sprintf("L%d_H%d_h%d", s.l, s.h, s.heads), flop,
			func() { tensor.AttentionNaiveInto(dst, q, k, v, s.heads, scale) },
			func() { tensor.FusedAttentionInto(dst, q, k, v, s.heads, scale) },
		)
		if e.Speedup < 1.5 {
			e.Note = "fused does not beat naive by 1.5x at this shape (ROADMAP item 2: delete it next)"
		}
		rep.Entries = append(rep.Entries, e)
	}

	rep.Entries = append(rep.Entries, tokenwiseEntries(rng, cfg)...)
	rep.Entries = append(rep.Entries, gemmEntries(rng, cfg)...)

	// One full transformer block at SD21Sim scale: "before" is the exported
	// allocating entry point (heap matrices per call), "after" runs the
	// workspace path with a warm arena — the denoise hot loop's actual shape.
	blk := model.NewBlock(64, 4, tensor.NewRNG(2))
	blk.Heads = 4
	x := tensor.Randn(rng, 64, 64, 1)
	ws := tensor.NewArena()
	blk.ForwardWS(ws, x, nil, nil) // size the arena
	// Block FLOP ≈ QKV+out projections (8LH²) + attention (4L²H) + FFN (16LH²).
	blockFLOP := 24*int64(64)*64*64 + 4*64*64*64
	rep.Entries = append(rep.Entries, entry(
		"block_forward", "L64_H64_h4", blockFLOP,
		func() { blk.Forward(x, nil, nil) },
		func() {
			ws.Reset()
			blk.ForwardWS(ws, x, nil, nil)
		},
	))

	// Where one block's time goes: full, and mask-aware with 7 of 64
	// tokens (m = 0.11) in a contiguous blob, as production masks are.
	idx := mask.Blob(tensor.NewRNG(7), cfg.LatentH, cfg.LatentW, 7).MaskedIndices()
	rep.Budgets = []Budget{blockBudget(rng, cfg, idx), blockBudget(rng, cfg, nil)}

	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flashps-kernels: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "flashps-kernels: %v\n", err)
		os.Exit(1)
	}
}
