package model

import (
	"math"

	"flashps/internal/tensor"
)

// Block is a single pre-LayerNorm transformer block:
//
//	h = x + Attn(LN1(x))·WO
//	y = h + FFN(LN2(h))
//
// with multi-head scaled dot-product attention and a GeLU MLP, matching
// the operator inventory of the paper's Fig 5 (linear projections, QKᵀ,
// softmax, AV, feed-forward; LayerNorm/GeLU are token-wise).
//
// Every forward variant has a workspace-threaded *WS form that takes a
// *tensor.Arena and serves all intermediates (and the returned output)
// from it; the arena-less exported methods delegate with a nil arena and
// allocate as before. Arena-backed results are valid until the caller's
// next Arena.Reset — see the ownership rules on tensor.Arena.
type Block struct {
	Hidden int
	// Heads is the attention head count; 0 is treated as 1. Hidden must
	// be divisible by Heads.
	Heads int

	WQ, WK, WV, WO *tensor.Matrix // H×H projections
	W1             *tensor.Matrix // H×(FFNMult·H)
	W2             *tensor.Matrix // (FFNMult·H)×H

	LN1Gamma, LN1Beta []float32
	LN2Gamma, LN2Beta []float32

	// Cross-attention over prompt context tokens (nil when disabled).
	// Cross-attention is token-wise with respect to image tokens — each
	// image token attends to the P context tokens independently — so
	// mask-aware execution computes it for masked rows only.
	WQc, WKc, WVc, WOc *tensor.Matrix
	LNcGamma, LNcBeta  []float32
}

// AddCrossAttention equips the block with cross-attention weights drawn
// from rng (real SD/SDXL blocks interleave self-attention, cross-attention
// to the text encoder, and the FFN).
func (b *Block) AddCrossAttention(rng *tensor.RNG) {
	std := 1 / math.Sqrt(float64(b.Hidden))
	b.WQc = tensor.Randn(rng, b.Hidden, b.Hidden, std)
	b.WKc = tensor.Randn(rng, b.Hidden, b.Hidden, std)
	b.WVc = tensor.Randn(rng, b.Hidden, b.Hidden, std)
	b.WOc = tensor.Randn(rng, b.Hidden, b.Hidden, std*0.5)
	b.LNcGamma = ones(b.Hidden)
	b.LNcBeta = make([]float32, b.Hidden)
}

// crossAttend applies the cross-attention sublayer to rows h against the
// P×H context tokens ctx, adding Attn(LNc(h), ctx)·WOc into h in place and
// returning h. h must be owned by the caller (it never aliases a cached or
// input matrix on any forward path). It is a no-op when the block has no
// cross weights or ctx is nil.
func (b *Block) crossAttend(ws *tensor.Arena, h, ctx *tensor.Matrix) *tensor.Matrix {
	if b.WQc == nil || ctx == nil || ctx.R == 0 {
		return h
	}
	ln := ws.GetRaw(h.R, h.C)
	tensor.LayerNormRowsInto(ln, h, b.LNcGamma, b.LNcBeta, 1e-5)
	q := ws.GetRaw(h.R, b.Hidden)
	tensor.MatMulInto(q, ln, b.WQc)
	k := ws.GetRaw(ctx.R, b.Hidden)
	tensor.MatMulInto(k, ctx, b.WKc)
	v := ws.GetRaw(ctx.R, b.Hidden)
	tensor.MatMulInto(v, ctx, b.WVc)
	attn := b.attention(ws, q, k, v)
	proj := ws.GetRaw(h.R, b.Hidden)
	tensor.MatMulInto(proj, attn, b.WOc)
	tensor.AddInPlace(h, proj)
	return h
}

// heads returns the effective head count.
func (b *Block) heads() int {
	if b.Heads <= 0 {
		return 1
	}
	return b.Heads
}

// headDim returns the per-head dimension.
func (b *Block) headDim() int { return b.Hidden / b.heads() }

// attention computes multi-head scaled dot-product attention for query
// rows q over keys/values k, v (all …×H) and returns the q.R×H
// concatenated head outputs. Heads are strided views into q/k/v (zero
// copy) and the kernel runs an online softmax over K/V tiles, so the
// q.R×k.R score matrix is never materialized; its packed kᵀ comes from ws.
func (b *Block) attention(ws *tensor.Arena, q, k, v *tensor.Matrix) *tensor.Matrix {
	out := ws.GetRaw(q.R, b.Hidden)
	scale := float32(1 / math.Sqrt(float64(b.headDim())))
	tensor.FusedAttentionWS(ws, out, q, k, v, b.heads(), scale)
	return out
}

// sliceCols copies columns [start, start+n) of m into a new matrix.
// The hot attention path no longer slices heads; this remains for the
// Fig 6 analysis path (AttentionScores).
func sliceCols(m *tensor.Matrix, start, n int) *tensor.Matrix {
	out := tensor.New(m.R, n)
	for r := 0; r < m.R; r++ {
		copy(out.Row(r), m.Row(r)[start:start+n])
	}
	return out
}

// BlockActivations records the intermediate activations of one block
// forward pass that FlashPS may cache: the block output Y (the paper's
// primary cache target, Fig 5-Bottom) and the attention K/V matrices
// (the alternative cache target, Fig 7). The recorded matrices are always
// deep copies, never arena-backed.
type BlockActivations struct {
	Y    *tensor.Matrix // L×H block output
	K, V *tensor.Matrix // L×H attention keys/values (of LN1(x))
}

// NewBlock constructs a block with deterministic N(0, 1/√H) weights drawn
// from rng. Residual-friendly initialization keeps activations bounded
// across tens of blocks.
func NewBlock(hidden, ffnMult int, rng *tensor.RNG) *Block {
	std := 1 / math.Sqrt(float64(hidden))
	b := &Block{
		Hidden: hidden,
		WQ:     tensor.Randn(rng, hidden, hidden, std),
		WK:     tensor.Randn(rng, hidden, hidden, std),
		WV:     tensor.Randn(rng, hidden, hidden, std),
		WO:     tensor.Randn(rng, hidden, hidden, std*0.5),
		W1:     tensor.Randn(rng, hidden, hidden*ffnMult, std),
		W2:     tensor.Randn(rng, hidden*ffnMult, hidden, std*0.5/math.Sqrt(float64(ffnMult))),
	}
	b.LN1Gamma = ones(hidden)
	b.LN1Beta = make([]float32, hidden)
	b.LN2Gamma = ones(hidden)
	b.LN2Beta = make([]float32, hidden)
	return b
}

func ones(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// Forward runs the full-token forward pass (the paper's Fig 5-Top, used by
// mask-agnostic baselines and by blocks the bubble-free pipeline marks as
// compute-all). If rec is non-nil it is filled with cacheable activations.
func (b *Block) Forward(x, ctx *tensor.Matrix, rec *BlockActivations) *tensor.Matrix {
	return b.ForwardWS(nil, x, ctx, rec)
}

// ForwardWS is Forward with all intermediates and the returned output
// served from ws (nil ws allocates).
func (b *Block) ForwardWS(ws *tensor.Arena, x, ctx *tensor.Matrix, rec *BlockActivations) *tensor.Matrix {
	return b.forward(ws, nil, x, ctx, rec, true)
}

// outBuf returns the r×c buffer a forward variant writes its result into:
// dst when the caller supplied one (Model.ForwardStep ping-pongs two block
// outputs so that everything else a block takes from ws can be released at
// the block boundary), arena scratch otherwise. dst must not alias the
// block's input.
func outBuf(ws *tensor.Arena, dst *tensor.Matrix, r, c int) *tensor.Matrix {
	if dst != nil {
		return dst
	}
	return ws.GetRaw(r, c)
}

// forward is ForwardWS writing its result into dst (see outBuf) and
// recording K and V into rec only when recKV is set: a cache-Y template
// keeps Y alone, and copying two L×H matrices per block to drop them
// afterwards is most of a prepare's garbage.
func (b *Block) forward(ws *tensor.Arena, dst, x, ctx *tensor.Matrix, rec *BlockActivations, recKV bool) *tensor.Matrix {
	ln1 := ws.GetRaw(x.R, x.C)
	tensor.LayerNormRowsInto(ln1, x, b.LN1Gamma, b.LN1Beta, 1e-5)

	q := ws.GetRaw(x.R, b.Hidden)
	tensor.MatMulInto(q, ln1, b.WQ)
	k := ws.GetRaw(x.R, b.Hidden)
	tensor.MatMulInto(k, ln1, b.WK)
	v := ws.GetRaw(x.R, b.Hidden)
	tensor.MatMulInto(v, ln1, b.WV)

	attn := b.attention(ws, q, k, v)
	h := ws.GetRaw(x.R, b.Hidden)
	tensor.MatMulInto(h, attn, b.WO)
	tensor.AddInPlace(h, x)
	h = b.crossAttend(ws, h, ctx)

	y := b.ffn(ws, dst, h)

	if rec != nil {
		rec.Y = y.Clone()
		if recKV {
			rec.K = k.Clone()
			rec.V = v.Clone()
		}
	}
	return y
}

// ffn applies the LN2 + GeLU MLP sublayer: h + FFN(LN2(h)), written into
// dst (see outBuf).
func (b *Block) ffn(ws *tensor.Arena, dst, h *tensor.Matrix) *tensor.Matrix {
	ln2 := ws.GetRaw(h.R, h.C)
	tensor.LayerNormRowsInto(ln2, h, b.LN2Gamma, b.LN2Beta, 1e-5)
	ff := ws.GetRaw(h.R, b.W1.C)
	tensor.MatMulGeLUInto(ff, ln2, b.W1)
	y := outBuf(ws, dst, h.R, b.Hidden)
	tensor.MatMulInto(y, ff, b.W2)
	tensor.AddInPlace(y, h)
	return y
}

// AttentionScores returns the L×L attention matrix for x, averaged across
// heads, used by the Fig 6 attention-locality analysis (not a hot path; it
// materializes per-head scores by construction).
func (b *Block) AttentionScores(x *tensor.Matrix) *tensor.Matrix {
	ln1 := tensor.New(x.R, x.C)
	tensor.LayerNormRowsInto(ln1, x, b.LN1Gamma, b.LN1Beta, 1e-5)
	q := tensor.MatMul(ln1, b.WQ)
	k := tensor.MatMul(ln1, b.WK)
	h := b.heads()
	d := b.headDim()
	avg := tensor.New(x.R, x.R)
	scale := float32(1 / math.Sqrt(float64(d)))
	for head := 0; head < h; head++ {
		qh := sliceCols(q, head*d, d)
		kh := sliceCols(k, head*d, d)
		scores := tensor.MatMulT(qh, kh)
		tensor.Scale(scores, scale)
		tensor.SoftmaxRows(scores)
		tensor.AddInPlace(avg, scores)
	}
	tensor.Scale(avg, 1/float32(h))
	return avg
}

// ForwardMasked runs the paper's mask-aware forward pass (Fig 5-Bottom,
// cache-Y variant). x must be the full L×H input whose unmasked rows the
// caller has replenished from the previous block's cached output. cachedY
// is this block's cached full output from a prior full-computation run on
// the same template. Only masked-token rows are computed: Q is projected
// for masked rows only, K/V are projected over all rows (the cost the
// Fig 7 KV variant removes), attention and FFN run for masked rows only,
// and the returned Y has unmasked rows copied from cachedY.
func (b *Block) ForwardMasked(x, cachedY, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	return b.ForwardMaskedWS(nil, x, cachedY, ctx, maskedIdx)
}

// ForwardMaskedWS is ForwardMasked with intermediates served from ws.
func (b *Block) ForwardMaskedWS(ws *tensor.Arena, x, cachedY, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	return b.forwardMasked(ws, nil, x, cachedY, ctx, maskedIdx)
}

func (b *Block) forwardMasked(ws *tensor.Arena, dst, x, cachedY, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	if len(maskedIdx) == 0 {
		return copyInto(ws, dst, cachedY)
	}
	ln1 := ws.GetRaw(x.R, x.C)
	tensor.LayerNormRowsInto(ln1, x, b.LN1Gamma, b.LN1Beta, 1e-5)

	lnM := ws.GetRaw(len(maskedIdx), b.Hidden)
	tensor.GatherRowsInto(lnM, ln1, maskedIdx)
	q := ws.GetRaw(len(maskedIdx), b.Hidden) // m·L × H
	tensor.MatMulInto(q, lnM, b.WQ)
	k := ws.GetRaw(x.R, b.Hidden) // L × H (all tokens)
	tensor.MatMulInto(k, ln1, b.WK)
	v := ws.GetRaw(x.R, b.Hidden)
	tensor.MatMulInto(v, ln1, b.WV)

	xM := ws.GetRaw(len(maskedIdx), b.Hidden)
	tensor.GatherRowsInto(xM, x, maskedIdx)
	return b.finishMasked(ws, dst, xM, cachedY, ctx, maskedIdx, q, k, v)
}

// ForwardMaskedKV runs the mask-aware pass with the unmasked tokens' K and
// V given instead of recomputed: cachedK/cachedV are K and V of the block's
// input with its unmasked rows at their template values — recorded beside Y
// (the paper's Fig 7, at 3× the cache bytes) or derived once per template
// from the previous block's cached output (Model.DeriveKV). Only the masked
// rows of x are read: they are gathered first, LN1 and the Q/K/V projections
// run on those rows alone, and the fresh K/V rows are scattered into copies
// of the given matrices. LN1 and GEMM rows are independent (tensor's
// determinism contract), so the result is bit-identical to ForwardMasked on
// an x whose unmasked rows produced cachedK/cachedV.
func (b *Block) ForwardMaskedKV(x, cachedY, cachedK, cachedV, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	return b.ForwardMaskedKVWS(nil, x, cachedY, cachedK, cachedV, ctx, maskedIdx)
}

// ForwardMaskedKVWS is ForwardMaskedKV with intermediates served from ws.
func (b *Block) ForwardMaskedKVWS(ws *tensor.Arena, x, cachedY, cachedK, cachedV, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	return b.forwardMaskedKV(ws, nil, x, cachedY, cachedK, cachedV, ctx, maskedIdx)
}

func (b *Block) forwardMaskedKV(ws *tensor.Arena, dst, x, cachedY, cachedK, cachedV, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	if len(maskedIdx) == 0 {
		return copyInto(ws, dst, cachedY)
	}
	xM, q, kM, vM := b.maskedQKV(ws, x, maskedIdx)
	k := ws.Clone(cachedK)
	v := ws.Clone(cachedV)
	tensor.ScatterRows(k, kM, maskedIdx)
	tensor.ScatterRows(v, vM, maskedIdx)

	return b.finishMasked(ws, dst, xM, cachedY, ctx, maskedIdx, q, k, v)
}

// maskedQKV gathers the masked rows xM of x and projects Q, K and V from
// their LN1: m×H each.
func (b *Block) maskedQKV(ws *tensor.Arena, x *tensor.Matrix, maskedIdx []int) (xM, q, k, v *tensor.Matrix) {
	m := len(maskedIdx)
	xM = ws.GetRaw(m, b.Hidden)
	tensor.GatherRowsInto(xM, x, maskedIdx)
	lnM := ws.GetRaw(m, b.Hidden)
	tensor.LayerNormRowsInto(lnM, xM, b.LN1Gamma, b.LN1Beta, 1e-5)
	q, k, v = ws.GetRaw(m, b.Hidden), ws.GetRaw(m, b.Hidden), ws.GetRaw(m, b.Hidden)
	tensor.MatMulInto(q, lnM, b.WQ)
	tensor.MatMulInto(k, lnM, b.WK)
	tensor.MatMulInto(v, lnM, b.WV)
	return xM, q, k, v
}

// projectKV writes K and V of the full-token input x into k and v.
func (b *Block) projectKV(ws *tensor.Arena, x, k, v *tensor.Matrix) {
	ln1 := ws.GetRaw(x.R, x.C)
	tensor.LayerNormRowsInto(ln1, x, b.LN1Gamma, b.LN1Beta, 1e-5)
	tensor.MatMulInto(k, ln1, b.WK)
	tensor.MatMulInto(v, ln1, b.WV)
}

// copyInto copies m into dst (see outBuf).
func copyInto(ws *tensor.Arena, dst, m *tensor.Matrix) *tensor.Matrix {
	y := outBuf(ws, dst, m.R, m.C)
	copy(y.Data, m.Data)
	return y
}

// finishMasked completes a mask-aware pass given the masked rows xM of the
// input, their queries q and full-token k, v: masked rows attend over all
// tokens, then the output projection, residual, LN2 and FFN run on masked
// rows only, and the result is spliced into a copy of base — the block's
// cached output, or for the naive baseline its input.
func (b *Block) finishMasked(ws *tensor.Arena, dst, xM, base, ctx *tensor.Matrix, maskedIdx []int, q, k, v *tensor.Matrix) *tensor.Matrix {
	attn := b.attention(ws, q, k, v) // m·L × H
	h := ws.GetRaw(len(maskedIdx), b.Hidden)
	tensor.MatMulInto(h, attn, b.WO)
	tensor.AddInPlace(h, xM)
	h = b.crossAttend(ws, h, ctx)

	yM := b.ffn(ws, nil, h)

	y := copyInto(ws, dst, base)
	tensor.ScatterRows(y, yM, maskedIdx)
	return y
}

// ForwardNaiveSkip is the "naively disregarding unmasked regions" baseline
// from Fig 1 (rightmost image): masked tokens attend only to other masked
// tokens with no global context, and unmasked rows are passed through from
// the input unchanged. The paper shows this distorts the output; the
// quality experiments reproduce that gap.
func (b *Block) ForwardNaiveSkip(x, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	return b.ForwardNaiveSkipWS(nil, x, ctx, maskedIdx)
}

// ForwardNaiveSkipWS is ForwardNaiveSkip with intermediates served from ws.
func (b *Block) ForwardNaiveSkipWS(ws *tensor.Arena, x, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	return b.forwardNaiveSkip(ws, nil, x, ctx, maskedIdx)
}

func (b *Block) forwardNaiveSkip(ws *tensor.Arena, dst, x, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	if len(maskedIdx) == 0 {
		return copyInto(ws, dst, x)
	}
	// K and V of the masked tokens only: no global context.
	xM, q, k, v := b.maskedQKV(ws, x, maskedIdx)
	return b.finishMasked(ws, dst, xM, x, ctx, maskedIdx, q, k, v)
}
