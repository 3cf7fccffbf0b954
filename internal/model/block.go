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
	attn := ws.GetRaw(h.R, b.Hidden)
	b.attention(ws, attn, q, k, v)
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
// rows q over keys/values k, v (all …×H) and writes the q.R×H concatenated
// head outputs into dst. Heads are strided views into q/k/v (zero copy) and
// the kernel runs an online softmax over K/V tiles, so the q.R×k.R score
// matrix is never materialized; its packed kᵀ comes from ws.
func (b *Block) attention(ws *tensor.Arena, dst, q, k, v *tensor.Matrix) {
	tensor.FusedAttentionWS(ws, dst, q, k, v, b.heads(), b.attnScale())
}

// attnScale is the 1/√d every attention score is scaled by.
func (b *Block) attnScale() float32 { return float32(1 / math.Sqrt(float64(b.headDim()))) }

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
// dst when the caller supplied one (Model.ForwardLanes ping-pongs two
// buffers per lane so that everything else a block takes from ws can be
// released at the block boundary), arena scratch otherwise. dst must not
// alias the block's input.
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

	attn := ws.GetRaw(x.R, b.Hidden)
	b.attention(ws, attn, q, k, v)
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
	return b.forwardLane(ws, nil, x, cachedY, &[1]Lane{{StepOptions: StepOptions{MaskedIdx: maskedIdx}, ctx: ctx, kvX: x}})
}

// forwardLane is the stacked masked computation for one lane on its own:
// gather the lane's masked rows of x, run forwardRows on them, and splice
// the result into a copy of base — the block's cached output, or for the
// naive baseline its input — written into dst (see outBuf).
func (b *Block) forwardLane(ws *tensor.Arena, dst, x, base *tensor.Matrix, lane *[1]Lane) *tensor.Matrix {
	l := &lane[0]
	m := len(l.MaskedIdx)
	if m == 0 {
		return copyInto(ws, dst, base)
	}
	xM, yM := ws.GetRaw(m, b.Hidden), ws.GetRaw(m, b.Hidden)
	tensor.GatherRowsInto(xM, x, l.MaskedIdx)
	l.lo, l.hi, l.active = 0, m, true
	b.forwardRows(ws, yM, xM, lane[:])
	y := copyInto(ws, dst, base)
	tensor.ScatterRows(y, yM, l.MaskedIdx)
	return y
}

// forwardRows runs the mask-aware computation (Fig 5-Bottom) on the stacked
// masked rows of a run of lanes: xS holds lane l's input at its masked
// tokens, in MaskedIdx order, at rows [l.lo, l.hi), and yS receives the
// block's output for the same rows. Every lane of the run is active or has
// no rows, so the run's rows are contiguous.
//
// The token-wise operations — LN1, the Q/K/V projections of the masked rows,
// the output projection and residual, LN2 and the FFN — run once over all
// the run's rows, whichever lane they belong to: the weights are shared and
// GEMM and LayerNorm rows are independent (tensor's determinism contract),
// so a row has the bits it would have in an operand of its own, and a 4-row
// GEMM tile is filled by whoever's rows come next. What mixes tokens stays
// per lane: each lane's masked rows attend over that lane's K and V of all
// tokens — projected from all rows of its input (kvX); or the given K/V of
// its unmasked tokens with the masked rows' fresh ones in their place; or,
// for the naive baseline, the masked rows' own K/V and nothing else. Given V
// is not copied: attention takes the masked keys' rows from the fresh ones
// and the rest from the given V where they stand (tensor.Values.WithRows,
// which needs MaskedIdx ascending — checkLane sees to it). Given K is
// copied and the fresh rows written into the copy. K derived once per
// template (Model.DeriveKV) is already the pack attention consumes, so the
// copy is attended over as it stands (tensor.PackedKeys.WithRows); K
// recorded beside Y (the paper's Fig 7) is a plain matrix, packed per call
// after the scatter — the same bits, and the reference the packed path is
// tested against.
func (b *Block) forwardRows(ws *tensor.Arena, yS, xS *tensor.Matrix, lanes []Lane) {
	lo, hi := lanes[0].lo, lanes[len(lanes)-1].hi
	n := hi - lo
	x := rowsOf(ws, xS, lo, hi)
	ln := ws.GetRaw(n, b.Hidden)
	tensor.LayerNormRowsInto(ln, x, b.LN1Gamma, b.LN1Beta, 1e-5)
	q := ws.GetRaw(n, b.Hidden)
	tensor.MatMulInto(q, ln, b.WQ)
	// K and V of the masked rows, over each stretch of lanes that do not
	// project theirs with all the other rows of their input.
	kM, vM := ws.GetRaw(n, b.Hidden), ws.GetRaw(n, b.Hidden)
	for i := 0; i < len(lanes); {
		if !lanes[i].active || lanes[i].kvX != nil {
			i++
			continue
		}
		j := i + 1
		for j < len(lanes) && lanes[j].kvX == nil {
			j++
		}
		rlo, rhi := lanes[i].lo-lo, lanes[j-1].hi-lo
		lnR := rowsOf(ws, ln, rlo, rhi)
		tensor.MatMulInto(rowsOf(ws, kM, rlo, rhi), lnR, b.WK)
		tensor.MatMulInto(rowsOf(ws, vM, rlo, rhi), lnR, b.WV)
		i = j
	}

	attn := ws.GetRaw(n, b.Hidden)
	for i := range lanes {
		l := &lanes[i]
		if !l.active {
			continue
		}
		llo, lhi := l.lo-lo, l.hi-lo
		mark := ws.Mark()
		k, v := rowsOf(ws, kM, llo, lhi), rowsOf(ws, vM, llo, lhi)
		if l.kvX != nil {
			k, v = ws.GetRaw(l.kvX.R, b.Hidden), ws.GetRaw(l.kvX.R, b.Hidden)
			b.projectKV(ws, l.kvX, k, v)
		}
		vals := tensor.ValuesOf(v)
		if l.v != nil {
			vals = tensor.ValuesOf(l.v).WithRows(v, l.MaskedIdx)
			if l.kp == nil {
				kL := ws.Clone(l.k)
				tensor.ScatterRows(kL, k, l.MaskedIdx)
				k = kL
			}
		}
		var keys tensor.PackedKeys
		if l.kp != nil {
			keys = l.kp.WithRows(ws, k, l.MaskedIdx)
		} else {
			keys = tensor.PackKeysInto(ws.GetRaw(k.R, k.C).Data, k, b.attnScale())
		}
		tensor.FusedAttentionPacked(ws, rowsOf(ws, attn, llo, lhi), rowsOf(ws, q, llo, lhi), keys, vals, b.heads())
		ws.Release(mark)
	}

	h := ws.GetRaw(n, b.Hidden)
	tensor.MatMulInto(h, attn, b.WO)
	tensor.AddInPlace(h, x)
	for i := range lanes {
		if l := &lanes[i]; l.active {
			b.crossAttend(ws, rowsOf(ws, h, l.lo-lo, l.hi-lo), l.ctx)
		}
	}
	b.ffn(ws, rowsOf(ws, yS, lo, hi), h)
}

// rowsOf returns rows [lo, hi) of m as a matrix over the same storage.
func rowsOf(ws *tensor.Arena, m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	return ws.Wrap(hi-lo, m.C, m.Data[lo*m.C:hi*m.C])
}

// projectKV writes K and V of the full-token input x into k and v.
func (b *Block) projectKV(ws *tensor.Arena, x, k, v *tensor.Matrix) {
	ln1 := ws.GetRaw(x.R, x.C)
	tensor.LayerNormRowsInto(ln1, x, b.LN1Gamma, b.LN1Beta, 1e-5)
	tensor.MatMulInto(k, ln1, b.WK)
	tensor.MatMulInto(v, ln1, b.WV)
}

// DeriveKV returns K, packed as attention consumes it, and V of the block's
// input x, in buf (2·len(x.Data) floats, which the result keeps; nil
// allocates them). With every row of x at its template value the result
// stands in for projectKV over all rows in every edit of the template
// (Model.DeriveKV).
func (b *Block) DeriveKV(ws *tensor.Arena, x *tensor.Matrix, buf []float32) DerivedBlock {
	n := len(x.Data)
	if buf == nil {
		buf = make([]float32, 2*n)
	}
	k, v := ws.GetRaw(x.R, x.C), tensor.FromSlice(x.R, x.C, buf[n:2*n:2*n])
	b.projectKV(ws, x, k, v)
	return DerivedBlock{K: tensor.PackKeysInto(buf[:n:n], k, b.attnScale()), V: v}
}

// ForwardMaskedDerivedWS runs the mask-aware pass with the unmasked
// tokens' K and V given instead of recomputed: d holds K (packed, so not
// packed again) and V of the block's input with its unmasked rows at their
// template values, derived once per template from the previous block's
// cached output (DeriveKV). Only the masked rows of x are read: they are
// gathered first, LN1 and the Q/K/V projections run on those rows alone,
// the fresh K rows are written into a copy of d's pack and attention takes
// the fresh V rows beside d's (maskedIdx must be ascending). LN1 and GEMM
// rows are independent (tensor's determinism contract), so the result is
// bit-identical to ForwardMaskedWS on an x whose unmasked rows produced d.
func (b *Block) ForwardMaskedDerivedWS(ws *tensor.Arena, x, cachedY *tensor.Matrix, d *DerivedBlock, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	return b.forwardLane(ws, nil, x, cachedY, &[1]Lane{{StepOptions: StepOptions{MaskedIdx: maskedIdx}, ctx: ctx, kp: &d.K, v: d.V}})
}

// copyInto copies m into dst (see outBuf).
func copyInto(ws *tensor.Arena, dst, m *tensor.Matrix) *tensor.Matrix {
	y := outBuf(ws, dst, m.R, m.C)
	copy(y.Data, m.Data)
	return y
}

// ForwardNaiveSkipWS is the "naively disregarding unmasked regions" baseline
// from Fig 1 (rightmost image): masked tokens attend only to other masked
// tokens with no global context, and unmasked rows are passed through from
// the input unchanged. The paper shows this distorts the output; the
// quality experiments reproduce that gap. Intermediates are served from ws.
func (b *Block) ForwardNaiveSkipWS(ws *tensor.Arena, x, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	return b.forwardNaiveSkip(ws, nil, x, ctx, maskedIdx)
}

func (b *Block) forwardNaiveSkip(ws *tensor.Arena, dst, x, ctx *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	// K and V of the masked tokens only: no global context.
	return b.forwardLane(ws, dst, x, x, &[1]Lane{{StepOptions: StepOptions{MaskedIdx: maskedIdx}, ctx: ctx}})
}
