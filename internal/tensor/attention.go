package tensor

import (
	"fmt"
	"math"
)

// attnKTile is the key/value tile length of the fused attention kernel: a
// tile of scores lives in a fixed stack buffer and the running softmax
// statistics are rescaled at most once per tile.
const attnKTile = 64

// FusedAttentionInto computes multi-head scaled dot-product attention
//
//	dst[h] = softmax(q[h]·k[h]ᵀ · scale) · v[h]   per head h, concatenated,
//
// where q is Lq×H, k and v are Lk×H, dst is Lq×H, and head h occupies the
// column slice [h·d, (h+1)·d) with d = H/heads. Heads are addressed as
// strided views into the full matrices, so per-head slicing is zero-copy,
// and the kernel streams over K/V tiles with an online softmax
// (FlashAttention-style), so the Lq×Lk score matrix is never materialized.
// When heads does not divide H the trailing H mod heads columns carry no
// head and are zeroed.
//
// The masked-query paths (Block.ForwardMasked*) pass a q holding only the
// gathered masked rows (Lq < Lk); nothing in the kernel assumes Lq == Lk.
//
// dst is fully overwritten and must not alias q, k, or v. Each output row
// is produced by a single deterministic pass, so results are bit-identical
// at any parallelism setting.
func FusedAttentionInto(dst, q, k, v *Matrix, heads int, scale float32) {
	if heads < 1 {
		panic(fmt.Sprintf("tensor: FusedAttentionInto invalid head count %d", heads))
	}
	if q.C != k.C || k.C != v.C || dst.C != q.C || dst.R != q.R || k.R != v.R {
		panic(fmt.Sprintf("tensor: FusedAttentionInto shape mismatch dst=%v q=%v k=%v v=%v", dst, q, k, v))
	}
	if k.R == 0 || q.C/heads == 0 {
		for i := 0; i < dst.R; i++ {
			clear(dst.Row(i))
		}
		return
	}
	if !shouldParallelize(q.R) {
		fusedAttentionRange(dst, q, k, v, heads, scale, 0, q.R)
		return
	}
	parallelRows(q.R, func(lo, hi int) {
		fusedAttentionRange(dst, q, k, v, heads, scale, lo, hi)
	})
}

// maxAttnHeads bounds the head count of the vectorized attention path so
// its per-tile score buffer can live on the stack.
const maxAttnHeads = 16

// fusedAttentionRange computes query rows [lo, hi) of all heads, picking
// the vectorized path when the head dimension is a multiple of the AVX2
// vector width. The choice depends only on the shape — never on the
// parallelism setting — so results stay bit-identical at any parallelism.
func fusedAttentionRange(dst, q, k, v *Matrix, heads int, scale float32, lo, hi int) {
	if d := q.C / heads; useAVX2 && d >= 8 && d%8 == 0 && heads <= maxAttnHeads {
		fusedAttentionRangeAVX(dst, q, k, v, heads, scale, lo, hi)
		return
	}
	fusedAttentionRangeGeneric(dst, q, k, v, heads, scale, lo, hi)
}

// softmaxTile folds one K/V tile's scaled scores s for one (query, head)
// into the running online-softmax state: when the tile raises the running
// max *mMax, the denominator *lsum and the output accumulator oseg are
// rescaled by exp(m_old − m_new); then s is replaced by the tile's weights
// exp(s − m) and their sum joins *lsum. While every key seen so far is
// masked out (all scores -Inf) the weights are defined as 0, not
// exp(-Inf − -Inf) = NaN.
func softmaxTile(s []float32, mMax, lsum *float32, oseg []float32) {
	if tileMax := maxOf(s); tileMax > *mMax {
		corr := expf(*mMax - tileMax)
		*lsum *= corr
		for t := range oseg {
			oseg[t] *= corr
		}
		*mMax = tileMax
	}
	if math.IsInf(float64(*mMax), -1) {
		clear(s)
		return
	}
	*lsum += expShiftSum(s, *mMax)
}

// normalizeSeg divides an output accumulator by its softmax denominator;
// a zero denominator (every key masked out) leaves the all-zero row.
func normalizeSeg(oseg []float32, lsum float32) {
	if lsum == 0 {
		return
	}
	inv := 1 / lsum
	for t := range oseg {
		oseg[t] *= inv
	}
}

// fusedAttentionRangeAVX is the vectorized streaming-softmax kernel. Per
// (query, key) pair it computes every head's scaled score with one
// segmented-dot call over the contiguous hidden rows, and accumulates every
// head's output segment with one segmented-axpy call, so the strided
// per-head views never materialize. A tile's scores are stored head-major
// (head h's scores for the tile's keys are contiguous), which lets
// softmaxTile run the vector max and exp passes over them.
func fusedAttentionRangeAVX(dst, q, k, v *Matrix, heads int, scale float32, lo, hi int) {
	h := q.C
	d := h / heads
	lk := k.R
	var sbuf [maxAttnHeads * attnKTile]float32
	var mMax, lsum [maxAttnHeads]float32
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*h : (i+1)*h]
		clear(drow)
		qrow := q.Data[i*h : (i+1)*h]
		for head := 0; head < heads; head++ {
			mMax[head] = float32(math.Inf(-1))
			lsum[head] = 0
		}
		for j0 := 0; j0 < lk; j0 += attnKTile {
			nk := min(attnKTile, lk-j0)
			for t := 0; t < nk; t++ {
				segDotAVX8(&qrow[0], &k.Data[(j0+t)*h], d, heads, &sbuf[t], attnKTile, scale)
			}
			for head := 0; head < heads; head++ {
				softmaxTile(sbuf[head*attnKTile:head*attnKTile+nk], &mMax[head], &lsum[head], drow[head*d:head*d+d])
			}
			for t := 0; t < nk; t++ {
				segAxpyAVX8(&sbuf[t], attnKTile, &v.Data[(j0+t)*h], &drow[0], d, heads)
			}
		}
		for head := 0; head < heads; head++ {
			normalizeSeg(drow[head*d:head*d+d], lsum[head])
		}
	}
}

// fusedAttentionRangeGeneric is the portable scalar kernel; it also covers
// head dimensions that are not a multiple of the vector width. Each
// (row, head) output segment doubles as the running FlashAttention
// accumulator (see softmaxTile).
func fusedAttentionRangeGeneric(dst, q, k, v *Matrix, heads int, scale float32, lo, hi int) {
	h := q.C
	d := h / heads
	lk := k.R
	var sbuf [attnKTile]float32
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*h : (i+1)*h]
		clear(drow)
		qrow := q.Data[i*h : (i+1)*h]
		for head := 0; head < heads; head++ {
			off := head * d
			qseg := qrow[off : off+d]
			oseg := drow[off : off+d]
			mMax := float32(math.Inf(-1))
			var lsum float32
			for j0 := 0; j0 < lk; j0 += attnKTile {
				s := sbuf[:min(attnKTile, lk-j0)]
				for t := range s {
					s[t] = dot(qseg, k.Data[(j0+t)*h+off:(j0+t)*h+off+d]) * scale
				}
				softmaxTile(s, &mMax, &lsum, oseg)
				for t, w := range s {
					vseg := v.Data[(j0+t)*h+off : (j0+t)*h+off+d]
					eseg := oseg[:len(vseg)]
					for c, vv := range vseg {
						eseg[c] += w * vv
					}
				}
			}
			normalizeSeg(oseg, lsum)
		}
	}
}

// AttentionNaiveInto is the reference multi-head attention: it copies each
// head's columns, materializes the full Lq×Lk score matrix, applies
// SoftmaxRows and multiplies by V. It is kept (allocating, unfused) as the
// ground truth for the fused kernel's property tests and as the "before"
// side of the kernel benchmarks.
func AttentionNaiveInto(dst, q, k, v *Matrix, heads int, scale float32) {
	if heads < 1 {
		panic(fmt.Sprintf("tensor: AttentionNaiveInto invalid head count %d", heads))
	}
	if q.C != k.C || k.C != v.C || dst.C != q.C || dst.R != q.R || k.R != v.R {
		panic(fmt.Sprintf("tensor: AttentionNaiveInto shape mismatch dst=%v q=%v k=%v v=%v", dst, q, k, v))
	}
	for i := 0; i < dst.R; i++ {
		clear(dst.Row(i))
	}
	d := q.C / heads
	if k.R == 0 || d == 0 {
		return
	}
	copyCols := func(m *Matrix, start int) *Matrix {
		out := New(m.R, d)
		for r := 0; r < m.R; r++ {
			copy(out.Row(r), m.Row(r)[start:start+d])
		}
		return out
	}
	for head := 0; head < heads; head++ {
		off := head * d
		qh := copyCols(q, off)
		kh := copyCols(k, off)
		vh := copyCols(v, off)
		scores := MatMulT(qh, kh)
		Scale(scores, scale)
		SoftmaxRows(scores)
		oh := MatMul(scores, vh)
		for r := 0; r < dst.R; r++ {
			copy(dst.Row(r)[off:off+d], oh.Row(r))
		}
	}
}
