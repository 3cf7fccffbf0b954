package tensor

import (
	"fmt"
	"math"
)

// attnKTile is the key/value tile length of the attention kernel: a row
// group's scores for one tile live in a fixed stack buffer (4 KiB) and the
// running softmax statistics are rescaled at most once per tile. The three
// stand-in models' self-attention (Lk ≤ 256) is a single tile; longer key
// sequences stream through the same buffer.
const attnKTile = 256

// FusedAttentionWS computes multi-head scaled dot-product attention
//
//	dst[h] = softmax(q[h]·k[h]ᵀ · scale) · v[h]   per head h, concatenated,
//
// where q is Lq×H, k and v are Lk×H, dst is Lq×H, and head h occupies the
// column slice [h·d, (h+1)·d) with d = H/heads. When heads does not divide
// H the trailing H mod heads columns carry no head and are zeroed.
//
// The kernel is two small GEMMs per (head, 4-query row group, key tile) on
// the matmul micro-kernels (gemmTile): the scores Q_h·K_hᵀ against scale·kᵀ,
// packed once per call into k.C × k.R floats of ws (a nil ws allocates
// them), and P·V_h accumulated straight into dst's head columns. Heads are
// strided views into q, v and dst (zero copy). Between the two an online
// softmax (FlashAttention-style) turns each score row into weights and
// rescales the row's accumulator when a tile raises its running max, so
// the Lq×Lk score matrix is never materialized.
//
// The masked-query paths (Block.ForwardMasked*) pass a q holding only the
// gathered masked rows (Lq < Lk); nothing in the kernel assumes Lq == Lk.
//
// dst is fully overwritten and must not alias q, k, or v. Determinism
// contract, as for GEMM (matmul.go): every score and every output element
// is one chain over its own q row, k and v, so results are bit-identical at
// any parallelism setting and a dst row depends only on its q row, k and v
// — alone, in any subset of rows, or in the full call it has the same bits
// (TestAttentionRowIndependent).
func FusedAttentionWS(ws *Arena, dst, q, k, v *Matrix, heads int, scale float32) {
	FusedAttentionPacked(dst, q, PackKeysInto(ws.floats(k.R*k.C), k, scale), v, heads)
}

// FusedAttentionInto is FusedAttentionWS with a heap-allocated pack.
func FusedAttentionInto(dst, q, k, v *Matrix, heads int, scale float32) {
	FusedAttentionWS(nil, dst, q, k, v, heads, scale)
}

// PackedKeys is an Lk×H key matrix in the form the attention kernel
// consumes: scale·kᵀ (packKT). Keys that many calls attend over — the K a
// template derives for its unmasked tokens — are packed once.
type PackedKeys struct {
	Lk, H int
	Scale float32
	kt    []float32
}

// PackKeysInto packs scale·kᵀ into buf (k.R·k.C floats), which the result
// keeps.
func PackKeysInto(buf []float32, k *Matrix, scale float32) PackedKeys {
	buf = buf[:k.R*k.C]
	packKT(buf, k, scale)
	return PackedKeys{Lk: k.R, H: k.C, Scale: scale, kt: buf}
}

// WithRows returns a copy of p, served from ws, in which key idx[r] is row r
// of kM: the pack of the key matrix with kM scattered into it (ScatterRows),
// element for element — an entry is its key's feature times the scale,
// wherever it was written from — without the transpose of the rows that stay.
func (p PackedKeys) WithRows(ws *Arena, kM *Matrix, idx []int) PackedKeys {
	if kM.C != p.H || kM.R != len(idx) {
		panic(fmt.Sprintf("tensor: PackedKeys.WithRows shape mismatch keys=%d×%d rows=%v idx=%d", p.Lk, p.H, kM, len(idx)))
	}
	kt := ws.floats(len(p.kt))
	copy(kt, p.kt)
	for r, j := range idx {
		for c, x := range kM.Row(r) {
			kt[c*p.Lk+j] = x * p.Scale
		}
	}
	p.kt = kt
	return p
}

// FusedAttentionPacked is FusedAttentionWS over keys packed ahead of time:
// the same kernel without its pack step, and the same bits as over the
// matrix keys was packed from.
func FusedAttentionPacked(dst, q *Matrix, keys PackedKeys, v *Matrix, heads int) {
	if heads < 1 {
		panic(fmt.Sprintf("tensor: FusedAttention invalid head count %d", heads))
	}
	if q.C != keys.H || keys.H != v.C || dst.C != q.C || dst.R != q.R || keys.Lk != v.R {
		panic(fmt.Sprintf("tensor: FusedAttention shape mismatch dst=%v q=%v k=%d×%d v=%v", dst, q, keys.Lk, keys.H, v))
	}
	if keys.Lk == 0 || q.C/heads == 0 || q.R == 0 {
		clear(dst.Data)
		return
	}
	flops := 4 * keys.Lk * keys.H // per query row: the score and the PV GEMM
	if !shouldParallelize(q.R, flops) {
		attentionRange(dst, q, keys.kt, v, heads, 0, q.R)
		return
	}
	parallelRows(q.R, flops, func(lo, hi int) {
		attentionRange(dst, q, keys.kt, v, heads, lo, hi)
	})
}

// packKT writes scale·kᵀ into kt (k.C rows of k.R): row c holds feature c
// of every key, so head h's keys are the contiguous rows [h·d, (h+1)·d) —
// the B operand of the score GEMM. Folding the scale in here costs one
// multiply per k element instead of one per score.
func packKT(kt []float32, k *Matrix, scale float32) {
	lk, h := k.R, k.C
	j8, c8 := 0, 0
	if level >= levelAVX2 && h >= 8 {
		j8, c8 = lk&^7, h&^7
		for j := 0; j < j8; j += 8 {
			transposeScaleAVX8(&k.Data[j*h], h, &kt[j], lk, c8, scale)
		}
	}
	for j := 0; j < lk; j++ {
		c := c8
		if j >= j8 {
			c = 0
		}
		for ; c < h; c++ {
			kt[c*lk+j] = k.Data[j*h+c] * scale
		}
	}
}

// attentionRange computes query rows [lo, hi) of every head against the
// packed keys kt. Heads are the outer loop so one head's slice of kt and v
// stays cache-resident across the row groups.
func attentionRange(dst, q *Matrix, kt []float32, v *Matrix, heads, lo, hi int) {
	h, lk := q.C, v.R
	d := h / heads
	clear(dst.Data[lo*h : hi*h])
	var sbuf [mcRows * attnKTile]float32
	var mMax, lsum [mcRows]float32
	for off := 0; off < heads*d; off += d {
		for i := lo; i < hi; i += mcRows {
			rows := min(mcRows, hi-i)
			for r := 0; r < rows; r++ {
				mMax[r], lsum[r] = float32(math.Inf(-1)), 0
			}
			for j0 := 0; j0 < lk; j0 += attnKTile {
				nk := min(attnKTile, lk-j0)
				gemmTile(d, q.Data[i*h+off:], h, kt[off*lk+j0:], lk, sbuf[:], attnKTile, rows, nk, true)
				for r := 0; r < rows; r++ {
					o := (i+r)*h + off
					softmaxTile(sbuf[r*attnKTile:r*attnKTile+nk], &mMax[r], &lsum[r], dst.Data[o:o+d])
				}
				gemmTile(nk, sbuf[:], attnKTile, v.Data[j0*h+off:], h, dst.Data[i*h+off:], h, rows, d, false)
			}
			for r := 0; r < rows; r++ {
				o := (i+r)*h + off
				normalizeSeg(dst.Data[o:o+d], lsum[r])
			}
		}
	}
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
		if *lsum != 0 { // something accumulated under the old max
			corr := expf(*mMax - tileMax)
			*lsum *= corr
			for t := range oseg {
				oseg[t] *= corr
			}
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
