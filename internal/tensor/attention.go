package tensor

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// attnKTile is the key/value tile length of the attention kernel: a row
// group's scores for one tile live in a fixed buffer (16 KiB for attnHeads
// heads) and the running softmax statistics are rescaled at most once per
// tile. The three stand-in models' self-attention (Lk ≤ 256) is a single
// tile; longer key sequences stream through the same buffer.
const attnKTile = 256

// FusedAttentionWS computes multi-head scaled dot-product attention
//
//	dst[h] = softmax(q[h]·k[h]ᵀ · scale) · v[h]   per head h, concatenated,
//
// where q is Lq×H, k and v are Lk×H, dst is Lq×H, and head h occupies the
// column slice [h·d, (h+1)·d) with d = H/heads. When heads does not divide
// H the trailing H mod heads columns carry no head and are zeroed.
//
// The unit of the kernel is a row group of ≤ 4 query rows across a group of
// attnHeads heads and one key tile (attentionRange): the scores Q_h·K_hᵀ on
// the matmul micro-kernels (gemmTile) against scale·kᵀ, packed once per call
// into k.C × k.R floats of ws, land in one score buffer, which comes from ws
// as well (a nil ws allocates both); one online-softmax (FlashAttention-
// style) weight pass covers every head's rows; and P·V is accumulated
// straight into dst's head columns, every head in one micro-kernel call at
// avx512. Heads are strided views into q, v and dst (zero copy), and the
// Lq×Lk score matrix is never materialized.
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
	FusedAttentionPacked(ws, dst, q, PackKeysInto(ws.floats(k.R*k.C), k, scale), ValuesOf(v), heads)
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

// Matrix returns the pack's storage as the H×Lk matrix scale·kᵀ (aliased):
// its layout is the same at every kernel level.
func (p PackedKeys) Matrix() *Matrix { return FromSlice(p.H, p.Lk, p.kt) }

// PackedKeysOf is the pack whose storage is kt (Matrix), taken as it is.
func PackedKeysOf(kt *Matrix, scale float32) PackedKeys {
	return PackedKeys{Lk: kt.C, H: kt.R, Scale: scale, kt: kt.Data}
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

// FusedAttentionPacked is FusedAttentionWS over keys packed ahead of time
// and values that may take rows from elsewhere (Values.WithRows): the same
// kernel without its pack step, and the same bits as over the matrix keys
// was packed from and the matrix v stands for. Its scratch comes from ws.
func FusedAttentionPacked(ws *Arena, dst, q *Matrix, keys PackedKeys, v Values, heads int) {
	if heads < 1 {
		panic(fmt.Sprintf("tensor: FusedAttention invalid head count %d", heads))
	}
	if q.C != keys.H || keys.H != v.base.C || dst.C != q.C || dst.R != q.R || keys.Lk != v.base.R {
		panic(fmt.Sprintf("tensor: FusedAttention shape mismatch dst=%v q=%v k=%d×%d v=%v", dst, q, keys.Lk, keys.H, v.base))
	}
	if keys.Lk == 0 || q.C/heads == 0 || q.R == 0 {
		clear(dst.Data)
		return
	}
	flops := 4 * keys.Lk * keys.H // per query row: the score and the PV GEMM
	if !shouldParallelize(q.R, flops) {
		attentionRange(newAttnScratch(ws, v), dst, q, keys.kt, v, heads, 0, q.R)
		return
	}
	// One scratch per partition, each taken by the partition that starts.
	scr := make([]attnScratch, taskCount(q.R, flops))
	for i := range scr {
		scr[i] = newAttnScratch(ws, v)
	}
	var next atomic.Int32
	parallelRows(q.R, flops, func(lo, hi int) {
		attentionRange(scr[next.Add(1)-1], dst, q, keys.kt, v, heads, lo, hi)
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

// attnHeads is the head group of the kernel: the heads whose scores for one
// row group and key tile share the score buffer and one weight pass.
const attnHeads = 4

// attnLdp is the score buffer's stride between query rows: row r of head
// slot s of the group is at (r·attnHeads + s)·attnKTile, so that the rows of
// a row group's heads are consecutive for the weight pass, and a head's row
// r is PV_LDP bytes past its row r − 1 for the P·V kernels.
const attnLdp = attnHeads * attnKTile

// attnScratch is one attentionRange's working memory, taken from the
// caller's arena unzeroed: the score buffer and room for a key tile's runs
// of V, three ints each (vRun*).
type attnScratch struct {
	s    []float32
	runs []int
}

// newAttnScratch takes the scratch of a call over v from ws. A key tile of
// v has at most one run per key, and with m rows given apart at most
// 2m + 1.
func newAttnScratch(ws *Arena, v Values) attnScratch {
	runs := min(attnKTile, v.base.R, 2*len(v.idx)+1)
	return attnScratch{ws.floats(mcRows * attnLdp), ws.ints(vRunInts * runs)}
}

// attentionRange computes query rows [lo, hi) of every head against the
// packed keys kt and the values v. Head groups are the outer loop, so that
// the group's slice of kt and v stays cache-resident across the row groups.
// Per row group of ≤ mcRows query rows and key tile, every head of the
// group: the score GEMMs into one buffer; one weight pass over all their
// rows (softmaxWeights), after which the running sums, and any accumulator
// whose running max the tile raised, are rescaled; and P·V over the tile's
// runs of V (pvTile), the last tile's folding in 1/l. The row of a
// (query, head) gets the arithmetic, and the order, of one softmax over its
// scores followed by gemmTile's P·V and the division — whichever group,
// row group or source of V it falls in.
func attentionRange(scr attnScratch, dst, q *Matrix, kt []float32, v Values, heads, lo, hi int) {
	h, lk := q.C, v.base.R
	d := h / heads
	clear(dst.Data[lo*h : hi*h])
	sbuf := scr.s
	var mMax, mOld, lsum, tsum, inv [mcRows * attnHeads]float32
	var runs []int
	if lk <= attnKTile {
		runs = v.runs(scr.runs[:0], 0, lk)
	}
	for g := 0; g < heads; g += attnHeads {
		hg := min(attnHeads, heads-g)
		for i := lo; i < hi; i += mcRows {
			rows := min(mcRows, hi-i)
			for k := range mMax {
				mMax[k], lsum[k] = float32(math.Inf(-1)), 0
			}
			for j0 := 0; j0 < lk; j0 += attnKTile {
				nk := min(attnKTile, lk-j0)
				if lk > attnKTile {
					runs = v.runs(scr.runs[:0], j0, j0+nk)
				}
				for s := 0; s < hg; s++ {
					off := (g + s) * d
					gemmTile(d, q.Data[i*h+off:], h, kt[off*lk+j0:], lk, sbuf[s*attnKTile:], attnLdp, rows, nk, true)
				}
				mOld = mMax
				if hg == attnHeads {
					softmaxWeights(sbuf, attnKTile, nk, rows*attnHeads, mMax[:], tsum[:])
				} else {
					for r := 0; r < rows; r++ {
						k := r * attnHeads
						softmaxWeights(sbuf[k*attnKTile:], attnKTile, nk, hg, mMax[k:], tsum[k:])
					}
				}
				last := j0+nk == lk
				for r := 0; r < rows; r++ {
					for s := 0; s < hg; s++ {
						k := r*attnHeads + s
						if mMax[k] > mOld[k] && lsum[k] != 0 { // something accumulated under the old max
							corr := expf(mOld[k] - mMax[k])
							lsum[k] *= corr
							o := (i+r)*h + (g+s)*d
							scaleVec(dst.Data[o:o+d], corr)
						}
						// While every key so far is masked out, lsum and
						// the tile's sum are both +0.
						lsum[k] += tsum[k]
						// A zero denominator (every key masked out) leaves
						// the all-zero row: 1 multiplies nothing away.
						inv[k] = 1
						if last && lsum[k] != 0 {
							inv[k] = 1 / lsum[k]
						}
					}
				}
				pvTile(dst.Data[i*h:], h, sbuf, v, runs, rows, g, hg, d, &inv)
			}
		}
	}
}

// pvTile adds one key tile's P·V for a row group of rows query rows and the
// head group of hg heads from head g into c (row 0 of the group, column 0;
// rows h floats apart, as are V's), then multiplies each (query, head) row
// by its factor in inv (slot r·attnHeads + s). At avx512 pvHeads16 takes the
// group's (head, 16-column chunk) pairs four at a time; at avx2 pvEdge takes
// them one at a time; the portable level runs gemmTile, which accumulates in
// place, over each run in turn and then scaleVec.
func pvTile(c []float32, h int, sbuf []float32, v Values, runs []int, rows, g, hg, d int, inv *[mcRows * attnHeads]float32) {
	v0, v1 := &v.base.Data[0], &v.base.Data[0]
	if len(v.idx) > 0 {
		v1 = &v.rows.Data[0]
	}
	nruns := len(runs) / vRunInts
	switch {
	case level >= levelAVX512:
		var ch [pvChunks]pvChunk
		var iv [mcRows * pvChunks]float32
		n := 0
		for s := 0; s < hg; s++ {
			for c0 := 0; c0 < d; c0 += ncCols {
				ch[n] = pvChunk{p: &sbuf[s*attnKTile], col: 4 * ((g+s)*d + c0), mask: 1<<min(ncCols, d-c0) - 1}
				for r := 0; r < rows; r++ {
					iv[r*pvChunks+n] = inv[r*attnHeads+s]
				}
				if n++; n == pvChunks || s == hg-1 && c0+ncCols >= d {
					for ; n < pvChunks; n++ {
						ch[n] = pvChunk{p: ch[0].p}
					}
					pvHeads16(&runs[0], nruns, v0, v1, &ch, &c[0], h, rows, &iv)
					n = 0
				}
			}
		}
	case level >= levelAVX2:
		var iv [mcRows]float32
		for s := 0; s < hg; s++ {
			for r := 0; r < rows; r++ {
				iv[r] = inv[r*attnHeads+s]
			}
			for c0 := 0; c0 < d; c0 += ncCols {
				col := (g+s)*d + c0
				pvEdge(&runs[0], nruns, v0, v1, &sbuf[s*attnKTile], 4*col, &c[col], h, rows, &edgeMask[ncCols-min(ncCols, d-c0)], &iv[0])
			}
		}
	default:
		for s := 0; s < hg; s++ {
			col := (g + s) * d
			j := 0
			for k := 0; k < len(runs); k += vRunInts {
				src, n := v.base, runs[k+vRunN]
				if runs[k+vRunSrc] != 0 {
					src = v.rows
				}
				gemmTile(n, sbuf[s*attnKTile+j:], attnLdp, src.Data[runs[k+vRunRow]*h+col:], h, c[col:], h, rows, d, false)
				j += n
			}
			for r := 0; r < rows; r++ {
				scaleVec(c[r*h+col:r*h+col+d], inv[r*attnHeads+s])
			}
		}
	}
}

// A run of V is three ints: its source (0: the base matrix, 1: the rows
// given apart from it), the row of the source its first key is at, and its
// key count. The P·V kernels read them at byte offsets 0, 8 and 16.
const (
	vRunSrc = iota
	vRunRow
	vRunN
	vRunInts
)

// pvChunks is how many (head, chunk) pairs pvHeads16 accumulates at once:
// at 4 query rows their 16 accumulators fill half the ZMM registers.
const pvChunks = 4

// pvChunk is one (head, ≤ 16-column chunk) pair of a pvHeads16 call: the
// head's P row 0 in the score buffer, the chunk's first column in bytes and
// its live lanes (the kernel reads them at offsets 0, 8 and 16).
type pvChunk struct {
	p    *float32
	col  int
	mask int
}

// Values is attention's V operand, Lk rows of H: ValuesOf(v) is the matrix
// v, and WithRows takes some of its rows from elsewhere without copying.
type Values struct {
	base, rows *Matrix
	idx        []int
}

// ValuesOf returns v as attention's V operand.
func ValuesOf(v *Matrix) Values { return Values{base: v} }

// WithRows returns v, which must take no rows from elsewhere yet, with row
// idx[r] replaced by row r of rows: the V of ScatterRows into a copy of v,
// element for element, with no copy made. P·V then accumulates over runs of
// consecutive keys that share a source, in ascending key order, so that an
// output element has the chain it has over the copy. idx must be strictly
// ascending — the masked tokens in token order — and rows must be
// len(idx)×H; rows and v must not change while the result is in use.
func (v Values) WithRows(rows *Matrix, idx []int) Values {
	if rows.C != v.base.C || rows.R != len(idx) || v.rows != nil {
		panic(fmt.Sprintf("tensor: Values.WithRows shape mismatch values=%v rows=%v idx=%d", v.base, rows, len(idx)))
	}
	for r, j := range idx {
		if j < 0 || j >= v.base.R || r > 0 && j <= idx[r-1] {
			panic(fmt.Sprintf("tensor: Values.WithRows index %d at %d: want strictly ascending in [0,%d)", j, r, v.base.R))
		}
	}
	v.rows, v.idx = rows, idx
	return v
}

// runs appends the runs of keys [j0, j1) to buf, in ascending key order: a
// run is a maximal stretch of keys whose rows are consecutive rows of one
// source. A plain V is one run.
func (v Values) runs(buf []int, j0, j1 int) []int {
	r := sort.SearchInts(v.idx, j0)
	for j := j0; j < j1; {
		if r < len(v.idx) && v.idx[r] == j {
			n := 1
			for j+n < j1 && r+n < len(v.idx) && v.idx[r+n] == j+n {
				n++
			}
			buf = append(buf, 1, r, n)
			r, j = r+n, j+n
			continue
		}
		end := j1
		if r < len(v.idx) {
			end = min(end, v.idx[r])
		}
		buf = append(buf, 0, j, end-j)
		j = end
	}
	return buf
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
