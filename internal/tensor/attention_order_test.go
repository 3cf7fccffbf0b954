package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The attention kernel as it ran one (head, row group) at a time, over a V
// matrix — kept as the oracle of the order the row-group kernel must keep:
// the same scores, the same weight pass and sum per (query, head), the same
// rescale, the same P·V chain and the same division, bit for bit at every
// kernel level.

// attentionPerHead computes query rows [lo, hi) of every head against the
// packed keys kt, one head at a time.
func attentionPerHead(dst, q *Matrix, kt []float32, v *Matrix, heads, lo, hi int) {
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
// masked out the weights are 0.
func softmaxTile(s []float32, mMax, lsum *float32, oseg []float32) {
	if tileMax := maxOf(s); tileMax > *mMax {
		if *lsum != 0 {
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
// a zero denominator leaves the all-zero row.
func normalizeSeg(oseg []float32, lsum float32) {
	if lsum == 0 {
		return
	}
	inv := 1 / lsum
	for t := range oseg {
		oseg[t] *= inv
	}
}

// vSource is one way V's rows are given: fresh rows at keys idx(lk, rng)
// over the template's, or (plain) the matrix alone.
type vSource struct {
	name  string
	plain bool
	idx   func(lk int, rng *RNG) []int
}

var vSources = []vSource{
	{name: "plain", plain: true},
	{name: "random", idx: func(lk int, rng *RNG) []int {
		var idx []int
		for j := 0; j < lk; j++ {
			if rng.Intn(3) == 0 {
				idx = append(idx, j)
			}
		}
		return idx
	}},
	{name: "blob", idx: func(lk int, rng *RNG) []int {
		n := 1 + rng.Intn(lk)
		lo := rng.Intn(lk - n + 1)
		idx := make([]int, n)
		for r := range idx {
			idx[r] = lo + r
		}
		return idx
	}},
	{name: "first", idx: func(int, *RNG) []int { return []int{0} }},
	{name: "last", idx: func(lk int, _ *RNG) []int { return []int{lk - 1} }},
	{name: "every", idx: func(lk int, _ *RNG) []int {
		idx := make([]int, lk)
		for j := range idx {
			idx[j] = j
		}
		return idx
	}},
	{name: "none", idx: func(int, *RNG) []int { return nil }},
}

func TestAttentionMatchesPerHeadOrder(t *testing.T) {
	// On every grid shape — one key tile and two, every row-group remainder,
	// head widths that fill a ZMM chunk, half of one and one and a half, one
	// to eight heads — and every source of V, at every kernel level this
	// process can run, serial and split across workers, into a pre-filled
	// dst: the row-group kernel has the bits of the per-head kernel over the
	// V matrix with the fresh rows scattered in.
	rng := NewRNG(38)
	ws := NewArena()
	withParallelism(t, 1)
	for _, c := range attnGrid() {
		q, k, v, scale := attnInputs(rng, c)
		keys := PackKeysInto(make([]float32, c.lk*k.C), k, scale)
		for _, src := range vSources {
			vals, scattered := ValuesOf(v), v
			if !src.plain {
				idx := src.idx(c.lk, rng)
				vM := Randn(rng, len(idx), v.C, 1)
				scattered = v.Clone()
				ScatterRows(scattered, vM, idx)
				vals = vals.WithRows(vM, idx)
			}
			for _, l := range levelsUpTo() {
				want := New(c.lq, q.C)
				atLevel(l, func() { attentionPerHead(want, q, keys.kt, scattered, c.heads, 0, c.lq) })
				for _, p := range []int{1, 2} {
					SetParallelism(p)
					got := Randn(rng, c.lq, q.C, 1)
					atLevel(l, func() { ws.Reset(); FusedAttentionPacked(ws, got, q, keys, vals, c.heads) })
					if j, ok := exactBits(got.Data, want.Data); !ok {
						t.Fatalf("%v, V %s, %v, parallelism %d: element %d (row %d, column %d) = %x, per-head order %x",
							c, src.name, l, p, j, j/q.C, j%q.C, math.Float32bits(got.Data[j]), math.Float32bits(want.Data[j]))
					}
				}
				SetParallelism(1)
			}
		}
	}
}

func TestValuesRuns(t *testing.T) {
	// The runs of a key range cover it in ascending order, each from one
	// source, maximal, and at the rows ScatterRows would have put there.
	rng := NewRNG(39)
	for _, lk := range []int{1, 5, 64, attnKTile + 44} {
		v := Randn(rng, lk, 3, 1)
		for _, src := range vSources[1:] {
			idx := src.idx(lk, rng)
			vM := Randn(rng, len(idx), 3, 1)
			scattered := v.Clone()
			ScatterRows(scattered, vM, idx)
			vals := ValuesOf(v).WithRows(vM, idx)
			for j0 := 0; j0 < lk; j0 += attnKTile {
				j1 := min(lk, j0+attnKTile)
				runs := vals.runs(nil, j0, j1)
				j := j0
				for i := 0; i < len(runs); i += vRunInts {
					s, row, n := runs[i+vRunSrc], runs[i+vRunRow], runs[i+vRunN]
					if n < 1 {
						t.Fatalf("lk %d, %s: run %d is empty", lk, src.name, i)
					}
					m := v
					if s == 1 {
						m = vM
					}
					for r := 0; r < n; r++ {
						if col, ok := exactBits(m.Row(row+r), scattered.Row(j+r)); !ok {
							t.Fatalf("lk %d, %s: run %d key %d column %d is not V's", lk, src.name, i, j+r, col)
						}
					}
					if i > 0 && runs[i-vRunInts+vRunSrc] == s && runs[i-vRunInts+vRunRow]+runs[i-vRunInts+vRunN] == row {
						t.Fatalf("lk %d, %s: runs at %d and %d continue one source", lk, src.name, i-vRunInts, i)
					}
					j += n
				}
				if j != j1 {
					t.Fatalf("lk %d, %s: runs of [%d, %d) end at %d", lk, src.name, j0, j1, j)
				}
			}
		}
	}
}

func TestValuesWithRowsRejects(t *testing.T) {
	v := New(8, 4)
	for _, c := range []struct {
		rows *Matrix
		idx  []int
	}{
		{New(2, 4), []int{3, 3}},
		{New(2, 4), []int{5, 2}},
		{New(1, 4), []int{8}},
		{New(1, 4), []int{-1}},
		{New(1, 3), []int{0}},
		{New(2, 4), []int{0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithRows(%v, %v) did not panic", c.rows, c.idx)
				}
			}()
			ValuesOf(v).WithRows(c.rows, c.idx)
		}()
	}
}

// BenchmarkAttentionRowGroup times one row group against 64 keys at the
// sd21-sim head shape (4 heads of 16), over a plain V and over fresh rows.
func BenchmarkAttentionRowGroup(b *testing.B) {
	rng := NewRNG(40)
	for _, lq := range []int{1, 4} {
		c := attnCase{lq, 64, 16, 4}
		q, k, v, scale := attnInputs(rng, c)
		keys := PackKeysInto(make([]float32, c.lk*k.C), k, scale)
		idx := []int{3, 9, 10, 40, 41, 42, 63}
		fresh := ValuesOf(v).WithRows(Randn(rng, len(idx), v.C, 1), idx)
		dst, ws := New(c.lq, q.C), NewArena()
		for _, vs := range []struct {
			name string
			v    Values
		}{{"plain", ValuesOf(v)}, {"fresh", fresh}} {
			b.Run(fmt.Sprintf("Lq%d_%s", lq, vs.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ws.Reset()
					FusedAttentionPacked(ws, dst, q, keys, vs.v, c.heads)
				}
			})
		}
	}
}
