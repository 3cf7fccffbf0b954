package tensor

import (
	"fmt"
	"math"
)

// AttentionPart is one part of the attention kernel's work, run over every
// row group of one call on its own: a row of flashps-kernels' attention
// budget. Run does the part as attentionRange does; PerHead as the kernel
// did before a row group took all its heads at once — one (head, row group)
// at a time, a weight pass per score row, P·V per head and 1/l as a scalar
// loop. A nil Run is a part the kernel does inside another one.
type AttentionPart struct {
	Name         string
	Run, PerHead func()
}

// AttentionParts returns the parts of FusedAttentionPacked(ws, dst, q,
// keys, ValuesOf(v), heads) — the score GEMMs, the weight pass, P·V and the 1/l
// multiply — for keys of one tile (Lk ≤ 256). They write dst and buffers of
// their own; what they leave is not attention.
func AttentionParts(dst, q *Matrix, keys PackedKeys, v *Matrix, heads int) []AttentionPart {
	h, lk, d := q.C, keys.Lk, q.C/heads
	if lk > attnKTile || d == 0 || v.R != lk || v.C != h || dst.R != q.R || dst.C != h {
		panic(fmt.Sprintf("tensor: AttentionParts shape q=%v k=%d×%d v=%v dst=%v heads=%d", q, lk, keys.H, v, dst, heads))
	}
	sbuf, vals := make([]float32, mcRows*attnLdp), ValuesOf(v)
	runs := vals.runs(nil, 0, lk)
	var mMax, sum, inv [mcRows * attnHeads]float32
	for k := range inv {
		inv[k] = 1
	}
	return []AttentionPart{
		{"scores", func() {
			for g := 0; g < heads; g += attnHeads {
				for i := 0; i < q.R; i += mcRows {
					for s := 0; s < min(attnHeads, heads-g); s++ {
						off := (g + s) * d
						gemmTile(d, q.Data[i*h+off:], h, keys.kt[off*lk:], lk, sbuf[s*attnKTile:], attnLdp, min(mcRows, q.R-i), lk, true)
					}
				}
			}
		}, func() {
			for off := 0; off < heads*d; off += d {
				for i := 0; i < q.R; i += mcRows {
					gemmTile(d, q.Data[i*h+off:], h, keys.kt[off*lk:], lk, sbuf, attnKTile, min(mcRows, q.R-i), lk, true)
				}
			}
		}},
		{"weights", func() {
			for g := 0; g < heads; g += attnHeads {
				for i := 0; i < q.R; i += mcRows {
					rows, hg := min(mcRows, q.R-i), min(attnHeads, heads-g)
					for k := range mMax {
						mMax[k] = float32(math.Inf(-1))
					}
					if hg == attnHeads {
						softmaxWeights(sbuf, attnKTile, lk, rows*attnHeads, mMax[:], sum[:])
						continue
					}
					for r := 0; r < rows; r++ {
						softmaxWeights(sbuf[r*attnLdp:], attnKTile, lk, hg, mMax[r*attnHeads:], sum[r*attnHeads:])
					}
				}
			}
		}, func() {
			for off := 0; off < heads*d; off += d {
				for i := 0; i < q.R; i += mcRows {
					for r := 0; r < min(mcRows, q.R-i); r++ {
						mMax[0] = float32(math.Inf(-1))
						softmaxWeightsRows(sbuf[r*attnKTile:], attnKTile, lk, 1, mMax[:], sum[:])
					}
				}
			}
		}},
		{"p·v", func() {
			for g := 0; g < heads; g += attnHeads {
				for i := 0; i < q.R; i += mcRows {
					pvTile(dst.Data[i*h:], h, sbuf, vals, runs, min(mcRows, q.R-i), g, min(attnHeads, heads-g), d, &inv)
				}
			}
		}, func() {
			for off := 0; off < heads*d; off += d {
				for i := 0; i < q.R; i += mcRows {
					gemmTile(lk, sbuf, attnKTile, v.Data[off:], h, dst.Data[i*h+off:], h, min(mcRows, q.R-i), d, false)
				}
			}
		}},
		{"normalize", nil, func() {
			for off := 0; off < heads*d; off += d {
				for i := 0; i < q.R; i++ {
					seg := dst.Data[i*h+off : i*h+off+d]
					for t := range seg {
						seg[t] *= inv[0]
					}
				}
			}
		}},
	}
}
