package tensor

import (
	"math"
	"testing"
)

// The cross-level contract: the avx512 level produces, bit for bit (NaN
// payloads included), what the avx2 level produces — GEMM because every C
// element keeps its one FMA chain whatever the tile width, vector math
// because a lane of either width executes the scalar specification. The
// tests here run both levels in one process; `make test-levels` runs the
// whole numeric suites under each.

// needLevel skips the test on a host (or under a cap) below l.
func needLevel(t *testing.T, l kernelLevel) {
	t.Helper()
	if level < l {
		t.Skipf("needs kernel level %v; this process runs %v (host %v)", l, level, nativeLevel())
	}
}

func TestGemmLevelsBitIdentical(t *testing.T) {
	// Every row-group height × every column count up to two full ZMM tiles
	// and every tail after one and after two × reduction lengths of one
	// step, under, at and over a kcBlock panel, on operands that are strided
	// views of wider buffers, storing the first panel and adding to what C
	// held: the ZMM kernels against the YMM ones, and nothing outside the
	// tile written by either — neither the padding right of it nor the guard
	// row below it.
	needLevel(t, levelAVX512)
	rng := NewRNG(41)
	const pad = 3
	const guard = float32(-12345.5)
	for _, k := range []int{1, 16, 64, 256, 300} {
		for rows := 1; rows <= 9; rows++ {
			for cols := 1; cols <= 140; cols++ {
				lda, ldb, ldc := k+pad, cols+pad, cols+2*pad
				a, b := Randn(rng, rows, lda, 1).Data, Randn(rng, k, ldb, 1).Data
				c0 := Randn(rng, rows+1, ldc, 1).Data
				for i := range c0 {
					if i/ldc == rows || i%ldc >= cols {
						c0[i] = guard
					}
				}
				for _, first := range []bool{true, false} {
					// mul is matMulRange's loop nest over the views.
					mul := func(l kernelLevel) []float32 {
						c := append([]float32(nil), c0...)
						atLevel(l, func() {
							for p0 := 0; p0 < k; p0 += kcBlock {
								kc := min(kcBlock, k-p0)
								for i := 0; i < rows; i += mcRows {
									gemmTile(kc, a[i*lda+p0:], lda, b[p0*ldb:], ldb, c[i*ldc:], ldc,
										min(mcRows, rows-i), cols, first && p0 == 0)
								}
							}
						})
						return c
					}
					want, got := mul(levelAVX2), mul(levelAVX512)
					if i, ok := exactBits(got, want); !ok {
						t.Fatalf("%d×%d×%d first=%v: avx512 C[%d][%d] = %x, avx2 %x", rows, k, cols, first,
							i/ldc, i%ldc, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
					for i, v := range got {
						if (i/ldc == rows || i%ldc >= cols) && v != guard {
							t.Fatalf("%d×%d×%d first=%v: avx512 wrote C[%d][%d], outside the tile", rows, k, cols, first, i/ldc, i%ldc)
						}
					}
				}
			}
		}
	}
}

// vecSpecials are the arguments where exp and GeLU change behaviour: the
// flush and saturation bounds and geluTiny with their neighbours on both
// sides, denormals, zeros, infinities, NaN.
func vecSpecials() []float32 {
	inf := float32(math.Inf(1))
	s := []float32{float32(math.NaN()), inf, -inf, 0, float32(math.Copysign(0, -1)),
		1e-40, -1e-40, math.SmallestNonzeroFloat32, 1.1754944e-38, -1.1754944e-38, math.MaxFloat32, -math.MaxFloat32}
	for _, x := range []float32{expLo, expHi, geluTiny, -geluTiny} {
		s = append(s, math.Nextafter32(x, -inf), x, math.Nextafter32(x, inf))
	}
	return s
}

// fusedArgs are the arguments where a fused operation changes an
// intermediate of exp or GeLU: x within three ulps of (k + ½)·ln2 for every
// k from −128 to 127, so that x·log2e lies a few ulps from a half integer
// and the rounding of t — and with it n — depends on the product not being
// rounded first; spreads over the n = −126 range down to the flush bound
// (subnormal results) and over the n = 127 range up to the saturation
// bound, where the 16-lane kernel's VSCALEFPS stands in for the
// exponent-field multiply; and GeLU inputs around the two points where the
// argument (K·C·x² + K)·x crosses expHi (clamped above) and expLo (flushed
// below).
func fusedArgs() []float32 {
	inf := float32(math.Inf(1))
	var s []float32
	around := func(x float32) {
		lo, hi := x, x
		s = append(s, x)
		for i := 0; i < 3; i++ {
			lo, hi = math.Nextafter32(lo, -inf), math.Nextafter32(hi, inf)
			s = append(s, lo, hi)
		}
	}
	for k := -128; k <= 127; k++ {
		around(float32((float64(k) + 0.5) * math.Ln2))
	}
	for i := 0; i <= 64; i++ {
		f := float64(i) / 64
		s = append(s, float32(expLo+f*(-125.5*math.Ln2-expLo)), float32(126.5*math.Ln2+f*(expHi-126.5*math.Ln2)))
	}
	geluArg := func(x float32) float32 { return float32(fma32(geluKC, float32(x*x), geluNeg2K) * x) }
	// cross returns the float32 in [lo, hi] where geluArg passes bound.
	cross := func(lo, hi, bound float32) float32 {
		for math.Nextafter32(lo, hi) != hi {
			if mid := (lo + hi) / 2; (geluArg(mid) > bound) == (geluArg(lo) > bound) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return hi
	}
	around(cross(-12, -8, expHi))
	around(cross(8, 12, expLo))
	return s
}

func TestVectorMathLevelsBitIdentical(t *testing.T) {
	// exp, the softmax weight pass and GeLU at every length from 1 to 40 —
	// no vector, one YMM group, one ZMM vector, a ZMM vector and a YMM
	// group, with every tail — with every special value in every position
	// and the fusedArgs cut into slices of each length: 16 lanes ≡ 8 lanes ≡
	// the portable level ≡ expf/geluf per element, and the returned sum
	// alike.
	needLevel(t, levelAVX2)
	levels := []kernelLevel{levelPortable, levelAVX2}
	if level >= levelAVX512 {
		levels = append(levels, levelAVX512)
	} else {
		t.Logf("16-lane kernels not compared: this process runs %v (host %v)", level, nativeLevel())
	}
	rng := NewRNG(42)
	specials := vecSpecials()
	check := func(x []float32, shift float32) {
		t.Helper()
		wantExp, wantGelu := make([]float32, len(x)), make([]float32, len(x))
		for i, v := range x {
			wantExp[i], wantGelu[i] = expf(v-shift), geluf(v)
		}
		var sum0 float32
		for _, l := range levels {
			e, g := append([]float32(nil), x...), append([]float32(nil), x...)
			var sum float32
			atLevel(l, func() { sum = expShiftSum(e, shift); geluSlice(g) })
			if i, ok := exactBits(e, wantExp); !ok {
				t.Fatalf("n=%d %v: expShiftSum[%d] of %g − %g = %x, expf %x", len(x), l, i, x[i], shift,
					math.Float32bits(e[i]), math.Float32bits(wantExp[i]))
			}
			if i, ok := exactBits(g, wantGelu); !ok {
				t.Fatalf("n=%d %v: geluSlice[%d] of %g = %x, geluf %x", len(x), l, i, x[i],
					math.Float32bits(g[i]), math.Float32bits(wantGelu[i]))
			}
			if l == levelPortable {
				sum0 = sum
			} else if math.Float32bits(sum) != math.Float32bits(sum0) {
				t.Fatalf("n=%d %v: expShiftSum returned %x, portable %x", len(x), l, math.Float32bits(sum), math.Float32bits(sum0))
			}
		}
	}
	for n := 1; n <= 40; n++ {
		// Scores a few units apart: every weight counts in the sum, so the
		// order the lanes are added in shows.
		near := Randn(rng, 1, n, 2).Data
		check(near, maxOf(near)) // the softmax weight pass
		check(near, 0)
		base := Randn(rng, 1, n, 30).Data
		check(base, 0)
		check(base, maxOf(base))
		for _, sp := range specials {
			for pos := 0; pos < n; pos++ {
				x := append([]float32(nil), base...)
				x[pos] = sp
				check(x, 0)
			}
			x := append([]float32(nil), base...)
			x[rng.Intn(n)] = sp
			check(x, float32(rng.NormFloat64()))
		}
		all := make([]float32, n) // nothing but specials
		for i := range all {
			all[i] = specials[rng.Intn(len(specials))]
		}
		check(all, 0)
	}
	fused := fusedArgs()
	for n := 1; n <= 40; n++ {
		for i := 0; i < len(fused); i += n {
			check(fused[i:min(i+n, len(fused))], 0)
		}
	}

	// The multi-row weight pass: 1 to 16 rows of every length from 1 to 300,
	// a padded row stride whose padding must stay as it was, running maxima
	// that are fresh (-Inf), below the row's largest score and above it,
	// rows and whole calls of nothing but -Inf, and NaN and every special
	// value at every position. At every level the kernel writes, into the
	// rows, the maxima and the sums, the bits of maxOf and expShiftSum row
	// by row at that level, and every level writes the portable level's —
	// but for which of two NaNs a sum carries: which operand of an add
	// passes its NaN on is the compiler's choice in Go code (it differs
	// under -race) and a fixed one in the kernels.
	ninf := float32(math.Inf(-1))
	weights := func(s []float32, lds, n, rows int, m0 []float32) {
		t.Helper()
		run := func(l kernelLevel, fn func(s []float32, lds, n, rows int, m, sum []float32)) (got, m, sum []float32) {
			got, m, sum = append([]float32(nil), s...), append([]float32(nil), m0...), make([]float32, rows)
			atLevel(l, func() { fn(got, lds, n, rows, m, sum) })
			return got, m, sum
		}
		want0, _, sum0 := run(levelPortable, softmaxWeightsRows)
		for _, l := range levels {
			got, m, sum := run(l, softmaxWeights)
			want, wantM, wantSum := run(l, softmaxWeightsRows)
			if i, ok := exactBits(got, want); !ok {
				t.Fatalf("n=%d rows=%d %v: weight [%d][%d] of %g = %x, row by row %x", n, rows, l, i/lds, i%lds, s[i],
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
			if k, ok := exactBits(m, wantM); !ok {
				t.Fatalf("n=%d rows=%d %v: max[%d] = %g, row by row %g", n, rows, l, k, m[k], wantM[k])
			}
			if k, ok := sameBits(sum, wantSum); !ok {
				t.Fatalf("n=%d rows=%d %v: sum[%d] = %x, row by row %x", n, rows, l, k,
					math.Float32bits(sum[k]), math.Float32bits(wantSum[k]))
			}
			if i, ok := exactBits(got, want0); !ok {
				t.Fatalf("n=%d rows=%d %v: weight [%d][%d] = %x, portable %x", n, rows, l, i/lds, i%lds,
					math.Float32bits(got[i]), math.Float32bits(want0[i]))
			}
			if k, ok := sameBits(sum, sum0); !ok {
				t.Fatalf("n=%d rows=%d %v: sum[%d] = %x, portable %x", n, rows, l, k,
					math.Float32bits(sum[k]), math.Float32bits(sum0[k]))
			}
		}
	}
	for n := 1; n <= 300; n++ {
		lds := n + n%3
		for pos := 0; pos < n; pos++ {
			rows := 1 + (n+pos)%16
			s := Randn(rng, rows, lds, 2).Data
			m := make([]float32, rows)
			for k := 0; k < rows; k++ {
				row := s[k*lds : k*lds+n]
				row[pos] = specials[(pos*7+k)%len(specials)]
				if k == 1 {
					row[(pos+n/2)%n] = float32(math.NaN())
				}
				switch k % 4 {
				case 0:
					m[k] = ninf
				case 1:
					m[k] = -3
				case 2:
					m[k] = 9
				case 3:
					m[k] = ninf
					for j := range row {
						row[j] = ninf
					}
				}
			}
			weights(s, lds, n, rows, m)
		}
		s := make([]float32, 16*lds) // every score masked out
		for j := range s {
			s[j] = ninf
		}
		m := make([]float32, 16)
		for k := range m {
			m[k] = ninf
		}
		weights(s, lds, n, 16, m)
	}

	// The fusedArgs that are ≤ 0 as rows of scores with running maxima 0, so
	// that the weights are their exps.
	var neg []float32
	for _, v := range fused {
		if v <= 0 {
			neg = append(neg, v)
		}
	}
	for _, n := range []int{5, 8, 16, 37, 64} {
		for i := 0; i+n <= len(neg); {
			rows := min(16, (len(neg)-i)/n)
			weights(neg[i:i+rows*n], n, n, rows, make([]float32, rows))
			i += rows * n
		}
	}
}

func TestAttentionLevelsBitIdentical(t *testing.T) {
	// Attention is gemmTile, maxOf and expShiftSum: on every grid shape —
	// score tiles of 4 to 256 keys, P·V tiles of 8, 16, 24 and 32 columns,
	// every row-group remainder — over keys packed per call and over a pack
	// with rows written in, the two vector levels agree.
	needLevel(t, levelAVX512)
	rng := NewRNG(43)
	ws := NewArena()
	for _, c := range attnGrid() {
		q, k, v, scale := attnInputs(rng, c)
		var idx []int
		for j := 0; j < c.lk; j++ {
			if rng.Intn(3) == 0 {
				idx = append(idx, j)
			}
		}
		kM := Randn(rng, len(idx), k.C, 1)
		run := func(l kernelLevel) (fused, packed *Matrix) {
			fused, packed = Randn(rng, c.lq, q.C, 1), Randn(rng, c.lq, q.C, 1)
			atLevel(l, func() {
				ws.Reset()
				FusedAttentionWS(ws, fused, q, k, v, c.heads, scale)
				keys := PackKeysInto(ws.floats(c.lk*k.C), k, scale)
				FusedAttentionPacked(ws, packed, q, keys.WithRows(ws, kM, idx), ValuesOf(v), c.heads)
			})
			return fused, packed
		}
		wantF, wantP := run(levelAVX2)
		gotF, gotP := run(levelAVX512)
		if j, ok := exactBits(gotF.Data, wantF.Data); !ok {
			t.Fatalf("%v: FusedAttentionWS differs between avx512 and avx2 at element %d", c, j)
		}
		if j, ok := exactBits(gotP.Data, wantP.Data); !ok {
			t.Fatalf("%v: FusedAttentionPacked differs between avx512 and avx2 at element %d", c, j)
		}
	}
}
