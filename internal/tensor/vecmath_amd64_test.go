package tensor

import (
	"math"
	"testing"
)

// TestVectorKernelsMatchReference pins the float32 vector math's contract:
// the AVX2 kernels produce, bit for bit, what the Go reference functions
// produce — element-wise results and reductions alike — so lanes, scalar
// tails and the portable build cannot drift apart.
func TestVectorKernelsMatchReference(t *testing.T) {
	if level < levelAVX2 {
		t.Skip("no vector kernels active at level " + level.String())
	}
	rng := NewRNG(31)
	for _, n := range []int{1, 7, 8, 9, 16, 63, 64, 65, 256, 301} {
		src := expProbe(rng, n)
		shift := float32(rng.NormFloat64())

		got, want := append([]float32(nil), src...), append([]float32(nil), src...)
		gotSum := expShiftSum(got, shift)
		var wantSum float32
		portable(func() { wantSum = expShiftSum(want, shift) })
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("n=%d: expShiftSum[%d] = %g, reference %g (x = %g)", n, i, got[i], want[i], src[i]-shift)
		}
		if _, ok := sameBits([]float32{gotSum}, []float32{wantSum}); !ok {
			t.Fatalf("n=%d: expShiftSum sum = %g, reference %g", n, gotSum, wantSum)
		}

		gotMax := maxOf(src)
		var wantMax float32
		portable(func() { wantMax = maxOf(src) })
		if gotMax != wantMax {
			t.Fatalf("n=%d: maxOf = %g, reference %g", n, gotMax, wantMax)
		}

		x := Randn(rng, 1, n, 3).Data
		for _, special := range []float32{float32(math.NaN()), 1e-9, -1e-10, 1e-20, -1e-39, 0, float32(math.Inf(-1))} {
			x[rng.Intn(n)] = special // both sides of geluTiny, a denormal, the ends
		}
		got, want = append([]float32(nil), x...), append([]float32(nil), x...)
		geluSlice(got)
		portable(func() { geluSlice(want) })
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("n=%d: geluSlice[%d] = %g, reference %g (x = %g)", n, i, got[i], want[i], x[i])
		}

		a, b := Randn(rng, 1, n, 3).Data, Randn(rng, 1, n, 3).Data
		got, want = append([]float32(nil), a...), append([]float32(nil), a...)
		AddVec(got, got, b)
		portable(func() { AddVec(want, want, b) })
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("n=%d: AddVec[%d] = %g, reference %g", n, i, got[i], want[i])
		}

		x = Randn(rng, 1, n, 2).Data
		gamma, beta := Randn(rng, 1, n, 1).Data, Randn(rng, 1, n, 1).Data
		got, want = make([]float32, n), make([]float32, n)
		layerNormRow(got, x, gamma, beta, 1e-5)
		portable(func() { layerNormRow(want, x, gamma, beta, 1e-5) })
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("n=%d: layerNormRow[%d] = %g, reference %g", n, i, got[i], want[i])
		}
	}
}
