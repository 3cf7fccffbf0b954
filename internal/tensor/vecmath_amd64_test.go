package tensor

import (
	"math"
	"testing"
)

func vfmadd231ss(x, y, z float32) float32

// TestFMA32CorrectlyRounded holds fma32, the specification's fused
// multiply-add, to the instruction the kernels run: 10⁶ seeded random
// triples (any bit pattern, cancelling sums, comparable and far-apart
// magnitudes, subnormal and overflowing results), constructed float32
// midpoints nudged either way by a tiny addend, and every combination of
// signed zeros, infinities and NaNs. Exact bits throughout, but for which of
// two NaN operands a result carries.
func TestFMA32CorrectlyRounded(t *testing.T) {
	needLevel(t, levelAVX2)
	check := func(x, y, z float32) {
		t.Helper()
		got, want := fma32(x, y, z), vfmadd231ss(x, y, z)
		nans := 0
		for _, v := range []float32{x, y, z} {
			if v != v {
				nans++
			}
		}
		if math.Float32bits(got) != math.Float32bits(want) && !(nans > 1 && got != got && want != want) {
			t.Fatalf("fma32(%g, %g, %g) = %x (%g), VFMADD231SS %x (%g)", x, y, z,
				math.Float32bits(got), got, math.Float32bits(want), want)
		}
	}

	// The double rounding fma32 exists to avoid: (1+2⁻¹²)² + 2⁻⁸⁰ lies just
	// above the midpoint 1+2⁻¹¹+2⁻²⁴, which float64 rounds onto.
	a, c := float32(1+0x1p-12), float32(0x1p-80)
	if got, want := fma32(a, a, c), float32(1+0x1p-11+0x1p-23); got != want {
		t.Fatalf("fma32((1+2⁻¹²)², 2⁻⁸⁰) = %x, want %x", math.Float32bits(got), math.Float32bits(want))
	}
	if float32(math.FMA(float64(a), float64(a), float64(c))) == fma32(a, a, c) {
		t.Fatal("float32(math.FMA) rounds this case correctly: it no longer shows the double rounding")
	}

	rng := NewRNG(51)
	const signAndSignificand = 0x807FFFFF
	bits := func(elo, ehi int) float32 { // random sign and significand, exponent in [elo, ehi]
		e := uint32(elo + 127 + rng.Intn(ehi-elo+1))
		return math.Float32frombits(uint32(rng.Uint64())&signAndSignificand | e<<23)
	}
	for i := 0; i < 1_000_000; i++ {
		var x, y, z float32
		switch i % 6 {
		case 0: // any bit pattern: NaNs, infinities and subnormals included
			x, y, z = math.Float32frombits(uint32(rng.Uint64())), math.Float32frombits(uint32(rng.Uint64())),
				math.Float32frombits(uint32(rng.Uint64()))
		case 1: // z cancels most of x·y
			x, y = bits(-20, 20), bits(-20, 20)
			z = -float32(x * y)
			z = math.Float32frombits(math.Float32bits(z) + uint32(rng.Intn(7)) - 3)
		case 2: // comparable magnitudes
			x, y = bits(-10, 10), bits(-10, 10)
			z = bits(-25, 25)
		case 3: // z far below x·y: it only breaks ties
			x, y = bits(-5, 5), bits(-5, 5)
			z = bits(-100, -30)
		case 4: // subnormal results
			x, y = bits(-80, -60), bits(-80, -60)
			z = math.Float32frombits(uint32(rng.Uint64()) & signAndSignificand)
		case 5: // around the overflow threshold
			x, y = bits(60, 68), bits(60, 68)
			z = bits(120, 127)
		}
		check(x, y, z)
	}

	// Midpoints: (1 + i·2⁻¹²)(1 + j·2⁻¹²) with i·j odd lies halfway between
	// two float32s; an addend of 0 leaves the tie to even, a tiny one of
	// either sign decides it. Scaled through every binade down to subnormal.
	for i := 1; i < 64; i += 2 {
		for j := 1; j < 64; j += 2 {
			for _, k := range []int{0, -3, 17, -60, -126, -130, -140} {
				x := float32(math.Ldexp(1+float64(i)*0x1p-12, k))
				y := float32(1 + float64(j)*0x1p-12)
				for _, z := range []float32{0, 0x1p-149, -0x1p-149, float32(math.Ldexp(1, k-60)), float32(math.Ldexp(-1, k-60))} {
					check(x, y, z)
					check(-x, y, z)
				}
			}
		}
	}

	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	specials := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, nan, -nan,
		math.Float32frombits(0x7FA00001), math.Float32frombits(0xFFC0BEEF), // a signalling and a payload NaN
		1, -1, 0x1p-149, math.MaxFloat32, -math.MaxFloat32}
	for _, x := range specials {
		for _, y := range specials {
			for _, z := range specials {
				check(x, y, z)
			}
		}
	}
}

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
	}
}
