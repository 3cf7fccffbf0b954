package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The float64 formulas this package computed with before the float32
// vector math; kept here as accuracy oracles only.

func oracleExp(x float32) float32 { return float32(math.Exp(float64(x))) }

func oracleGeLU(x float32) float64 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	v := float64(x)
	return 0.5 * v * (1 + math.Tanh(c*(v+0.044715*v*v*v)))
}

func oracleLayerNormRow(dst, src, gamma, beta []float32, eps float32) {
	var mean float64
	for _, v := range src {
		mean += float64(v)
	}
	mean /= float64(len(src))
	var varsum float64
	for _, v := range src {
		d := float64(v) - mean
		varsum += d * d
	}
	inv := 1 / math.Sqrt(varsum/float64(len(src))+float64(eps))
	for j, v := range src {
		dst[j] = float32((float64(v)-mean)*inv*float64(gamma[j]) + float64(beta[j]))
	}
}

func oracleSoftmaxRow(row []float32) {
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v - max))
	}
	for j, v := range row {
		row[j] = float32(math.Exp(float64(v-max)) / sum)
	}
}

// ulpDiff is the distance between two finite float32s in units in the
// last place.
func ulpDiff(a, b float32) int64 {
	d := int64(int32(math.Float32bits(a))) - int64(int32(math.Float32bits(b)))
	if d < 0 {
		return -d
	}
	return d
}

// sameBits reports whether two slices hold the same float32 bit patterns
// (NaNs of any payload count as equal to each other).
func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i, false
		}
	}
	return 0, true
}

// exactBits is sameBits without its NaN allowance.
func exactBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestExpAccuracy(t *testing.T) {
	// Every 61st float32 of [-87.3, 0]: ~18M arguments spread over every
	// binade and every reduction interval.
	var worst int64
	for b := math.Float32bits(87.3); ; b -= 61 {
		x := -math.Float32frombits(b)
		if d := ulpDiff(expf(x), oracleExp(x)); d > worst {
			worst = d
			if d > 2 {
				t.Fatalf("expf(%g) = %g, oracle %g: %d ulp", x, expf(x), oracleExp(x), d)
			}
		}
		if b < 61 {
			break
		}
	}
	t.Logf("max error over [-87.3, 0]: %d ulp", worst)

	negZero := float32(math.Copysign(0, -1))
	for _, c := range []struct{ x, want float32 }{
		{0, 1}, {negZero, 1},
		{float32(math.Inf(-1)), 0},
		{-88, 0}, {-100, 0}, {-1e30, 0}, {-math.MaxFloat32, 0}, // underflow: flushed, not denormal
	} {
		if got := expf(c.x); got != c.want || math.Signbit(float64(got)) {
			t.Errorf("expf(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if got := expf(float32(math.NaN())); got == got {
		t.Errorf("expf(NaN) = %g, want NaN", got)
	}
	// The flush boundary itself, and above the domain the softmax uses:
	// still accurate, saturating instead of overflowing.
	for _, x := range []float32{expLo, 1e-3, 1, 10, 80, 88} {
		if d := ulpDiff(expf(x), oracleExp(x)); d > 2 {
			t.Errorf("expf(%g): %d ulp", x, d)
		}
	}
	if got := expf(1000); got != expf(expHi) || math.IsInf(float64(got), 0) {
		t.Errorf("expf(1000) = %g, want saturation at expf(expHi) = %g", got, expf(expHi))
	}
}

// expProbe is a spread of exp arguments, special values included.
func expProbe(rng *RNG, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		switch rng.Intn(16) {
		case 0:
			x[i] = float32(math.Inf(-1))
		case 1:
			x[i] = float32(math.NaN())
		case 2:
			x[i] = float32(-90 + 4*rng.Float64()) // straddles the flush boundary
		case 3:
			x[i] = float32(86 + 4*rng.Float64()) // straddles the saturation bound
		case 4:
			x[i] = float32(math.Copysign(0, -1))
		default:
			x[i] = float32(-88 * rng.Float64())
		}
	}
	return x
}

func TestExpPositionIndependent(t *testing.T) {
	// A value's exp may not depend on its index, the slice length, the
	// slice's alignment or the parallelism setting: vector lanes and the
	// scalar tail run the same arithmetic.
	rng := NewRNG(21)
	src := expProbe(rng, 300)
	want := make([]float32, len(src))
	for i, v := range src {
		want[i] = expf(v)
	}
	for _, p := range []int{1, 2, 4} {
		withParallelism(t, p)
		for trial := 0; trial < 200; trial++ {
			lo := rng.Intn(len(src))
			hi := lo + rng.Intn(len(src)-lo+1)
			got := append([]float32(nil), src[lo:hi]...)
			Exp(got)
			if i, ok := sameBits(got, want[lo:hi]); !ok {
				t.Fatalf("parallelism %d, Exp(src[%d:%d])[%d] = %x, expf = %x (x = %g)",
					p, lo, hi, i, math.Float32bits(got[i]), math.Float32bits(want[lo+i]), src[lo+i])
			}
		}
	}
}

func TestGeLUAccuracy(t *testing.T) {
	for i := 0; i <= 2_000_000; i++ {
		x := float32(-10 + float64(i)*1e-5)
		got, want := float64(geluf(x)), oracleGeLU(x)
		if tol := 2e-6 * math.Max(1, math.Abs(float64(x))); math.Abs(got-want) > tol {
			t.Fatalf("geluf(%g) = %g, oracle %g: error %g > %g", x, got, want, math.Abs(got-want), tol)
		}
	}
	// Far tails and specials: identity above, zero below, NaN through.
	for _, c := range []struct{ x, want float32 }{
		{0, 0}, {50, 50}, {1e20, 1e20}, {float32(math.Inf(1)), float32(math.Inf(1))},
		{1e-20, 0.5e-20}, {-3e-12, -1.5e-12}, // below geluTiny: exactly x/2
	} {
		if got := geluf(c.x); got != c.want {
			t.Errorf("geluf(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	for _, x := range []float32{-50, -1e20} { // exp saturates near 2.4e38: x/(1+e) is ~0, not exactly 0
		if got := geluf(x); got > 0 || got < x/1e38 {
			t.Errorf("geluf(%g) = %g, want within [%g, 0]", x, got, x/1e38)
		}
	}
	if got := geluf(float32(math.NaN())); got == got {
		t.Errorf("geluf(NaN) = %g, want NaN", got)
	}
}

func TestGeLUPositionIndependent(t *testing.T) {
	rng := NewRNG(22)
	src := Randn(rng, 1, 301, 3).Data
	src[7], src[100] = float32(math.NaN()), 40
	want := make([]float32, len(src))
	for i, v := range src {
		want[i] = geluf(v)
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(len(src))
		hi := lo + rng.Intn(len(src)-lo+1)
		got := FromSlice(1, hi-lo, append([]float32(nil), src[lo:hi]...))
		GeLU(got)
		if i, ok := sameBits(got.Data, want[lo:hi]); !ok {
			t.Fatalf("GeLU(src[%d:%d])[%d] = %g, geluf = %g", lo, hi, i, got.Data[i], want[lo+i])
		}
	}
}

func TestMatMulGeLUIntoMatchesSeparatePasses(t *testing.T) {
	rng := NewRNG(23)
	for _, s := range append(oddShapes, struct{ m, k, n int }{7, 64, 256}, struct{ m, k, n int }{64, 64, 256}) {
		a := Randn(rng, s.m, s.k, 1)
		b := Randn(rng, s.k, s.n, 1)
		want := New(s.m, s.n)
		MatMulInto(want, a, b)
		GeLU(want)
		got := Randn(rng, s.m, s.n, 1) // pre-filled: must be fully overwritten
		MatMulGeLUInto(got, a, b)
		if i, ok := sameBits(got.Data, want.Data); !ok {
			t.Fatalf("%d×%d×%d: fused epilogue differs from MatMulInto+GeLU at %d", s.m, s.k, s.n, i)
		}
	}
}

func TestLayerNormRowsIntoMatchesOracle(t *testing.T) {
	// Nine rows: two full row groups of the vector kernel and a remainder.
	rng := NewRNG(24)
	for _, c := range []int{1, 3, 8, 13, 64, 96, 100, 128} {
		src := Randn(rng, 9, c, 2)
		for i := range src.Data {
			src.Data[i] += 3 // a mean well away from 0 exercises the centring
		}
		gamma, beta := Randn(rng, 1, c, 1).Data, Randn(rng, 1, c, 1).Data
		keep := src.Clone()
		dst := Randn(rng, 9, c, 1)
		LayerNormRowsInto(dst, src, gamma, beta, 1e-5)
		if !Equal(src, keep) {
			t.Fatalf("C=%d: LayerNormRowsInto modified src", c)
		}
		want := New(9, c)
		for i := 0; i < 9; i++ {
			oracleLayerNormRow(want.Row(i), src.Row(i), gamma, beta, 1e-5)
		}
		if !AllClose(dst, want, 2e-5) {
			t.Fatalf("C=%d: LayerNormRowsInto vs float64 oracle maxdiff %g", c, MaxAbsDiff(dst, want))
		}
		LayerNormRows(src, gamma, beta, 1e-5) // in place == out of place
		if i, ok := sameBits(src.Data, dst.Data); !ok {
			t.Fatalf("C=%d: in-place LayerNormRows differs from LayerNormRowsInto at %d", c, i)
		}
	}
	LayerNormRowsInto(New(3, 0), New(3, 0), nil, nil, 1e-5) // no columns: no-op
}

// checkLayerNormRows runs layerNormRows at level l over the rows of src
// (n floats each) and holds every row to layerNormRow's bits, NaN payloads
// aside; inPlace normalises a copy of src in place. The destination has a
// guard row after the rows, which must come back untouched.
func checkLayerNormRows(t *testing.T, l kernelLevel, src, gamma, beta []float32, n int, inPlace bool) {
	t.Helper()
	const guard = float32(-12345.5)
	rows := len(src) / n
	want := make([]float32, len(src))
	for i := 0; i < rows; i++ {
		layerNormRow(want[i*n:(i+1)*n], src[i*n:(i+1)*n], gamma, beta, 1e-5)
	}
	got := make([]float32, len(src)+n)
	for i := range got {
		got[i] = guard
	}
	in := src
	if inPlace {
		in = got[:len(src)]
		copy(in, src)
	}
	atLevel(l, func() { layerNormRows(got, in, gamma, beta, n, rows, 1e-5) })
	if i, ok := sameBits(got[:len(src)], want); !ok {
		t.Fatalf("%v rows=%d n=%d in place=%v: [%d][%d] of %g = %x, layerNormRow %x", l, rows, n, inPlace,
			i/n, i%n, src[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
	for i, v := range got[len(src):] {
		if v != guard {
			t.Fatalf("%v rows=%d n=%d in place=%v: wrote the guard row at %d", l, rows, n, inPlace, i)
		}
	}
}

func TestLayerNormRowGroupsBitIdentical(t *testing.T) {
	// Every row count a group and its remainder can take, at the widths the
	// vector kernel runs and at widths it leaves to the specification, with
	// rows of specials: at every level up to this process's, each row of
	// layerNormRows is layerNormRow's.
	rng := NewRNG(28)
	inf := float32(math.Inf(1))
	specials := []float32{inf, -inf, float32(math.NaN()), 1e30, -1e30, 1e-40, -1e-40, math.SmallestNonzeroFloat32}
	for _, n := range []int{8, 16, 64, 96, 128, 256, 1, 7, 13, 100} {
		gamma, beta := Randn(rng, 1, n, 1).Data, Randn(rng, 1, n, 1).Data
		for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 65} {
			src := Randn(rng, rows, n, 2).Data
			for i := range src {
				src[i] += 3
			}
			for k := 0; k < rows; k++ {
				row := src[k*n : (k+1)*n]
				switch k % 5 {
				case 1: // constant: variance 0
					for j := range row {
						row[j] = 0.75
					}
				case 2:
					row[rng.Intn(n)] = specials[(k/5+rows+n)%len(specials)]
				case 3: // 1e30 entries: squared deviations overflow
					row[rng.Intn(n)] = 1e30
					row[rng.Intn(n)] = -1e30
				case 4: // denormals beside ordinary values
					for j := 0; j < n; j += 3 {
						row[j] = 1e-40 * float32(j%5-2)
					}
				}
			}
			for _, l := range levelsUpTo() {
				checkLayerNormRows(t, l, src, gamma, beta, n, false)
				checkLayerNormRows(t, l, src, gamma, beta, n, true)
			}
		}
	}
}

// FuzzLayerNormRows holds layerNormRows to layerNormRow on up to nine rows
// of a width that is a multiple of 8 (the vector kernel's), every float of
// the rows, gamma and beta taken from the fuzz input's bits.
func FuzzLayerNormRows(f *testing.F) {
	f.Add(uint8(3), uint8(7), []byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 128, 127, 0, 0, 192, 127})
	f.Add(uint8(8), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, rowsIn, widthIn uint8, data []byte) {
		rows, n := 1+int(rowsIn)%9, 8*(1+int(widthIn)%32)
		bits := func(i int) float32 {
			if len(data) < 4 {
				return float32(i % 7)
			}
			o := 4 * (i % (len(data) / 4))
			return math.Float32frombits(uint32(data[o]) | uint32(data[o+1])<<8 | uint32(data[o+2])<<16 | uint32(data[o+3])<<24)
		}
		src, gamma, beta := make([]float32, rows*n), make([]float32, n), make([]float32, n)
		for i := range src {
			src[i] = bits(i)
		}
		for j := range gamma {
			gamma[j], beta[j] = bits(rows*n+j), bits(rows*n+n+j)
		}
		checkLayerNormRows(t, level, src, gamma, beta, n, false)
		checkLayerNormRows(t, level, src, gamma, beta, n, true)
	})
}

// BenchmarkLayerNormRows times LayerNormRowsInto at the row counts the step
// hands it (a masked block's few rows up to sd21-sim's 64 tokens) and the
// hidden widths of the model presets, reporting ns per row.
func BenchmarkLayerNormRows(b *testing.B) {
	for _, h := range []int{64, 96, 128} {
		for _, rows := range []int{1, 2, 4, 7, 22, 64} {
			rng := NewRNG(1)
			src, dst := Randn(rng, rows, h, 1), New(rows, h)
			gamma, beta := Randn(rng, 1, h, 1).Data, Randn(rng, 1, h, 1).Data
			b.Run(fmt.Sprintf("%dx%d", rows, h), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					LayerNormRowsInto(dst, src, gamma, beta, 1e-5)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}

func TestSoftmaxRowsMatchesOracle(t *testing.T) {
	rng := NewRNG(25)
	for _, c := range []int{1, 2, 7, 8, 9, 64, 77} {
		m := Randn(rng, 6, c, 4)
		want := m.Clone()
		for i := 0; i < want.R; i++ {
			oracleSoftmaxRow(want.Row(i))
		}
		SoftmaxRows(m)
		if !AllClose(m, want, 1e-6) {
			t.Fatalf("C=%d: SoftmaxRows vs float64 oracle maxdiff %g", c, MaxAbsDiff(m, want))
		}
	}
}

func TestSoftmaxRowsEdgeCases(t *testing.T) {
	SoftmaxRows(New(4, 0)) // used to index row[0]
	SoftmaxRows(New(0, 4))

	ninf := float32(math.Inf(-1))
	m := FromSlice(3, 3, []float32{
		ninf, ninf, ninf, // every key masked out: defined as a zero row
		ninf, 1, ninf, // one live key takes all the weight
		0, ninf, 0,
	})
	SoftmaxRows(m)
	want := []float32{0, 0, 0, 0, 1, 0, 0.5, 0, 0.5}
	if i, ok := sameBits(m.Data, want); !ok {
		t.Fatalf("SoftmaxRows with -Inf scores = %v, want %v (first difference at %d)", m.Data, want, i)
	}
}

func TestAttentionAllMaskedKeysAgree(t *testing.T) {
	// A (query, head) whose every score is -Inf — built here by making q·k
	// overflow — has every key masked out. The fused and naive kernels must
	// both give a zero segment, not NaN, and still agree on the ordinary
	// rows and heads beside it.
	rng := NewRNG(26)
	const lq, lk, h, heads = 3, attnKTile + 6, 16, 2 // lk straddles attnKTile
	q := Randn(rng, lq, h, 1)
	k := Randn(rng, lk, h, 1)
	v := Randn(rng, lk, h, 1)
	// Row 1, head 0: q·k = 3e38 · -1e30 per column, so each score is -Inf.
	// The other rows' head-0 scores are huge but finite and equal across
	// keys; head 1 stays ordinary everywhere.
	for c := 0; c < h/heads; c++ {
		q.Set(1, c, 3e38)
		for j := 0; j < lk; j++ {
			k.Set(j, c, -1e30)
		}
	}
	naive, fused := New(lq, h), New(lq, h)
	AttentionNaiveInto(naive, q, k, v, heads, 1)
	FusedAttentionInto(fused, q, k, v, heads, 1)
	for c := 0; c < h/heads; c++ {
		for name, m := range map[string]*Matrix{"naive": naive, "fused": fused} {
			if got := m.At(1, c); got != 0 {
				t.Fatalf("%s: all-masked head output[%d] = %g, want 0", name, c, got)
			}
		}
	}
	for i, want := range naive.Data {
		if want != want {
			t.Fatalf("naive reference produced NaN at %d", i)
		}
		if math.Abs(float64(fused.Data[i]-want)) > 1e-5 {
			t.Fatalf("fused[%d] = %g, naive %g", i, fused.Data[i], want)
		}
	}
}

func TestMatMulRowIndependent(t *testing.T) {
	// A dst row depends only on its a row and on b: alone, in any subset of
	// rows, or in the full matrix it has the same bits — whichever
	// micro-kernel (full tile, remainder rows, remainder columns) it runs
	// in. Also pins MatMulInto against the serial single-row chain.
	rng := NewRNG(27)
	for _, n := range []int{4, 16, 64, 250, 256} {
		for _, k := range []int{64, 300} { // 300 > kcBlock: two reduction panels
			b := Randn(rng, k, n, 1)
			for m := 1; m <= 9; m++ {
				a := Randn(rng, m, k, 1)
				full := Randn(rng, m, n, 1) // pre-filled: write-first must overwrite
				MatMulInto(full, a, b)
				for i := 0; i < m; i++ {
					alone := New(1, n)
					MatMulInto(alone, FromSlice(1, k, a.Row(i)), b)
					if j, ok := sameBits(alone.Data, full.Row(i)); !ok {
						t.Fatalf("M=%d K=%d N=%d: row %d alone differs from the full product at column %d", m, k, n, i, j)
					}
				}
				for subset := 1; subset < 1<<m; subset += 1 + rng.Intn(1<<m/8+1) {
					var idx []int
					for i := 0; i < m; i++ {
						if subset>>i&1 == 1 {
							idx = append(idx, i)
						}
					}
					sub := New(len(idx), n)
					MatMulInto(sub, GatherRows(a, idx), b)
					for r, i := range idx {
						if j, ok := sameBits(sub.Row(r), full.Row(i)); !ok {
							t.Fatalf("M=%d K=%d N=%d: row %d in subset %b differs at column %d", m, k, n, i, subset, j)
						}
					}
				}
			}
		}
	}
}

// BenchmarkGeLU times geluSlice over the 4×256 row group MatMulGeLUInto
// hands it in sd21-sim's FFN, and over the whole 64×256 activation. Each
// iteration restores the input: GeLU applied to its own output drifts
// towards zero.
func BenchmarkGeLU(b *testing.B) {
	for _, rows := range []int{4, 64} {
		src := Randn(NewRNG(1), rows, 256, 1).Data
		x := make([]float32, len(src))
		b.Run(fmt.Sprintf("%dx256", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				geluSlice(x)
			}
		})
	}
}

// BenchmarkExpShiftSum times the softmax weight pass over 4096 scores,
// restoring them each iteration.
func BenchmarkExpShiftSum(b *testing.B) {
	src := Randn(NewRNG(1), 1, 4096, 2).Data
	shift := maxOf(src)
	x := make([]float32, len(src))
	for i := 0; i < b.N; i++ {
		copy(x, src)
		expShiftSum(x, shift)
	}
}
