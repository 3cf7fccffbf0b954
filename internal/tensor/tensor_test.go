package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Shape(); r != 3 || c != 4 {
		t.Fatalf("Shape() = %d,%d want 3,4", r, c)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New matrix not zeroed")
		}
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 3, []float32{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row(1)[2] = %v want 7", row[2])
	}
	row[0] = 5 // row aliases storage
	if m.At(1, 0) != 5 {
		t.Fatal("Row should alias matrix storage")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float32{58, 64, 139, 154})
	if !Equal(got, want) {
		t.Fatalf("MatMul = %v want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := Randn(rng, 5, 5, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if !AllClose(MatMul(a, id), a, 1e-6) {
		t.Fatal("A×I != A")
	}
	if !AllClose(MatMul(id, a), a, 1e-6) {
		t.Fatal("I×A != A")
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(2)
	a := Randn(rng, 4, 6, 1)
	b := Randn(rng, 5, 6, 1)
	got := MatMulT(a, b)
	want := MatMul(a, Transpose(b))
	if !AllClose(got, want, 1e-4) {
		t.Fatalf("MatMulT mismatch, maxdiff=%g", MaxAbsDiff(got, want))
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := Randn(rng, r, c, 1)
		return Equal(Transpose(Transpose(m)), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(5)
		a := Randn(rng, n, n, 0.5)
		b := Randn(rng, n, n, 0.5)
		c := Randn(rng, n, n, 0.5)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return AllClose(left, right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributivityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(5)
		a := Randn(rng, n, n, 0.5)
		b := Randn(rng, n, n, 0.5)
		c := Randn(rng, n, n, 0.5)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return AllClose(left, right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, r, c, 1)
		b := Randn(rng, r, c, 1)
		return AllClose(Sub(Add(a, b), b), a, 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddInPlace(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	AddInPlace(a, b)
	want := FromSlice(1, 3, []float32{11, 22, 33})
	if !Equal(a, want) {
		t.Fatalf("AddInPlace = %v", a.Data)
	}
}

func TestScale(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, -2, 3})
	Scale(a, 2)
	want := FromSlice(1, 3, []float32{2, -4, 6})
	if !Equal(a, want) {
		t.Fatalf("Scale = %v", a.Data)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, c := 1+rng.Intn(6), 1+rng.Intn(10)
		m := Randn(rng, r, c, 3)
		SoftmaxRows(m)
		for i := 0; i < r; i++ {
			var sum float64
			for _, v := range m.Row(i) {
				if v < 0 || v > 1 {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{101, 102, 103})
	SoftmaxRows(a)
	SoftmaxRows(b)
	if !AllClose(a, b, 1e-5) {
		t.Fatal("softmax should be shift-invariant")
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := FromSlice(1, 2, []float32{1e4, -1e4})
	SoftmaxRows(m)
	if math.IsNaN(float64(m.Data[0])) || math.IsNaN(float64(m.Data[1])) {
		t.Fatal("softmax produced NaN on extreme inputs")
	}
	if m.Data[0] < 0.999 {
		t.Fatalf("softmax(1e4) = %v, want ≈1", m.Data[0])
	}
}

func TestLayerNormRowsStats(t *testing.T) {
	rng := NewRNG(7)
	m := Randn(rng, 4, 32, 5)
	gamma := make([]float32, 32)
	beta := make([]float32, 32)
	for i := range gamma {
		gamma[i] = 1
	}
	LayerNormRows(m, gamma, beta, 1e-5)
	for i := 0; i < m.R; i++ {
		var mean, varsum float64
		for _, v := range m.Row(i) {
			mean += float64(v)
		}
		mean /= float64(m.C)
		for _, v := range m.Row(i) {
			d := float64(v) - mean
			varsum += d * d
		}
		variance := varsum / float64(m.C)
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean = %g, want ≈0", i, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("row %d var = %g, want ≈1", i, variance)
		}
	}
}

func TestLayerNormAffine(t *testing.T) {
	m := FromSlice(1, 2, []float32{-1, 1})
	gamma := []float32{2, 2}
	beta := []float32{5, 5}
	LayerNormRows(m, gamma, beta, 0)
	// normalized row is (-1, 1); affine → (3, 7)
	want := FromSlice(1, 2, []float32{3, 7})
	if !AllClose(m, want, 1e-4) {
		t.Fatalf("LayerNorm affine = %v want %v", m.Data, want.Data)
	}
}

func TestGeLUProperties(t *testing.T) {
	m := FromSlice(1, 3, []float32{-10, 0, 10})
	GeLU(m)
	if math.Abs(float64(m.Data[0])) > 1e-3 {
		t.Fatalf("GeLU(-10) = %v, want ≈0", m.Data[0])
	}
	if m.Data[1] != 0 {
		t.Fatalf("GeLU(0) = %v, want 0", m.Data[1])
	}
	if math.Abs(float64(m.Data[2])-10) > 1e-3 {
		t.Fatalf("GeLU(10) = %v, want ≈10", m.Data[2])
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, c := 2+rng.Intn(8), 1+rng.Intn(6)
		m := Randn(rng, r, c, 1)
		// random subset of row indices
		var idx []int
		for i := 0; i < r; i++ {
			if rng.Float64() < 0.5 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			idx = []int{0}
		}
		sub := GatherRows(m, idx)
		dst := m.Clone()
		ScatterRows(dst, sub, idx)
		return Equal(dst, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGatherRowsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GatherRows(New(2, 2), []int{5})
}

func TestScatterRowsShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScatterRows(New(3, 2), New(2, 3), []int{0, 1})
}

func TestCosineSimilarity(t *testing.T) {
	a := []float32{1, 0, 0}
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-9 {
		t.Fatalf("cos(a,a) = %g want 1", got)
	}
	b := []float32{0, 1, 0}
	if got := CosineSimilarity(a, b); math.Abs(got) > 1e-9 {
		t.Fatalf("cos(orthogonal) = %g want 0", got)
	}
	neg := []float32{-1, 0, 0}
	if got := CosineSimilarity(a, neg); math.Abs(got+1) > 1e-9 {
		t.Fatalf("cos(a,-a) = %g want -1", got)
	}
	zero := []float32{0, 0, 0}
	if got := CosineSimilarity(a, zero); got != 0 {
		t.Fatalf("cos with zero vector = %g want 0", got)
	}
}

func TestCosineSimilarityScaleInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(10)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		c1 := CosineSimilarity(a, b)
		scaled := make([]float32, n)
		for i := range a {
			scaled[i] = a[i] * 3.5
		}
		c2 := CosineSimilarity(scaled, b)
		return math.Abs(c1-c2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromSlice(1, 2, []float32{3, 4})
	if got := FrobeniusNorm(m); math.Abs(got-5) > 1e-9 {
		t.Fatalf("FrobeniusNorm = %g want 5", got)
	}
}

func TestMeanAbs(t *testing.T) {
	m := FromSlice(1, 4, []float32{-1, 1, -3, 3})
	if got := MeanAbs(m); math.Abs(got-2) > 1e-9 {
		t.Fatalf("MeanAbs = %g want 2", got)
	}
	if got := MeanAbs(New(0, 0)); got != 0 {
		t.Fatalf("MeanAbs(empty) = %g want 0", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGZeroSeedNonDegenerate(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG is stuck at zero")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(123)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %g, want ≈1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %g, want ≈1", mean)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	r.Intn(0)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := NewRNG(11)
	a := Randn(rng, 7, 5, 1)
	b := Randn(rng, 5, 9, 1)
	dst := New(7, 9)
	// pre-fill dst to verify it is cleared
	for i := range dst.Data {
		dst.Data[i] = 42
	}
	MatMulInto(dst, a, b)
	if !AllClose(dst, MatMul(a, b), 1e-6) {
		t.Fatal("MatMulInto disagrees with MatMul")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := NewRNG(1)
	x := Randn(rng, 64, 64, 1)
	y := Randn(rng, 64, 64, 1)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkGemmTile is one row group of the sd21-sim GEMMs, rows×kc×n:
// full 4-row tiles over the reductions of a head's score GEMM (16), a
// projection (64) and FFN-down (256), 64 and 256 columns wide; the 1–3-row
// remainder tiles of a masked operand; and a 32-column tail.
func BenchmarkGemmTile(b *testing.B) {
	rng := NewRNG(1)
	type shape struct{ rows, kc, n int }
	var shapes []shape
	for _, kc := range []int{16, 64, 256} {
		for _, n := range []int{64, 256} {
			shapes = append(shapes, shape{mcRows, kc, n})
		}
	}
	shapes = append(shapes, shape{1, 64, 64}, shape{2, 64, 64}, shape{3, 64, 64}, shape{mcRows, 64, 32})
	for _, s := range shapes {
		a, w, c := Randn(rng, s.rows, s.kc, 1).Data, Randn(rng, s.kc, s.n, 1).Data, make([]float32, s.rows*s.n)
		b.Run(fmt.Sprintf("%dx%dx%d", s.rows, s.kc, s.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmTile(s.kc, a, s.kc, w, s.n, c, s.n, s.rows, s.n, true)
			}
			b.ReportMetric(2*float64(s.rows*s.kc*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := NewRNG(1)
	m := Randn(rng, 256, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(m)
	}
}

func TestParallelismSettings(t *testing.T) {
	defer SetParallelism(1)
	SetParallelism(0)
	if Parallelism() != 1 {
		t.Fatal("SetParallelism(0) should clamp to 1")
	}
	SetParallelism(8)
	if Parallelism() != 8 {
		t.Fatalf("Parallelism = %d", Parallelism())
	}
}

func TestParallelMatMulBitIdentical(t *testing.T) {
	// Row-partitioned parallelism must produce bit-identical results to
	// the serial path at any goroutine budget.
	withParallelism(t, 1)
	rng := NewRNG(77)
	a := Randn(rng, 96, 64, 1)
	b := Randn(rng, 64, 80, 1)
	SetParallelism(1)
	serial := MatMul(a, b)
	serialT := MatMulT(a, Randn(NewRNG(78), 50, 64, 1))
	for _, p := range []int{2, 3, 7} {
		SetParallelism(p)
		if !Equal(MatMul(a, b), serial) {
			t.Fatalf("parallel MatMul differs at p=%d", p)
		}
		if !Equal(MatMulT(a, Randn(NewRNG(78), 50, 64, 1)), serialT) {
			t.Fatalf("parallel MatMulT differs at p=%d", p)
		}
	}
}

func TestParallelRowsCoverage(t *testing.T) {
	// Every row lands in exactly one partition, and the number of
	// partitions follows the work, not the row count.
	defer SetParallelism(1)
	SetParallelism(4)
	for _, tc := range []struct{ rows, rowFLOPs, parts int }{
		{200, minTaskFLOPs, 4},       // work to spare: the whole budget
		{200, minTaskFLOPs / 80, 2},  // 2.5 tasks' worth
		{200, minTaskFLOPs / 200, 1}, // one task's worth
		{5, 1000, 1},                 // tiny
		{6, minTaskFLOPs, 2},         // partitions are whole 4-row groups
		{3, minTaskFLOPs, 1},
	} {
		covered := make([]int32, tc.rows)
		var parts atomic.Int32
		parallelRows(tc.rows, tc.rowFLOPs, func(lo, hi int) {
			parts.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("%+v: row %d covered %d times", tc, i, c)
			}
		}
		if got := int(parts.Load()); got != tc.parts {
			t.Fatalf("%+v: %d partitions", tc, got)
		}
	}
}
