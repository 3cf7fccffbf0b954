package tensor

import (
	"fmt"
	"math"
)

// MatMul computes a × b and returns a new (a.R × b.C) matrix.
// It panics if a.C != b.R.
func MatMul(a, b *Matrix) *Matrix {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v × %v", a, b))
	}
	out := New(a.R, b.C)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes a × b into dst, which must be a.R × b.C.
// dst may not alias a or b. The kernel is cache-blocked and register-tiled
// (see matmul.go); results are bit-identical at any parallelism setting,
// and each dst row depends only on its a row and on b.
func MatMulInto(dst, a, b *Matrix) { matMulInto(dst, a, b, false) }

// MatMulGeLUInto computes GeLU(a × b) into dst: MatMulInto with GeLU as
// the GEMM's epilogue, applied to each finished row group while it is
// still in L1 (the FFN's first projection). Bit-identical to MatMulInto
// followed by GeLU.
func MatMulGeLUInto(dst, a, b *Matrix) { matMulInto(dst, a, b, true) }

func matMulInto(dst, a, b *Matrix, gelu bool) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch dst=%v a=%v b=%v", dst, a, b))
	}
	flops := 2 * a.C * b.C
	if !shouldParallelize(a.R, flops) {
		matMulRange(dst, a, b, 0, a.R, gelu)
		return
	}
	parallelRows(a.R, flops, func(lo, hi int) { matMulRange(dst, a, b, lo, hi, gelu) })
}

// MatMulNaiveInto is the reference ikj matmul this package shipped before
// the blocked kernel, kept as the property-test oracle and the "before"
// side of the kernel benchmarks. Single-threaded.
func MatMulNaiveInto(dst, a, b *Matrix) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("tensor: MatMulNaiveInto shape mismatch dst=%v a=%v b=%v", dst, a, b))
	}
	k, m := a.C, b.C
	for i := 0; i < a.R; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*m : (i+1)*m]
		for j := range drow {
			drow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*m : (p+1)*m]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulT computes a × bᵀ and returns a new (a.R × b.R) matrix.
// It panics if a.C != b.C. This is the natural layout for Q·Kᵀ.
func MatMulT(a, b *Matrix) *Matrix {
	out := New(a.R, b.R)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes a × bᵀ into dst, which must be a.R × b.R.
// dst may not alias a or b.
func MatMulTInto(dst, a, b *Matrix) {
	if a.C != b.C || dst.R != a.R || dst.C != b.R {
		panic(fmt.Sprintf("tensor: MatMulTInto shape mismatch dst=%v a=%v × %vᵀ", dst, a, b))
	}
	flops := 2 * a.C * b.R
	if !shouldParallelize(a.R, flops) {
		matMulTRange(dst, a, b, 0, a.R)
		return
	}
	parallelRows(a.R, flops, func(lo, hi int) { matMulTRange(dst, a, b, lo, hi) })
}

// Transpose returns a new matrix that is mᵀ.
func Transpose(m *Matrix) *Matrix {
	out := New(m.C, m.R)
	TransposeInto(out, m)
	return out
}

// TransposeInto writes mᵀ into dst, which must be m.C × m.R and may not
// alias m. It walks trBlock×trBlock tiles so both the row-major reads and
// the column-major writes stay inside a cache-resident tile, instead of
// striding the full output once per input row.
func TransposeInto(dst, m *Matrix) {
	if dst.R != m.C || dst.C != m.R {
		panic(fmt.Sprintf("tensor: TransposeInto shape mismatch dst=%v m=%v", dst, m))
	}
	for i0 := 0; i0 < m.R; i0 += trBlock {
		i1 := i0 + trBlock
		if i1 > m.R {
			i1 = m.R
		}
		for j0 := 0; j0 < m.C; j0 += trBlock {
			j1 := j0 + trBlock
			if j1 > m.C {
				j1 = m.C
			}
			for i := i0; i < i1; i++ {
				row := m.Data[i*m.C : (i+1)*m.C]
				for j := j0; j < j1; j++ {
					dst.Data[j*m.R+i] = row[j]
				}
			}
		}
	}
}

// Add returns a + b element-wise. It panics on shape mismatch.
func Add(a, b *Matrix) *Matrix {
	if a.R != b.R || a.C != b.C {
		panic("tensor: Add shape mismatch")
	}
	out := New(a.R, a.C)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInto writes a + b element-wise into dst (which may alias a or b).
// It panics on shape mismatch.
func AddInto(dst, a, b *Matrix) {
	if a.R != b.R || a.C != b.C || dst.R != a.R || dst.C != a.C {
		panic("tensor: AddInto shape mismatch")
	}
	AddVec(dst.Data, a.Data, b.Data)
}

// AddInPlace adds b into a element-wise.
func AddInPlace(a, b *Matrix) {
	if a.R != b.R || a.C != b.C {
		panic("tensor: AddInPlace shape mismatch")
	}
	AddVec(a.Data, a.Data, b.Data)
}

// AddRowVecInto writes m[i][j] + v[j] into dst[i][j]: v added to every row
// of m, one correctly rounded add per element as in AddVec. dst may be m.
// It panics on shape mismatch.
func AddRowVecInto(dst, m *Matrix, v []float32) {
	if dst.R != m.R || dst.C != m.C || len(v) != m.C {
		panic("tensor: AddRowVecInto shape mismatch")
	}
	n := m.C
	n8 := 0
	if level >= levelAVX2 {
		n8 = n &^ 7
	}
	for i := 0; i < m.R; i++ {
		d, a := dst.Data[i*n:(i+1)*n], m.Data[i*n:(i+1)*n]
		if n8 > 0 {
			addAVX8(&d[0], &a[0], &v[0], n8)
		}
		for j := n8; j < n; j++ {
			d[j] = a[j] + v[j]
		}
	}
}

// Sub returns a - b element-wise.
func Sub(a, b *Matrix) *Matrix {
	if a.R != b.R || a.C != b.C {
		panic("tensor: Sub shape mismatch")
	}
	out := New(a.R, a.C)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Scale multiplies every element of m by s in place and returns m.
func Scale(m *Matrix, s float32) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// softmaxBatch is how many rows SoftmaxRows gives one weight pass.
const softmaxBatch = 16

// SoftmaxRows applies a numerically stable softmax to each row of m in
// place, in float32 (see vecmath.go): attention's weight pass
// (softmaxWeights), softmaxBatch rows at a time, then each row times
// 1/sum. A matrix with no columns is left alone, and a row whose scores are
// all -Inf — every key masked out — becomes all zeros rather than NaN;
// FusedAttentionInto defines the same.
func SoftmaxRows(m *Matrix) {
	if m.C == 0 {
		return
	}
	var mx, sum [softmaxBatch]float32
	for i := 0; i < m.R; i += softmaxBatch {
		rows := min(softmaxBatch, m.R-i)
		for k := range mx {
			mx[k] = float32(math.Inf(-1))
		}
		softmaxWeights(m.Data[i*m.C:], m.C, m.C, rows, mx[:], sum[:])
		for k := 0; k < rows; k++ {
			if !math.IsInf(float64(mx[k]), -1) {
				scaleVec(m.Row(i+k), 1/sum[k])
			}
		}
	}
}

// LayerNormRows normalizes each row of m to zero mean and unit variance,
// then applies the per-column affine parameters gamma and beta
// (each of length m.C). eps guards against zero variance.
func LayerNormRows(m *Matrix, gamma, beta []float32, eps float32) {
	LayerNormRowsInto(m, m, gamma, beta, eps)
}

// LayerNormRowsInto writes LayerNormRows(src) into dst, which must have
// src's shape and may be src itself; src is otherwise left untouched, so
// callers need no copy to normalize out of place. Each row depends only on
// itself, so results are bit-identical at any parallelism setting.
func LayerNormRowsInto(dst, src *Matrix, gamma, beta []float32, eps float32) {
	if dst.R != src.R || dst.C != src.C {
		panic(fmt.Sprintf("tensor: LayerNormRowsInto shape mismatch dst=%v src=%v", dst, src))
	}
	if len(gamma) != src.C || len(beta) != src.C {
		panic("tensor: LayerNormRows parameter length mismatch")
	}
	if src.C == 0 {
		return
	}
	layerNormRows(dst.Data, src.Data, gamma, beta, src.C, src.R, eps)
}

// GeLU applies the Gaussian Error Linear Unit (tanh approximation) to every
// element of m in place; see geluf for the float32 formulation.
func GeLU(m *Matrix) { geluSlice(m.Data) }

// GatherRows returns a new matrix whose rows are m's rows at the given
// indices, in order. It panics if any index is out of range.
func GatherRows(m *Matrix, idx []int) *Matrix {
	out := New(len(idx), m.C)
	GatherRowsInto(out, m, idx)
	return out
}

// GatherRowsInto copies m's rows at the given indices into dst in order:
// dst[i] = m[idx[i]]. It panics if dst is not len(idx)×m.C or any index is
// out of range.
func GatherRowsInto(dst, m *Matrix, idx []int) {
	if dst.R != len(idx) || dst.C != m.C {
		panic(fmt.Sprintf("tensor: GatherRowsInto shape mismatch dst=%v, want %d×%d", dst, len(idx), m.C))
	}
	for i, r := range idx {
		if r < 0 || r >= m.R {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of range [0,%d)", r, m.R))
		}
		copy(dst.Row(i), m.Row(r))
	}
}

// ScatterRows copies src's rows into dst at the given row indices:
// dst[idx[i]] = src[i]. It panics if len(idx) != src.R or on column mismatch.
func ScatterRows(dst, src *Matrix, idx []int) {
	if len(idx) != src.R {
		panic("tensor: ScatterRows index length mismatch")
	}
	if dst.C != src.C {
		panic("tensor: ScatterRows column mismatch")
	}
	for i, r := range idx {
		if r < 0 || r >= dst.R {
			panic(fmt.Sprintf("tensor: ScatterRows index %d out of range [0,%d)", r, dst.R))
		}
		copy(dst.Row(r), src.Row(i))
	}
}

// CosineSimilarity returns the cosine similarity of vectors a and b.
// It returns 0 if either vector has zero norm.
func CosineSimilarity(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: CosineSimilarity length mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// FrobeniusNorm returns the Frobenius norm of m.
func FrobeniusNorm(m *Matrix) float64 {
	var sum float64
	for _, v := range m.Data {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

// MeanAbs returns the mean absolute value of m's elements, or 0 if empty.
func MeanAbs(m *Matrix) float64 {
	if len(m.Data) == 0 {
		return 0
	}
	var sum float64
	for _, v := range m.Data {
		sum += math.Abs(float64(v))
	}
	return sum / float64(len(m.Data))
}
