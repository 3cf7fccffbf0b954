// Package tensor provides dense float32 matrices and the small set of
// numeric kernels needed by the FlashPS transformer substrate: matrix
// multiplication, row-wise softmax, layer normalization, GeLU, and
// row gather/scatter used by mask-aware attention.
//
// All operations are deterministic and single-threaded unless stated
// otherwise, so experiments are exactly reproducible across runs.
//
// Determinism contract, within one build (AVX2 or portable — the two
// differ from each other only by the GEMM's fused multiply-add rounding):
//
//   - every kernel is bit-identical at any SetParallelism setting;
//   - a MatMulInto dst row depends only on its a row and on b, not on its
//     row index or on which other rows are computed with it (matmul.go);
//     likewise a FusedAttentionInto dst row depends only on its q row, k
//     and v (attention.go);
//   - exp and GeLU of a value do not depend on its position in the slice
//     or on the slice length, and the vector kernels, their scalar tails
//     and the portable code agree bit for bit (vecmath.go).
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix with R rows and C columns.
// A Matrix with R*C == len(Data) is valid; the zero Matrix is an empty
// 0×0 matrix.
type Matrix struct {
	R, C int
	Data []float32
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %d×%d", r, c))
	}
	return &Matrix{R: r, C: c, Data: make([]float32, r*c)}
}

// FromSlice wraps data as an r×c matrix without copying.
// It panics if len(data) != r*c.
func FromSlice(r, c int, data []float32) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: data length %d != %d×%d", len(data), r, c))
	}
	return &Matrix{R: r, C: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.C+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.C+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Shape returns (rows, cols).
func (m *Matrix) Shape() (int, int) { return m.R, m.C }

// Equal reports whether a and b have identical shape and elements.
func Equal(a, b *Matrix) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether a and b have the same shape and all elements
// within tol of each other.
func AllClose(a, b *Matrix, tol float64) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(float64(v)-float64(b.Data[i])) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// a and b. It panics on shape mismatch.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.R != b.R || a.C != b.C {
		panic("tensor: shape mismatch in MaxAbsDiff")
	}
	var max float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// String implements fmt.Stringer with a compact shape-only description.
func (m *Matrix) String() string { return fmt.Sprintf("Matrix(%d×%d)", m.R, m.C) }
