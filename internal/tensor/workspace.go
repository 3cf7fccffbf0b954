package tensor

import "fmt"

// Arena is a bump-allocating workspace for kernel intermediates: one
// float32 slab for matrix storage and one Matrix slab for headers. Get
// hands out matrices carved from the slabs; Reset invalidates everything
// handed out and recycles the storage. The slabs grow to the previous
// cycle's peak demand on Reset, so once a compute cycle's shape mix is
// stable — e.g. the steady-state denoising step — every Get is served from
// the slabs and the cycle performs zero heap allocations.
//
// All methods are nil-receiver-safe: a nil *Arena degrades to fresh heap
// allocations, so code can thread an optional workspace without branching.
//
// Ownership rules (see DESIGN.md §kernels): the producer of a cycle owns
// its arena and calls Reset exactly once per cycle; matrices returned by
// Get/Wrap/Clone are valid only until that Reset, and anything retained
// beyond it (cached activations, returned results) must be deep-copied
// with Matrix.Clone first. An Arena is not safe for concurrent use.
type Arena struct {
	slab  []float32
	off   int // floats handed out from slab this cycle
	want  int // total floats demanded this cycle (incl. overflow)
	hdrs  []Matrix
	hoff  int // headers handed out from hdrs this cycle
	hwant int // total headers demanded this cycle
}

// NewArena returns an empty arena; its slabs are sized by the first Reset
// after a warm-up cycle.
func NewArena() *Arena { return &Arena{} }

// Get returns a zeroed r×c matrix backed by the arena, falling back to a
// fresh heap allocation when the slab is exhausted (or the receiver nil).
func (a *Arena) Get(r, c int) *Matrix {
	if a == nil {
		return New(r, c)
	}
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %d×%d", r, c))
	}
	data, fresh := a.alloc(r * c)
	if !fresh {
		clear(data)
	}
	m := a.header()
	*m = Matrix{R: r, C: c, Data: data}
	return m
}

// floats returns n floats of scratch with arbitrary contents, for buffers
// the caller overwrites in full.
func (a *Arena) floats(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	data, _ := a.alloc(n)
	return data
}

// alloc carves n floats out of the slab, or from the heap (fresh, hence
// zeroed) when the slab is exhausted.
func (a *Arena) alloc(n int) (data []float32, fresh bool) {
	a.want += n
	if a.off+n > len(a.slab) {
		return make([]float32, n), true
	}
	data = a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	return data, false
}

// Wrap returns an r×c matrix header over data without copying, using an
// arena-backed header. It panics if len(data) != r*c.
func (a *Arena) Wrap(r, c int, data []float32) *Matrix {
	if a == nil {
		return FromSlice(r, c, data)
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: data length %d != %d×%d", len(data), r, c))
	}
	m := a.header()
	*m = Matrix{R: r, C: c, Data: data}
	return m
}

// Clone returns an arena-backed deep copy of m.
func (a *Arena) Clone(m *Matrix) *Matrix {
	out := a.Get(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// header returns the next header slot, falling back to the heap when the
// header slab is exhausted.
func (a *Arena) header() *Matrix {
	a.hwant++
	if a.hoff < len(a.hdrs) {
		m := &a.hdrs[a.hoff]
		a.hoff++
		return m
	}
	return new(Matrix)
}

// Reset starts a new cycle: it invalidates every matrix handed out since
// the previous Reset and grows the slabs to the finished cycle's demand so
// the next cycle is served allocation-free.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if a.want > len(a.slab) {
		a.slab = make([]float32, a.want)
	}
	if a.hwant > len(a.hdrs) {
		a.hdrs = make([]Matrix, a.hwant)
	}
	a.off, a.hoff, a.want, a.hwant = 0, 0, 0, 0
}
