package tensor

import "fmt"

// Arena is a bump-allocating workspace for kernel intermediates: one
// float32 slab for matrix storage, one Matrix slab for headers and one int
// slab for index scratch. Get and GetRaw hand out matrices carved from the
// slabs; Reset invalidates everything handed out and recycles the storage,
// and Mark/Release do the same for a nested scope (one block's
// intermediates inside a step), so the slabs hold the deepest scope's
// working set rather than the cycle's total.
// The slabs grow to the previous cycle's peak demand on Reset, so once a
// compute cycle's shape mix is stable — e.g. the steady-state denoising
// step — every Get is served from the slabs and the cycle performs zero
// heap allocations.
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
	off   int // floats live this cycle (incl. heap overflow past len(slab))
	peak  int // highest off this cycle
	hdrs  []Matrix
	hoff  int // headers live this cycle (incl. overflow)
	hpeak int // highest hoff this cycle
	islab []int
	ioff  int // ints live this cycle (incl. overflow)
	ipeak int // highest ioff this cycle
}

// ArenaMark is a position in an arena's cycle, taken by Mark.
type ArenaMark struct{ off, hoff, ioff int }

// NewArena returns an empty arena; its slabs are sized by the first Reset
// after a warm-up cycle.
func NewArena() *Arena { return &Arena{} }

// Get returns a zeroed r×c matrix backed by the arena, for destinations a
// kernel accumulates into. It falls back to a fresh heap allocation when
// the slab is exhausted (or the receiver nil).
func (a *Arena) Get(r, c int) *Matrix {
	m := a.GetRaw(r, c)
	if a != nil {
		clear(m.Data)
	}
	return m
}

// GetRaw is Get with arbitrary contents, for destinations the caller
// overwrites in full (MatMulInto, LayerNormRowsInto, GatherRowsInto,
// FusedAttentionWS, a copy): clearing them first was 7% of a serving
// replica's CPU.
func (a *Arena) GetRaw(r, c int) *Matrix {
	if a == nil {
		return New(r, c)
	}
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %d×%d", r, c))
	}
	m := a.header()
	*m = Matrix{R: r, C: c, Data: a.floats(r * c)}
	return m
}

// floats returns n floats of scratch with arbitrary contents, carved out of
// the slab or, when it is exhausted, from the heap.
func (a *Arena) floats(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	lo := a.off
	a.off += n
	a.peak = max(a.peak, a.off)
	if a.off > len(a.slab) {
		return make([]float32, n)
	}
	return a.slab[lo:a.off:a.off]
}

// ints is floats for int scratch.
func (a *Arena) ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	lo := a.ioff
	a.ioff += n
	a.ipeak = max(a.ipeak, a.ioff)
	if a.ioff > len(a.islab) {
		return make([]int, n)
	}
	return a.islab[lo:a.ioff:a.ioff]
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
	out := a.GetRaw(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// header returns the next header slot, falling back to the heap when the
// header slab is exhausted.
func (a *Arena) header() *Matrix {
	i := a.hoff
	a.hoff++
	a.hpeak = max(a.hpeak, a.hoff)
	if i < len(a.hdrs) {
		return &a.hdrs[i]
	}
	return new(Matrix)
}

// Mark returns the arena's current position. Release(mark) invalidates
// every matrix handed out since and recycles its storage within the cycle;
// what was handed out before the mark stays valid.
func (a *Arena) Mark() ArenaMark {
	if a == nil {
		return ArenaMark{}
	}
	return ArenaMark{a.off, a.hoff, a.ioff}
}

// Release rewinds the arena to m. See Mark.
func (a *Arena) Release(m ArenaMark) {
	if a != nil {
		a.off, a.hoff, a.ioff = m.off, m.hoff, m.ioff
	}
}

// Reset starts a new cycle: it invalidates every matrix handed out since
// the previous Reset and grows the slabs to the finished cycle's demand so
// the next cycle is served allocation-free.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if a.peak > len(a.slab) {
		a.slab = make([]float32, a.peak)
	}
	if a.hpeak > len(a.hdrs) {
		a.hdrs = make([]Matrix, a.hpeak)
	}
	if a.ipeak > len(a.islab) {
		a.islab = make([]int, a.ipeak)
	}
	a.off, a.hoff, a.ioff, a.peak, a.hpeak, a.ipeak = 0, 0, 0, 0, 0, 0
}
