package tensor

import (
	"testing"
)

// oddShapes exercises the blocked kernels' remainder paths: single rows,
// sizes straddling the 4-row micro-kernel, the kcBlock reduction panel, and
// the trBlock transpose tile.
var oddShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 17, 3},
	{3, 5, 7},
	{4, 4, 4},
	{5, 300, 9},  // k > kcBlock: multiple reduction panels
	{17, 33, 65}, // tile remainders on every axis
	{34, 16, 34},
}

// withParallelism sets the parallelism budget for the test and lowers the
// split threshold so that every call with rows to spare is partitioned.
func withParallelism(t *testing.T, p int) {
	t.Helper()
	old, oldMin := Parallelism(), minTaskFLOPs
	SetParallelism(p)
	minTaskFLOPs = 1
	t.Cleanup(func() { SetParallelism(old); minTaskFLOPs = oldMin })
}

// atLevel runs fn with the process's kernel level set to l, which must not
// be above what the host supports.
func atLevel(l kernelLevel, fn func()) {
	old := level
	level = l
	defer func() { level = old }()
	fn()
}

// portable runs fn on the Go reference arithmetic of the portable level.
func portable(fn func()) { atLevel(levelPortable, fn) }

// levelsUpTo lists the kernel levels from portable to this process's.
func levelsUpTo() []kernelLevel {
	var ls []kernelLevel
	for l := levelPortable; l <= level; l++ {
		ls = append(ls, l)
	}
	return ls
}

func TestMatMulIntoMatchesNaive(t *testing.T) {
	rng := NewRNG(11)
	for _, s := range oddShapes {
		a := Randn(rng, s.m, s.k, 1)
		b := Randn(rng, s.k, s.n, 1)
		got := New(s.m, s.n)
		want := New(s.m, s.n)
		MatMulInto(got, a, b)
		MatMulNaiveInto(want, a, b)
		if !AllClose(got, want, 1e-5) {
			t.Fatalf("%d×%d×%d: blocked vs naive maxdiff %g", s.m, s.k, s.n, MaxAbsDiff(got, want))
		}
	}
}

func TestMatMulTIntoMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(12)
	for _, s := range oddShapes {
		a := Randn(rng, s.m, s.k, 1)
		b := Randn(rng, s.n, s.k, 1)
		got := New(s.m, s.n)
		MatMulTInto(got, a, b)
		want := New(s.m, s.n)
		MatMulNaiveInto(want, a, Transpose(b))
		// 1e-4: the 4-accumulator dot reassociates long (k=300) reductions.
		if !AllClose(got, want, 1e-4) {
			t.Fatalf("%d×%d×%d: MatMulT vs transpose oracle maxdiff %g", s.m, s.k, s.n, MaxAbsDiff(got, want))
		}
	}
}

func TestTransposeIntoOddShapes(t *testing.T) {
	rng := NewRNG(13)
	// Straddle the trBlock tile on both axes.
	for _, s := range [][2]int{{1, 1}, {1, 40}, {40, 1}, {31, 33}, {64, 64}, {65, 70}} {
		m := Randn(rng, s[0], s[1], 1)
		tr := Transpose(m)
		for i := 0; i < m.R; i++ {
			for j := 0; j < m.C; j++ {
				if tr.At(j, i) != m.At(i, j) {
					t.Fatalf("%v transpose wrong at (%d,%d)", s, i, j)
				}
			}
		}
	}
}

// attnShapes covers the fused kernel's edge cases: single query, tile
// remainders (L=17, L=attnKTile+1), masked-query gathers (Lq < Lk), and
// heads that do not divide the hidden dimension.
var attnShapes = []struct{ lq, lk, h, heads int }{
	{1, 1, 8, 2},
	{1, 17, 16, 4},
	{17, 17, 16, 4},
	{5, 17, 16, 1},
	{3, attnKTile + 1, 16, 2},   // lk straddles attnKTile
	{9, 2*attnKTile + 2, 24, 3}, // multiple K tiles
	{10, 10, 10, 3},             // heads ∤ hidden: trailing column carries no head
	{4, 4, 6, 8},                // headDim 0: defined as all-zero output
}

func TestFusedAttentionMatchesNaive(t *testing.T) {
	rng := NewRNG(14)
	for _, s := range attnShapes {
		q := Randn(rng, s.lq, s.h, 1)
		k := Randn(rng, s.lk, s.h, 1)
		v := Randn(rng, s.lk, s.h, 1)
		scale := float32(0.5)
		got := Randn(rng, s.lq, s.h, 1) // pre-filled: kernel must fully overwrite
		want := New(s.lq, s.h)
		FusedAttentionInto(got, q, k, v, s.heads, scale)
		AttentionNaiveInto(want, q, k, v, s.heads, scale)
		if !AllClose(got, want, 1e-5) {
			t.Fatalf("%+v: fused vs naive maxdiff %g", s, MaxAbsDiff(got, want))
		}
	}
}

func TestFusedAttentionExtremeScores(t *testing.T) {
	// Large score magnitudes force the online-softmax rescaling path; the
	// naive reference subtracts the row max, so agreement here proves the
	// running-max bookkeeping.
	rng := NewRNG(15)
	q := Randn(rng, 8, 16, 30)
	k := Randn(rng, attnKTile+6, 16, 30)
	v := Randn(rng, attnKTile+6, 16, 1)
	got := New(8, 16)
	want := New(8, 16)
	FusedAttentionInto(got, q, k, v, 4, 1)
	AttentionNaiveInto(want, q, k, v, 4, 1)
	if !AllClose(got, want, 1e-4) {
		t.Fatalf("fused vs naive under extreme scores: maxdiff %g", MaxAbsDiff(got, want))
	}
}

func TestKernelsParallelBitIdentical(t *testing.T) {
	// The determinism contract: any parallelism setting must produce results
	// bit-identical to serial execution, because each output row is computed
	// by exactly one worker in a fixed accumulation order. Every kernel of
	// the step is pinned, row-partitioned or not.
	rng := NewRNG(16)
	a := Randn(rng, 130, 96, 1)
	b := Randn(rng, 96, 80, 1)
	bt := Randn(rng, 80, 96, 1)
	q := Randn(rng, 130, 64, 1)
	k := Randn(rng, 130, 64, 1)
	v := Randn(rng, 130, 64, 1)
	gamma, beta := Randn(rng, 1, 96, 1).Data, Randn(rng, 1, 96, 1).Data

	kernels := []struct {
		name string
		run  func() *Matrix
	}{
		{"MatMulInto", func() *Matrix { o := New(130, 80); MatMulInto(o, a, b); return o }},
		{"MatMulGeLUInto", func() *Matrix { o := New(130, 80); MatMulGeLUInto(o, a, b); return o }},
		{"MatMulTInto", func() *Matrix { o := New(130, 80); MatMulTInto(o, a, bt); return o }},
		{"FusedAttentionInto", func() *Matrix { o := New(130, 64); FusedAttentionInto(o, q, k, v, 4, 0.125); return o }},
		{"LayerNormRowsInto", func() *Matrix { o := New(130, 96); LayerNormRowsInto(o, a, gamma, beta, 1e-5); return o }},
		{"SoftmaxRows", func() *Matrix { o := a.Clone(); SoftmaxRows(o); return o }},
		{"GeLU", func() *Matrix { o := a.Clone(); GeLU(o); return o }},
		{"Exp", func() *Matrix { o := a.Clone(); Exp(o.Data); return o }},
	}
	withParallelism(t, 1)
	serial := make([]*Matrix, len(kernels))
	for i, kn := range kernels {
		serial[i] = kn.run()
	}
	for _, p := range []int{2, 3, 4, 8} {
		SetParallelism(p)
		for i, kn := range kernels {
			if j, ok := sameBits(kn.run().Data, serial[i].Data); !ok {
				t.Fatalf("%s not bit-identical at parallelism %d (element %d)", kn.name, p, j)
			}
		}
	}
}

func TestSerialKernelsZeroAllocs(t *testing.T) {
	rng := NewRNG(17)
	a := Randn(rng, 23, 32, 1) // 23 rows: full tiles and a 3-row remainder
	b := Randn(rng, 32, 24, 1) // 24 columns: a full tile and an 8-column remainder
	dst := New(23, 24)
	sq := New(24, 24)
	q := Randn(rng, 24, 32, 1)
	k := Randn(rng, 24, 32, 1)
	v := Randn(rng, 24, 32, 1)
	o := New(24, 32)
	ln := New(23, 32)
	gamma, beta := Randn(rng, 1, 32, 1).Data, Randn(rng, 1, 32, 1).Data
	ws := NewArena()
	FusedAttentionWS(ws, o, q, k, v, 4, 0.1) // size the arena
	cases := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto", func() { MatMulInto(dst, a, b) }},
		{"MatMulGeLUInto", func() { MatMulGeLUInto(dst, a, b) }},
		{"MatMulTInto", func() { MatMulTInto(sq, q, k) }},
		{"FusedAttentionWS", func() { ws.Reset(); FusedAttentionWS(ws, o, q, k, v, 4, 0.1) }},
		{"TransposeInto", func() { TransposeInto(sq, sq) }},
		{"LayerNormRowsInto", func() { LayerNormRowsInto(ln, a, gamma, beta, 1e-5) }},
		{"LayerNormRows", func() { LayerNormRows(ln, gamma, beta, 1e-5) }},
		{"SoftmaxRows", func() { SoftmaxRows(sq) }},
		{"GeLU", func() { GeLU(dst) }},
		{"Exp", func() { Exp(dst.Data) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(10, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op on the serial path, want 0", tc.name, n)
		}
	}
}

func TestArenaGetZeroedAndSized(t *testing.T) {
	ws := NewArena()
	m := ws.Get(3, 5)
	if m.R != 3 || m.C != 5 {
		t.Fatalf("Get shape %v", m)
	}
	for i := range m.Data {
		m.Data[i] = 7
	}
	ws.Reset()
	m2 := ws.Get(3, 5)
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("Get after Reset must return zeroed memory")
		}
	}
}

func TestArenaWrapAliases(t *testing.T) {
	ws := NewArena()
	backing := []float32{1, 2, 3, 4, 5, 6}
	m := ws.Wrap(2, 3, backing)
	m.Set(1, 2, 42)
	if backing[5] != 42 {
		t.Fatal("Wrap must alias the provided slice")
	}
	// Nil arena falls back to heap allocation.
	var nilWS *Arena
	hm := nilWS.Get(2, 2)
	if hm.R != 2 || hm.C != 2 {
		t.Fatalf("nil-arena Get shape %v", hm)
	}
	if w := nilWS.Wrap(2, 3, backing); w.At(1, 2) != 42 {
		t.Fatal("nil-arena Wrap must alias")
	}
}

func TestArenaSteadyStateZeroAllocs(t *testing.T) {
	ws := NewArena()
	cycle := func() {
		ws.Reset()
		a := ws.Get(16, 16)
		b := ws.Get(16, 16)
		c := ws.Get(16, 16)
		MatMulInto(c, a, b)
		_ = ws.Wrap(1, 16, c.Row(0))
		_ = ws.Clone(c)
	}
	cycle() // first cycle measures demand
	cycle() // second runs fully slab-backed
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("steady-state arena cycle: %v allocs/op, want 0", n)
	}
}

func TestArenaOverflowFallsBackToHeap(t *testing.T) {
	ws := NewArena()
	// Far beyond the (empty) slab: must still return usable zeroed memory.
	m := ws.Get(100, 100)
	m.Set(99, 99, 1)
	if m.At(99, 99) != 1 {
		t.Fatal("overflow matrix unusable")
	}
	ws.Reset()
	// After Reset the slab has grown to cover the demand.
	if n := testing.AllocsPerRun(10, func() {
		ws.Reset()
		ws.Get(100, 100)
	}); n != 0 {
		t.Fatalf("post-growth Get allocates %v/op, want 0", n)
	}
}

func TestAddIntoAliasingAndGatherRowsInto(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 2, []float32{10, 20, 30, 40})
	AddInto(a, a, b) // dst aliases a
	want := []float32{11, 22, 33, 44}
	for i, v := range a.Data {
		if v != want[i] {
			t.Fatalf("AddInto aliasing: got %v", a.Data)
		}
	}
	src := FromSlice(3, 2, []float32{1, 1, 2, 2, 3, 3})
	dst := New(2, 2)
	GatherRowsInto(dst, src, []int{2, 0})
	if dst.At(0, 0) != 3 || dst.At(1, 0) != 1 {
		t.Fatalf("GatherRowsInto: got %v", dst.Data)
	}
}

func TestAddRowVecInto(t *testing.T) {
	// At every level, out of place and in place, with and without a scalar
	// tail: each element is m[i][j] + v[j], one rounded add.
	rng := NewRNG(29)
	for _, c := range []int{3, 8, 13, 64} {
		m, v := Randn(rng, 5, c, 1), Randn(rng, 1, c, 1).Data
		want := New(5, c)
		for i := range want.Data {
			want.Data[i] = m.Data[i] + v[i%c]
		}
		for _, l := range levelsUpTo() {
			got, in := New(5, c), m.Clone()
			atLevel(l, func() { AddRowVecInto(got, m, v); AddRowVecInto(in, in, v) })
			if i, ok := exactBits(got.Data, want.Data); !ok {
				t.Fatalf("C=%d %v: AddRowVecInto[%d] = %g, want %g", c, l, i, got.Data[i], want.Data[i])
			}
			if i, ok := exactBits(in.Data, want.Data); !ok {
				t.Fatalf("C=%d %v: in-place AddRowVecInto[%d] = %g, want %g", c, l, i, in.Data[i], want.Data[i])
			}
		}
	}
}
