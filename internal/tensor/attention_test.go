package tensor

import (
	"fmt"
	"math"
	"testing"
)

// attnCase is one point of the attention property grid: every row-group
// remainder (Lq); the cross-attention context, vector-width remainders, the
// stand-in models' token counts and one and two key tiles (Lk); the
// lane-masked and full-tile head widths (d) and head counts of the three
// models.
type attnCase struct{ lq, lk, d, heads int }

func (c attnCase) String() string {
	return fmt.Sprintf("Lq%d_Lk%d_d%d_h%d", c.lq, c.lk, c.d, c.heads)
}

func attnGrid() []attnCase {
	var grid []attnCase
	for _, lq := range []int{1, 2, 3, 4, 5, 7, 8, 22, 64, 130} {
		for _, lk := range []int{4, 63, 64, 65, 144, 256, attnKTile + 44} {
			for _, d := range []int{8, 16, 24, 32} {
				for _, heads := range []int{1, 4, 8} {
					grid = append(grid, attnCase{lq, lk, d, heads})
				}
			}
		}
	}
	return grid
}

// attnInputs draws q, k, v for c; the scale is the block's 1/√d.
func attnInputs(rng *RNG, c attnCase) (q, k, v *Matrix, scale float32) {
	h := c.d * c.heads
	return Randn(rng, c.lq, h, 1), Randn(rng, c.lk, h, 1), Randn(rng, c.lk, h, 1),
		float32(1 / math.Sqrt(float64(c.d)))
}

func TestAttentionMatchesReference(t *testing.T) {
	// Against the materializing reference, on every grid point, from a
	// warm arena and into a pre-filled dst (the kernel must overwrite it).
	rng := NewRNG(31)
	ws := NewArena()
	for _, c := range attnGrid() {
		q, k, v, scale := attnInputs(rng, c)
		got := Randn(rng, c.lq, q.C, 1)
		want := New(c.lq, q.C)
		ws.Reset()
		FusedAttentionWS(ws, got, q, k, v, c.heads, scale)
		AttentionNaiveInto(want, q, k, v, c.heads, scale)
		if !AllClose(got, want, 1e-5) {
			t.Fatalf("%v: kernel vs reference maxdiff %g", c, MaxAbsDiff(got, want))
		}
	}
}

func TestAttentionRowIndependent(t *testing.T) {
	// A dst row depends only on its q row, k and v: alone, in any subset
	// of query rows, or in the full call it has the same bits — whichever
	// row group and micro-kernel it runs in. The mask-aware block relies
	// on this: a masked token's attention output cannot change with how
	// many other tokens are masked.
	rng := NewRNG(32)
	for _, c := range attnGrid() {
		q, k, v, scale := attnInputs(rng, c)
		full := New(c.lq, q.C)
		FusedAttentionInto(full, q, k, v, c.heads, scale)
		check := func(idx []int) {
			sub := New(len(idx), q.C)
			FusedAttentionInto(sub, GatherRows(q, idx), k, v, c.heads, scale)
			for r, i := range idx {
				if j, ok := sameBits(sub.Row(r), full.Row(i)); !ok {
					t.Fatalf("%v: row %d computed in subset %v differs from the full call at column %d", c, i, idx, j)
				}
			}
		}
		for _, i := range []int{0, c.lq / 2, c.lq - 1} {
			check([]int{i})
		}
		for trial := 0; trial < 3 && c.lq > 1; trial++ {
			var idx []int
			for i := 0; i < c.lq; i++ {
				if rng.Intn(2) == 1 {
					idx = append(idx, i)
				}
			}
			if len(idx) > 0 {
				check(idx)
			}
		}
	}
}

func TestAttentionParallelBitIdentical(t *testing.T) {
	rng := NewRNG(33)
	withParallelism(t, 1)
	for _, c := range attnGrid() {
		q, k, v, scale := attnInputs(rng, c)
		serial, par := New(c.lq, q.C), New(c.lq, q.C)
		SetParallelism(1)
		FusedAttentionInto(serial, q, k, v, c.heads, scale)
		for _, p := range []int{2, 4} {
			SetParallelism(p)
			FusedAttentionInto(par, q, k, v, c.heads, scale)
			if j, ok := sameBits(par.Data, serial.Data); !ok {
				t.Fatalf("%v: parallelism %d differs from serial at element %d", c, p, j)
			}
		}
	}
}

func TestAttentionAllKeysMasked(t *testing.T) {
	// A (query, head) whose every score is -Inf has every key masked out:
	// its output segment is zero, not NaN, on every grid shape — one tile,
	// several tiles, every row-group remainder — and the heads and rows
	// beside it are untouched by it.
	rng := NewRNG(34)
	for _, c := range attnGrid() {
		q, k, v, scale := attnInputs(rng, c)
		clean := New(c.lq, q.C)
		FusedAttentionInto(clean, q, k, v, c.heads, scale)
		// Head 0 of the last query row: q·k overflows to -Inf on every key.
		row := c.lq - 1
		for col := 0; col < c.d; col++ {
			q.Set(row, col, 3e38)
			for j := 0; j < c.lk; j++ {
				k.Set(j, col, -1e30)
			}
		}
		got := New(c.lq, q.C)
		FusedAttentionInto(got, q, k, v, c.heads, scale)
		for col, x := range got.Row(row)[:c.d] {
			if x != 0 {
				t.Fatalf("%v: all-masked segment[%d] = %g, want 0", c, col, x)
			}
		}
		for i, x := range got.Data {
			if x != x {
				t.Fatalf("%v: NaN at element %d", c, i)
			}
		}
		// Heads other than 0 never saw the overwritten columns.
		for i := 0; i < c.lq; i++ {
			if j, ok := sameBits(got.Row(i)[c.d:], clean.Row(i)[c.d:]); !ok {
				t.Fatalf("%v: row %d head %d changed when head 0 was masked out", c, i, 1+j/c.d)
			}
		}
	}
}

func TestAttentionZeroAllocsWarmArena(t *testing.T) {
	// Over a plain V and over the template's V with fresh rows, up to
	// flux-sim's 8 heads × 256 keys and two key tiles.
	rng := NewRNG(35)
	for _, c := range []attnCase{{1, 64, 16, 4}, {7, 64, 16, 4}, {64, 64, 16, 4}, {22, 144, 24, 4}, {64, 4, 16, 8},
		{130, 256, 16, 8}, {40, 256, 16, 8}, {7, attnKTile + 44, 24, 4}} {
		q, k, v, scale := attnInputs(rng, c)
		idx := []int{0, c.lk/2 - 1, c.lk / 2, c.lk - 1}
		fresh := ValuesOf(v).WithRows(Randn(rng, len(idx), v.C, 1), idx)
		dst := New(c.lq, q.C)
		ws := NewArena()
		run := func() {
			ws.Reset()
			FusedAttentionWS(ws, dst, q, k, v, c.heads, scale)
			FusedAttentionPacked(ws, dst, q, PackKeysInto(ws.floats(k.R*k.C), k, scale), fresh, c.heads)
		}
		run() // sizes the arena
		if n := testing.AllocsPerRun(10, run); n != 0 {
			t.Errorf("%v: %v allocs/op with a warm arena, want 0", c, n)
		}
	}
}

func TestAttentionPackedEqualsScattered(t *testing.T) {
	// Attention over keys packed once, a random set of them replaced by fresh
	// rows written into a copy of the pack (WithRows), has the bits of
	// attention over the key matrix with those rows scattered in and packed
	// per call — on every grid shape (one key tile and two, every row-group
	// remainder), for one replaced key, a random set in random order and all
	// of them, serial and split across workers, from a warm arena into a
	// pre-filled dst. The pack is left as it was: the next call reads it
	// again.
	rng := NewRNG(36)
	ws := NewArena()
	withParallelism(t, 1)
	for _, c := range attnGrid() {
		q, k, v, scale := attnInputs(rng, c)
		keys := PackKeysInto(make([]float32, c.lk*k.C), k, scale)
		pack := append([]float32(nil), keys.kt...)
		sets := [][]int{{rng.Intn(c.lk)}, nil, nil}
		for j := 0; j < c.lk; j++ {
			if rng.Intn(3) == 0 {
				sets[1] = append(sets[1], j)
			}
			sets[2] = append(sets[2], j)
		}
		for i := len(sets[1]) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			sets[1][i], sets[1][j] = sets[1][j], sets[1][i]
		}
		for _, idx := range sets {
			kM := Randn(rng, len(idx), k.C, 1)
			scattered := k.Clone()
			ScatterRows(scattered, kM, idx)
			want, got := New(c.lq, q.C), Randn(rng, c.lq, q.C, 1)
			FusedAttentionInto(want, q, scattered, v, c.heads, scale)
			for _, p := range []int{1, 2} {
				SetParallelism(p)
				ws.Reset()
				FusedAttentionPacked(ws, got, q, keys.WithRows(ws, kM, idx), ValuesOf(v), c.heads)
				if j, ok := sameBits(got.Data, want.Data); !ok {
					t.Fatalf("%v, %d keys replaced, parallelism %d: differs from scatter-then-pack at element %d", c, len(idx), p, j)
				}
			}
			SetParallelism(1)
		}
		if j, ok := sameBits(keys.kt, pack); !ok {
			t.Fatalf("%v: the pack was written at element %d", c, j)
		}
	}
}

func TestAttentionPackedZeroAllocsWarmArena(t *testing.T) {
	// A derived lane's attention: the template's packed K and its V, the
	// masked rows' fresh K written into a copy of the pack and their fresh
	// V taken where they stand — at sd21-sim's shape and flux-sim's.
	rng := NewRNG(37)
	for _, c := range []attnCase{{7, 64, 16, 4}, {7, 256, 16, 8}} {
		q, k, v, scale := attnInputs(rng, c)
		keys := PackKeysInto(make([]float32, c.lk*k.C), k, scale)
		idx := []int{3, 9, 10, 40, 41, 42, 63}
		kM, vM, dst, ws := Randn(rng, len(idx), k.C, 1), Randn(rng, len(idx), v.C, 1), New(c.lq, q.C), NewArena()
		run := func() {
			ws.Reset()
			FusedAttentionPacked(ws, dst, q, keys.WithRows(ws, kM, idx), ValuesOf(v).WithRows(vM, idx), c.heads)
		}
		run() // sizes the arena
		if n := testing.AllocsPerRun(10, run); n != 0 {
			t.Errorf("%v: %v allocs/op with a warm arena, want 0", c, n)
		}
	}
}
