package tensor

// Cache-blocked, register-tiled dense matmul kernels.
//
// The micro-kernel accumulates mcRows rows of dst at once against each
// streamed row of b, so every loaded b row is reused mcRows times and the
// inner loop carries mcRows independent FMA chains (the scalar analogue of
// a register tile). The reduction dimension is processed in kcBlock panels
// so the active slice of b stays cache-resident across the row sweep.
//
// Determinism contract: every dst element is one accumulation chain over
// its own a row and b column — ascending p from +0 inside a kcBlock panel,
// panels added in ascending order — whichever micro-kernel, row group,
// column tile or worker partition it lands in. So results are bit-identical
// at any parallelism setting, and a dst row depends only on its a row and
// on b: computing a row alone, in any subset of rows, or in the full matrix
// gives the same bits (TestMatMulRowIndependent). The mask-aware block
// relies on this — a masked token's projections cannot change with how many
// other tokens are masked. The AVX2 kernels fuse each step (FMA) and the
// portable kernels round the product first, so the two builds differ from
// each other in the last bits; within a build the contract holds.

const (
	// mcRows is the micro-kernel height: rows of a/dst accumulated per
	// b-row load.
	mcRows = 4
	// ncCols is the AVX2 micro-kernel width (two YMM registers).
	ncCols = 16
	// kcBlock is the reduction panel width; kcBlock rows of b (kcBlock×C
	// floats) are swept per row group to stay cache-resident.
	kcBlock = 256
	// trBlock is the tile edge of the blocked transpose: a trBlock²
	// float32 tile (4 KiB at 32) fits in L1 for both the row-major reads
	// and the column-major writes.
	trBlock = 32
)

// matMulRange computes rows [lo, hi) of dst = a × b, then applies GeLU to
// them if gelu is set (each row group while it is still in L1).
//
// On AVX2 hardware everything runs in assembly: full 4-row × 16-column
// tiles in gemm4x16, the 1–3 remainder rows and the < 16 remainder columns
// in gemmEdge, both with the same per-element FMA chain. The first
// reduction panel stores its tile, later panels add to it, so dst needs no
// clearing.
func matMulRange(dst, a, b *Matrix, lo, hi int, gelu bool) {
	k, m := a.C, b.C
	if m == 0 {
		return
	}
	if k == 0 || !useAVX2 {
		matMulRangePortable(dst, a, b, lo, hi)
		if gelu {
			geluSlice(dst.Data[lo*m : hi*m])
		}
		return
	}
	for p0 := 0; p0 < k; p0 += kcBlock {
		kc := min(kcBlock, k-p0)
		first := p0 == 0
		for i := lo; i < hi; i += mcRows {
			rows := min(mcRows, hi-i)
			ap := &a.Data[i*k+p0]
			j := 0
			if rows == mcRows {
				for ; j+ncCols <= m; j += ncCols {
					gemm4x16(kc, ap, k, &b.Data[p0*m+j], m, &dst.Data[i*m+j], m, first)
				}
			}
			for ; j < m; j += ncCols {
				cols := min(ncCols, m-j)
				gemmEdge(kc, ap, k, &b.Data[p0*m+j], m, &dst.Data[i*m+j], m, rows, &edgeMask[ncCols-cols], first)
			}
			if gelu && p0+kc == k {
				geluSlice(dst.Data[i*m : (i+rows)*m])
			}
		}
	}
}

// matMulRangePortable is matMulRange's scalar form: the only matmul of
// non-AVX2 builds (and of FLASHPS_NO_AVX2=1).
func matMulRangePortable(dst, a, b *Matrix, lo, hi int) {
	k, m := a.C, b.C
	clear(dst.Data[lo*m : hi*m])
	for p0 := 0; p0 < k; p0 += kcBlock {
		p1 := min(p0+kcBlock, k)
		i := lo
		for ; i+mcRows <= hi; i += mcRows {
			matMulTile4(dst, a, b, i, p0, p1, 0, m)
		}
		for ; i < hi; i++ {
			matMulTile1(dst, a, b, i, p0, p1, 0, m)
		}
	}
}

// matMulTile4 accumulates dst rows [i, i+4) columns [j0, j1) over the
// reduction panel [p0, p1).
func matMulTile4(dst, a, b *Matrix, i, p0, p1, j0, j1 int) {
	k, m := a.C, b.C
	a0 := a.Data[(i+0)*k : (i+1)*k]
	a1 := a.Data[(i+1)*k : (i+2)*k]
	a2 := a.Data[(i+2)*k : (i+3)*k]
	a3 := a.Data[(i+3)*k : (i+4)*k]
	d0 := dst.Data[(i+0)*m+j0 : (i+0)*m+j1]
	d1 := dst.Data[(i+1)*m+j0 : (i+1)*m+j1]
	d2 := dst.Data[(i+2)*m+j0 : (i+2)*m+j1]
	d3 := dst.Data[(i+3)*m+j0 : (i+3)*m+j1]
	for p := p0; p < p1; p++ {
		brow := b.Data[p*m+j0 : p*m+j1]
		av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
		e0, e1, e2, e3 := d0[:len(brow)], d1[:len(brow)], d2[:len(brow)], d3[:len(brow)]
		for j, bv := range brow {
			e0[j] += av0 * bv
			e1[j] += av1 * bv
			e2[j] += av2 * bv
			e3[j] += av3 * bv
		}
	}
}

// matMulTile1 accumulates a single dst row, columns [j0, j1), over the
// reduction panel [p0, p1); it is the remainder kernel of matMulTile4.
func matMulTile1(dst, a, b *Matrix, i, p0, p1, j0, j1 int) {
	k, m := a.C, b.C
	arow := a.Data[i*k : (i+1)*k]
	drow := dst.Data[i*m+j0 : i*m+j1]
	for p := p0; p < p1; p++ {
		brow := b.Data[p*m+j0 : p*m+j1]
		av := arow[p]
		erow := drow[:len(brow)]
		for j, bv := range brow {
			erow[j] += av * bv
		}
	}
}

// matMulTRange computes rows [lo, hi) of dst = a × bᵀ.
func matMulTRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = dot(arow, b.Row(j))
		}
	}
}

// dot returns x·y with four independent accumulator chains (8-wide on AVX2
// hardware). The accumulation order depends only on len(x), never on the
// caller's partitioning, so results are reproducible.
func dot(x, y []float32) float32 {
	y = y[:len(x)]
	if useAVX2 && len(x) >= 16 {
		n8 := len(x) &^ 7
		s := dotAVX8(&x[0], &y[0], n8)
		for p := n8; p < len(x); p++ {
			s += x[p] * y[p]
		}
		return s
	}
	var s0, s1, s2, s3 float32
	p := 0
	for ; p+4 <= len(x); p += 4 {
		s0 += x[p] * y[p]
		s1 += x[p+1] * y[p+1]
		s2 += x[p+2] * y[p+2]
		s3 += x[p+3] * y[p+3]
	}
	for ; p < len(x); p++ {
		s0 += x[p] * y[p]
	}
	return (s0 + s1) + (s2 + s3)
}
