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
// other tokens are masked. The AVX2 kernels (gemm4x16, gemmEdge) and the
// AVX-512 pair (gemm4x64 on full 4×64 tiles, gemmEdge64 on every other
// tile) run that chain with one fused multiply-add per step, on 8 and 16
// elements at a time, so the two vector levels agree bit for bit
// (TestGemmLevelsBitIdentical); the portable kernels round the product
// first and differ from both in the last bits. Within a level the contract
// holds.

const (
	// mcRows is the micro-kernel height: rows of a/dst accumulated per
	// b-row load.
	mcRows = 4
	// ncCols is the AVX2 micro-kernel width (two YMM registers).
	ncCols = 16
	// ncCols512 is the AVX-512 micro-kernel width (four ZMM registers).
	ncCols512 = 64
	// kcBlock is the reduction panel width; kcBlock rows of b (kcBlock×C
	// floats) are swept per row group to stay cache-resident.
	kcBlock = 256
	// trBlock is the tile edge of the blocked transpose: a trBlock²
	// float32 tile (4 KiB at 32) fits in L1 for both the row-major reads
	// and the column-major writes.
	trBlock = 32
)

// matMulRange computes rows [lo, hi) of dst = a × b, then applies GeLU to
// them if gelu is set (each row group while it is still in L1). The first
// reduction panel stores its tile, later panels add to it, so dst needs no
// clearing.
func matMulRange(dst, a, b *Matrix, lo, hi int, gelu bool) {
	k, m := a.C, b.C
	if k == 0 {
		clear(dst.Data[lo*m : hi*m])
		return
	}
	for p0 := 0; p0 < k; p0 += kcBlock {
		kc := min(kcBlock, k-p0)
		for i := lo; i < hi; i += mcRows {
			rows := min(mcRows, hi-i)
			gemmTile(kc, a.Data[i*k+p0:], k, b.Data[p0*m:], m, dst.Data[i*m:], m, rows, m, p0 == 0)
			if gelu && p0+kc == k {
				geluSlice(dst.Data[i*m : (i+rows)*m])
			}
		}
	}
}

// gemmTile is one row group of a GEMM: c = (first ? 0 : c) + a·b for a
// tile of rows ≤ mcRows rows and cols columns over a kc-long reduction.
// a, b and c begin at the tile's first element, with row strides lda, ldb
// and ldc, so the operands may be strided views (attention's per-head
// column slices). It is the only caller of the micro-kernels.
//
// At the vector levels everything runs in assembly, each kernel with the
// same per-element FMA chain: at avx2, full 4-row × 16-column tiles in
// gemm4x16 and the 1–3 remainder rows and < 16 remainder columns in
// gemmEdge; at avx512, full 4 × 64 tiles in gemm4x64 and every other tile —
// 1–4 rows of up to 64 columns — in gemmEdge64, which issues FMAs for the
// tile's live 16-column vectors only. The choice goes by the tile's
// geometry alone. The scalar loop is the only GEMM of the portable level;
// it accumulates in place, rounding each product before the add.
func gemmTile(kc int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, rows, cols int, first bool) {
	if cols == 0 {
		return
	}
	if level >= levelAVX512 {
		for j := 0; j < cols; j += ncCols512 {
			if w := min(ncCols512, cols-j); rows == mcRows && w == ncCols512 {
				gemm4x64(kc, &a[0], lda, &b[j], ldb, &c[j], ldc, first)
			} else {
				gemmEdge64(kc, &a[0], lda, &b[j], ldb, &c[j], ldc, rows, w, first)
			}
		}
		return
	}
	if level >= levelAVX2 {
		j := 0
		if rows == mcRows {
			for ; j+ncCols <= cols; j += ncCols {
				gemm4x16(kc, &a[0], lda, &b[j], ldb, &c[j], ldc, first)
			}
		}
		for ; j < cols; j += ncCols {
			gemmEdge(kc, &a[0], lda, &b[j], ldb, &c[j], ldc, rows, &edgeMask[ncCols-min(ncCols, cols-j)], first)
		}
		return
	}
	for r := 0; r < rows; r++ {
		crow := c[r*ldc : r*ldc+cols]
		if first {
			clear(crow)
		}
		for p, av := range a[r*lda : r*lda+kc] {
			brow := b[p*ldb : p*ldb+cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
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
	if level >= levelAVX2 && len(x) >= 16 {
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
