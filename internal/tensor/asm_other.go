//go:build !amd64

package tensor

// Non-amd64 builds always use the portable scalar kernels.
func nativeLevel() kernelLevel { return levelPortable }

var edgeMask [32]int32

func gemm4x16(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, first bool) {
	panic("tensor: gemm4x16 without AVX2")
}

func gemm4x64(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, first bool) {
	panic("tensor: gemm4x64 without AVX-512")
}

func gemmEdge64(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, rows, cols int, first bool) {
	panic("tensor: gemmEdge64 without AVX-512")
}

func gemmEdge(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, rows int, mask *int32, first bool) {
	panic("tensor: gemmEdge without AVX2")
}

func dotAVX8(x, y *float32, n int) float32 { panic("tensor: dotAVX8 without AVX2") }

func transposeScaleAVX8(src *float32, lds int, dst *float32, ldd int, n int, scale float32) {
	panic("tensor: transposeScaleAVX8 without AVX2")
}

func expShiftSumAVX8(x *float32, n int, shift float32) float32 {
	panic("tensor: expShiftSumAVX8 without AVX2")
}

func expShiftSumAVX16(x *float32, n int, shift float32) float32 {
	panic("tensor: expShiftSumAVX16 without AVX-512")
}

func softmaxWeightsAVX8(s *float32, lds, n, rows int, m, sum *float32) {
	panic("tensor: softmaxWeightsAVX8 without AVX2")
}

func softmaxWeightsAVX16(s *float32, lds, n, rows int, m, sum *float32) {
	panic("tensor: softmaxWeightsAVX16 without AVX-512")
}

func pvEdge(runs *int, nruns int, v0, v1 *float32, p *float32, col int, c *float32, ldc int, rows int, mask *int32, inv *float32) {
	panic("tensor: pvEdge without AVX2")
}

func pvHeads16(runs *int, nruns int, v0, v1 *float32, ch *[pvChunks]pvChunk, c *float32, ldc int, rows int, inv *[mcRows * pvChunks]float32) {
	panic("tensor: pvHeads16 without AVX-512")
}

func scaleAVX8(x *float32, n int, c float32) { panic("tensor: scaleAVX8 without AVX2") }

func geluAVX16(x *float32, n int) { panic("tensor: geluAVX16 without AVX-512") }

func maxAVX8(x *float32, n int) float32 { panic("tensor: maxAVX8 without AVX2") }

func geluAVX8(x *float32, n int) { panic("tensor: geluAVX8 without AVX2") }

func addAVX8(dst, a, b *float32, n int) { panic("tensor: addAVX8 without AVX2") }

func layerNormRowsAVX8(dst, src, gamma, beta *float32, n, rows int, eps float32) {
	panic("tensor: layerNormRowsAVX8 without AVX2")
}

func layerNormRowsAVX16(dst, src, gamma, beta *float32, n, rows int, eps float32) {
	panic("tensor: layerNormRowsAVX16 without AVX-512")
}
