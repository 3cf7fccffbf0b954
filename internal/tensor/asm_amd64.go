//go:build amd64

package tensor

import "math"

// nativeLevel reads the CPUID and XCR0 words level detection goes by.
func nativeLevel() kernelLevel {
	var w cpuWords
	w.maxLeaf, _, _, _ = cpuidAsm(0, 0)
	_, _, w.ecx1, _ = cpuidAsm(1, 0)
	if w.maxLeaf >= 7 {
		_, w.ebx7, _, _ = cpuidAsm(7, 0)
	}
	if w.ecx1&(1<<27) != 0 { // OSXSAVE: XGETBV is executable
		w.xcr0, _ = xgetbvAsm()
	}
	return detectLevel(w)
}

func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// vecConsts holds the float32 vector-math constants, one 8-lane row each,
// in the order asm_amd64.s indexes them (VC_*). It is filled once from the
// constants the scalar reference code uses and never written again.
var vecConsts = func() (t [18][8]float32) {
	for i, c := range [18]float32{
		expLo, expHi, expLog2e, expMagic, expLn2Hi, expLn2Lo,
		expP0, expP1, expP2, expP3, expP4, expP5,
		1, geluKC, geluNeg2K, float32(math.Inf(-1)),
		math.Float32frombits(0x7FFFFFFF), geluTiny, // |x| bit mask
	} {
		for l := range t[i] {
			t[i][l] = c
		}
	}
	return t
}()

// edgeMask is gemmEdge's column-mask table: &edgeMask[16-cols] is cols
// all-ones lanes followed by zeros.
var edgeMask = [32]int32{
	-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
}

//go:noescape
func gemm4x16(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, first bool)

//go:noescape
func gemm4x64(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, first bool)

//go:noescape
func gemmEdge64(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, rows, cols int, first bool)

//go:noescape
func gemmEdge(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, rows int, mask *int32, first bool)

//go:noescape
func dotAVX8(x, y *float32, n int) float32

//go:noescape
func transposeScaleAVX8(src *float32, lds int, dst *float32, ldd int, n int, scale float32)

//go:noescape
func expShiftSumAVX8(x *float32, n int, shift float32) float32

//go:noescape
func expShiftSumAVX16(x *float32, n int, shift float32) float32

//go:noescape
func softmaxWeightsAVX8(s *float32, lds, n, rows int, m, sum *float32)

//go:noescape
func softmaxWeightsAVX16(s *float32, lds, n, rows int, m, sum *float32)

//go:noescape
func pvEdge(runs *int, nruns int, v0, v1 *float32, p *float32, col int, c *float32, ldc int, rows int, mask *int32, inv *float32)

//go:noescape
func pvHeads16(runs *int, nruns int, v0, v1 *float32, ch *[pvChunks]pvChunk, c *float32, ldc int, rows int, inv *[mcRows * pvChunks]float32)

//go:noescape
func scaleAVX8(x *float32, n int, c float32)

//go:noescape
func geluAVX16(x *float32, n int)

//go:noescape
func maxAVX8(x *float32, n int) float32

//go:noescape
func geluAVX8(x *float32, n int)

//go:noescape
func addAVX8(dst, a, b *float32, n int)

//go:noescape
func layerNormRowsAVX8(dst, src, gamma, beta *float32, n, rows int, eps float32)

//go:noescape
func layerNormRowsAVX16(dst, src, gamma, beta *float32, n, rows int, eps float32)
