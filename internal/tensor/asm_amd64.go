//go:build amd64

package tensor

import (
	"math"
	"os"
)

// useAVX2 gates the AVX2+FMA assembly kernels. It is resolved once at
// process start: the decision must not change mid-run, or mixed
// scalar/vector rounding would break reproducibility between calls.
// Set FLASHPS_NO_AVX2=1 to force the portable scalar kernels.
var useAVX2 = supportsAVX2() && os.Getenv("FLASHPS_NO_AVX2") == ""

// supportsAVX2 reports whether the CPU and OS support the AVX2+FMA kernels
// (FMA and AVX2 feature bits, plus OS-enabled YMM state via XGETBV).
func supportsAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	const fmaBit = 1 << 12
	const osxsaveBit = 1 << 27
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
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
		1, geluC, geluNeg2K, float32(math.Inf(-1)),
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
func gemmEdge(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, rows int, mask *int32, first bool)

//go:noescape
func dotAVX8(x, y *float32, n int) float32

//go:noescape
func transposeScaleAVX8(src *float32, lds int, dst *float32, ldd int, n int, scale float32)

//go:noescape
func expShiftSumAVX8(x *float32, n int, shift float32) float32

//go:noescape
func maxAVX8(x *float32, n int) float32

//go:noescape
func geluAVX8(x *float32, n int)

//go:noescape
func addAVX8(dst, a, b *float32, n int)

//go:noescape
func layerNormAVX8(dst, src, gamma, beta *float32, n int, eps float32)
