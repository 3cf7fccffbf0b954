//go:build amd64

#include "textflag.h"

// func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
// Caller must have verified OSXSAVE support first.
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm4x16(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, first bool)
//
// C[4][16] = (first ? 0 : C) + A[4][kc] × B[kc][16], the register
// micro-kernel of the blocked matmul. A is read down a row-major panel
// (element (r, p) at a[r*lda+p]), B down its leading rows (element (p, j) at
// b[p*ldb+j]). The 4×16 C tile lives in eight YMM accumulators for the whole
// panel; per reduction step the kernel issues two B loads, four A
// broadcasts, and eight FMAs. first is set on the first reduction panel,
// which stores the tile instead of reading C back.
//
// Each C element is one FMA chain over ascending p starting from +0,
// independent of any other element; gemmEdge runs the identical chain for
// remainder rows and columns — see the determinism contract in matmul.go.
TEXT ·gemm4x16(SB), NOSPLIT, $0-57
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	SHLQ $2, R8               // A row stride in bytes
	MOVQ b+24(FP), DI
	MOVQ ldb+32(FP), R10
	SHLQ $2, R10              // B row stride in bytes
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R11
	SHLQ $2, R11              // C row stride in bytes
	LEAQ (SI)(R8*2), R9       // &A[2][p0]
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

gemmloop:
	VMOVUPS (DI), Y12         // B[p][0:8]
	VMOVUPS 32(DI), Y13       // B[p][8:16]
	VBROADCASTSS (SI), Y14    // A[0][p]
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VBROADCASTSS (SI)(R8*1), Y14
	VFMADD231PS Y12, Y14, Y2
	VFMADD231PS Y13, Y14, Y3
	VBROADCASTSS (R9), Y14    // A[2][p]
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VBROADCASTSS (R9)(R8*1), Y14
	VFMADD231PS Y12, Y14, Y6
	VFMADD231PS Y13, Y14, Y7
	ADDQ $4, SI
	ADDQ $4, R9
	ADDQ R10, DI
	DECQ CX
	JNZ  gemmloop

	MOVBLZX first+56(FP), AX
	LEAQ    (DX)(R11*2), BX   // &C[2][0]
	TESTL   AX, AX
	JNZ     gemmstore
	VADDPS  (DX), Y0, Y0
	VADDPS  32(DX), Y1, Y1
	VADDPS  (DX)(R11*1), Y2, Y2
	VADDPS  32(DX)(R11*1), Y3, Y3
	VADDPS  (BX), Y4, Y4
	VADDPS  32(BX), Y5, Y5
	VADDPS  (BX)(R11*1), Y6, Y6
	VADDPS  32(BX)(R11*1), Y7, Y7

gemmstore:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (DX)(R11*1)
	VMOVUPS Y3, 32(DX)(R11*1)
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	VMOVUPS Y6, (BX)(R11*1)
	VMOVUPS Y7, 32(BX)(R11*1)
	VZEROUPPER
	RET

// func dotAVX8(x, y *float32, n int) float32
//
// Dot product over n floats, n a positive multiple of 8 (the Go wrapper
// handles the scalar tail). Four 8-wide accumulator chains, reduced
// horizontally at the end in a fixed order.
TEXT ·dotAVX8(SB), NOSPLIT, $0-28
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ CX, BX
	SHRQ $5, BX               // 32-element groups
	JZ   dottail

dotloop32:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VMOVUPS 64(DI), Y10
	VMOVUPS 96(DI), Y11
	VFMADD231PS Y8, Y4, Y0
	VFMADD231PS Y9, Y5, Y1
	VFMADD231PS Y10, Y6, Y2
	VFMADD231PS Y11, Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ BX
	JNZ  dotloop32

dottail:
	ANDQ $31, CX              // remaining 8-element groups
	JZ   dotreduce

dotloop8:
	VMOVUPS (SI), Y4
	VMOVUPS (DI), Y8
	VFMADD231PS Y8, Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dotloop8

dotreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	VMOVSS X0, ret+24(FP)
	RET

// func transposeScaleAVX8(src *float32, lds int, dst *float32, ldd int, n int, scale float32)
//
// dst[c][r] = scale · src[r][c] for r in [0, 8) and c in [0, n), n a
// positive multiple of 8: an 8-row strip of a row-major matrix (row stride
// lds floats) written as n rows of 8 (row stride ldd). Each 8×8 block is
// loaded as 128-bit row halves paired across rows r and r+4, scaled, and
// transposed in-lane by an unpack and a shuffle.
#define TR_LOAD(off, ra, rb, rc, rd, xa, xb, xc, xd) \
	VMOVUPS off(SI), xa; \
	VMOVUPS off(SI)(R8*1), xb; \
	VMOVUPS off(SI)(R8*2), xc; \
	VMOVUPS off(SI)(R9*1), xd; \
	VINSERTF128 $1, off(R11), ra, ra; \
	VINSERTF128 $1, off(R11)(R8*1), rb, rb; \
	VINSERTF128 $1, off(R11)(R8*2), rc, rc; \
	VINSERTF128 $1, off(R11)(R9*1), rd, rd; \
	VMULPS Y15, ra, ra; \
	VMULPS Y15, rb, rb; \
	VMULPS Y15, rc, rc; \
	VMULPS Y15, rd, rd

// TR_STORE4: four dst rows at ptr from the row quad (ra, rb, rc, rd);
// clobbers Y8-Y14.
#define TR_STORE4(ptr, ra, rb, rc, rd) \
	VUNPCKLPS rb, ra, Y8; \
	VUNPCKHPS rb, ra, Y9; \
	VUNPCKLPS rd, rc, Y10; \
	VUNPCKHPS rd, rc, Y11; \
	VSHUFPS $0x44, Y10, Y8, Y12; \
	VSHUFPS $0xEE, Y10, Y8, Y13; \
	VSHUFPS $0x44, Y11, Y9, Y14; \
	VSHUFPS $0xEE, Y11, Y9, Y8; \
	VMOVUPS Y12, (ptr); \
	VMOVUPS Y13, (ptr)(R10*1); \
	VMOVUPS Y14, (ptr)(R10*2); \
	VMOVUPS Y8, (ptr)(R12*1)

TEXT ·transposeScaleAVX8(SB), NOSPLIT, $0-44
	MOVQ src+0(FP), SI
	MOVQ lds+8(FP), R8
	SHLQ $2, R8               // src row stride in bytes
	MOVQ dst+16(FP), DI
	MOVQ ldd+24(FP), R10
	SHLQ $2, R10              // dst row stride in bytes
	MOVQ n+32(FP), CX
	VBROADCASTSS scale+40(FP), Y15
	LEAQ (R8)(R8*2), R9       // 3 src rows
	LEAQ (SI)(R8*4), R11      // &src[4][0]
	LEAQ (R10)(R10*2), R12    // 3 dst rows

trloop:
	TR_LOAD(0, Y0, Y1, Y2, Y3, X0, X1, X2, X3)
	TR_LOAD(16, Y4, Y5, Y6, Y7, X4, X5, X6, X7)
	LEAQ (DI)(R10*4), DX
	TR_STORE4(DI, Y0, Y1, Y2, Y3)
	TR_STORE4(DX, Y4, Y5, Y6, Y7)
	ADDQ $32, SI
	ADDQ $32, R11
	LEAQ (DX)(R10*4), DI
	SUBQ $8, CX
	JNZ  trloop
	VZEROUPPER
	RET

// func gemmEdge(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, rows int, mask *int32, first bool)
//
// The remainder micro-kernel of the blocked matmul: gemm4x16 for a tile of
// rows ∈ [1, 4] rows and up to 16 columns. mask points at 16 int32 lane
// masks (all-ones for live columns, then zeros); B is loaded and C stored
// through them, so nothing outside the tile is touched. Every live C
// element runs the same ascending-p FMA chain from +0 as in gemm4x16, so a
// dst element's bits do not depend on which kernel, row group or column
// tile it fell into.
#define EDGE_LOADB \
	VMASKMOVPS (DI), Y10, Y12; \
	VMASKMOVPS 32(DI), Y11, Y13

#define EDGE_ROW(aptr, lo, hi) \
	VBROADCASTSS aptr, Y14; \
	VFMADD231PS Y12, Y14, lo; \
	VFMADD231PS Y13, Y14, hi

#define EDGE_NEXT(label) \
	ADDQ $4, SI; \
	ADDQ R10, DI; \
	DECQ CX; \
	JNZ  label

TEXT ·gemmEdge(SB), NOSPLIT, $0-73
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	SHLQ $2, R8               // A row stride in bytes
	MOVQ b+24(FP), DI
	MOVQ ldb+32(FP), R10
	SHLQ $2, R10              // B row stride in bytes
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R11
	SHLQ $2, R11              // C row stride in bytes
	MOVQ rows+56(FP), R12
	MOVQ mask+64(FP), AX
	VMOVDQU (AX), Y10         // lane mask, columns 0..7
	VMOVDQU 32(AX), Y11       // lane mask, columns 8..15
	LEAQ (SI)(R8*2), R9       // &A[2][p0]
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CMPQ R12, $2
	JLT  edge1
	JEQ  edge2
	CMPQ R12, $3
	JEQ  edge3

edge4:
	EDGE_LOADB
	EDGE_ROW((SI), Y0, Y1)
	EDGE_ROW((SI)(R8*1), Y2, Y3)
	EDGE_ROW((R9), Y4, Y5)
	EDGE_ROW((R9)(R8*1), Y6, Y7)
	ADDQ $4, R9
	EDGE_NEXT(edge4)
	JMP edgeout

edge3:
	EDGE_LOADB
	EDGE_ROW((SI), Y0, Y1)
	EDGE_ROW((SI)(R8*1), Y2, Y3)
	EDGE_ROW((R9), Y4, Y5)
	ADDQ $4, R9
	EDGE_NEXT(edge3)
	JMP edgeout

edge2:
	EDGE_LOADB
	EDGE_ROW((SI), Y0, Y1)
	EDGE_ROW((SI)(R8*1), Y2, Y3)
	EDGE_NEXT(edge2)
	JMP edgeout

edge1:
	EDGE_LOADB
	EDGE_ROW((SI), Y0, Y1)
	EDGE_NEXT(edge1)

edgeout:
	MOVBLZX first+72(FP), AX
	TESTL   AX, AX
	JNZ     edgestore
	// Rows past the tile hold zero accumulators and are never stored, so
	// only the live rows' C is read back.
	VMASKMOVPS (DX), Y10, Y12
	VMASKMOVPS 32(DX), Y11, Y13
	VADDPS Y12, Y0, Y0
	VADDPS Y13, Y1, Y1
	CMPQ R12, $2
	JLT  edgestore
	LEAQ (DX)(R11*1), BX
	VMASKMOVPS (BX), Y10, Y12
	VMASKMOVPS 32(BX), Y11, Y13
	VADDPS Y12, Y2, Y2
	VADDPS Y13, Y3, Y3
	CMPQ R12, $3
	JLT  edgestore
	ADDQ R11, BX
	VMASKMOVPS (BX), Y10, Y12
	VMASKMOVPS 32(BX), Y11, Y13
	VADDPS Y12, Y4, Y4
	VADDPS Y13, Y5, Y5
	CMPQ R12, $4
	JLT  edgestore
	ADDQ R11, BX
	VMASKMOVPS (BX), Y10, Y12
	VMASKMOVPS 32(BX), Y11, Y13
	VADDPS Y12, Y6, Y6
	VADDPS Y13, Y7, Y7

edgestore:
	VMASKMOVPS Y0, Y10, (DX)
	VMASKMOVPS Y1, Y11, 32(DX)
	CMPQ R12, $2
	JLT  edgedone
	ADDQ R11, DX
	VMASKMOVPS Y2, Y10, (DX)
	VMASKMOVPS Y3, Y11, 32(DX)
	CMPQ R12, $3
	JLT  edgedone
	ADDQ R11, DX
	VMASKMOVPS Y4, Y10, (DX)
	VMASKMOVPS Y5, Y11, 32(DX)
	CMPQ R12, $4
	JLT  edgedone
	ADDQ R11, DX
	VMASKMOVPS Y6, Y10, (DX)
	VMASKMOVPS Y7, Y11, 32(DX)

edgedone:
	VZEROUPPER
	RET

// The float32 vector math below executes, lane for lane, the arithmetic of
// the Go reference functions in vecmath.go: separately rounded VMULPS and
// VADDPS, never FMA, so lanes, scalar tails and the portable build agree
// bit for bit. Constants come from ·vecConsts, one 8-lane row each, filled
// from the same Go constants the scalar code uses.
#define VC_EXPLO  ·vecConsts+0(SB)
#define VC_EXPHI  ·vecConsts+32(SB)
#define VC_LOG2E  ·vecConsts+64(SB)
#define VC_MAGIC  ·vecConsts+96(SB)
#define VC_LN2HI  ·vecConsts+128(SB)
#define VC_LN2LO  ·vecConsts+160(SB)
#define VC_P0     ·vecConsts+192(SB)
#define VC_P1     ·vecConsts+224(SB)
#define VC_P2     ·vecConsts+256(SB)
#define VC_P3     ·vecConsts+288(SB)
#define VC_P4     ·vecConsts+320(SB)
#define VC_P5     ·vecConsts+352(SB)
#define VC_ONE    ·vecConsts+384(SB)
#define VC_GELUC  ·vecConsts+416(SB)
#define VC_GELUK  ·vecConsts+448(SB)
#define VC_NEGINF ·vecConsts+480(SB)
#define VC_ABS    ·vecConsts+512(SB)
#define VC_TINY   ·vecConsts+544(SB)

// EXP8: Y0 = expf(Y0), lane-wise; clobbers Y1-Y4. Mirrors expf step by
// step. The two clamps keep expf's NaN behaviour: VCMPPS LT_OS is false for
// NaN (not flushed), and VMINPS returns its second source — x — when the
// comparison is unordered.
#define EXP8 \
	VCMPPS $1, VC_EXPLO, Y0, Y3; \
	VMOVUPS VC_EXPHI, Y1; \
	VMINPS Y0, Y1, Y0; \
	VMULPS VC_LOG2E, Y0, Y1; \
	VADDPS VC_MAGIC, Y1, Y1; \
	VSUBPS VC_MAGIC, Y1, Y2; \
	VMULPS VC_LN2HI, Y2, Y4; \
	VSUBPS Y4, Y0, Y0; \
	VMULPS VC_LN2LO, Y2, Y4; \
	VSUBPS Y4, Y0, Y0; \
	VMULPS VC_P0, Y0, Y2; \
	VADDPS VC_P1, Y2, Y2; \
	VMULPS Y0, Y2, Y2; \
	VADDPS VC_P2, Y2, Y2; \
	VMULPS Y0, Y2, Y2; \
	VADDPS VC_P3, Y2, Y2; \
	VMULPS Y0, Y2, Y2; \
	VADDPS VC_P4, Y2, Y2; \
	VMULPS Y0, Y2, Y2; \
	VADDPS VC_P5, Y2, Y2; \
	VMULPS Y0, Y0, Y4; \
	VMULPS Y4, Y2, Y2; \
	VADDPS Y0, Y2, Y2; \
	VADDPS VC_ONE, Y2, Y2; \
	VPSLLD $23, Y1, Y1; \
	VPADDD VC_ONE, Y1, Y1; \
	VMULPS Y1, Y2, Y0; \
	VANDNPS Y0, Y3, Y0

// REDUCE8(Y, X, XT): X[0] = the reduce8 tree over the lanes of Y.
#define REDUCE8(Y, X, XT) \
	VEXTRACTF128 $1, Y, XT; \
	VADDPS XT, X, X; \
	VHADDPS X, X, X; \
	VHADDPS X, X, X

// func expShiftSumAVX8(x *float32, n int, shift float32) float32
//
// x[i] = expf(x[i] − shift) for i in [0, n), n a positive multiple of 8;
// returns the lane-ordered sum of the results (reduce8 over eight lane
// accumulators).
TEXT ·expShiftSumAVX8(SB), NOSPLIT, $0-28
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS shift+16(FP), Y9
	VXORPS Y8, Y8, Y8

expsumloop:
	VMOVUPS (SI), Y0
	VSUBPS Y9, Y0, Y0
	EXP8
	VMOVUPS Y0, (SI)
	VADDPS Y0, Y8, Y8
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  expsumloop
	REDUCE8(Y8, X8, X1)
	VZEROUPPER
	VMOVSS X8, ret+24(FP)
	RET

// func maxAVX8(x *float32, n int) float32
//
// Largest of x[0:n], n a positive multiple of 8, ignoring NaNs (VMAXPS
// keeps the running maximum when the comparison is unordered).
TEXT ·maxAVX8(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VMOVUPS VC_NEGINF, Y0

maxloop:
	VMOVUPS (SI), Y1
	VMAXPS Y0, Y1, Y0
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  maxloop
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0xB1, X0, X1
	VMAXPS X1, X0, X0
	VZEROUPPER
	VMOVSS X0, ret+16(FP)
	RET

// func geluAVX8(x *float32, n int)
//
// x[i] = geluf(x[i]) for i in [0, n), n a positive multiple of 8.
TEXT ·geluAVX8(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX

geluloop:
	VMOVUPS (SI), Y6
	VANDPS VC_ABS, Y6, Y0
	VCMPPS $1, VC_TINY, Y0, Y0   // |x| < geluTiny
	VANDNPS Y6, Y0, Y5           // xs = tiny ? 0 : x
	VMULPS Y5, Y5, Y0
	VMULPS Y5, Y0, Y0
	VMULPS VC_GELUC, Y0, Y0
	VADDPS Y0, Y5, Y0
	VMULPS VC_GELUK, Y0, Y0
	EXP8
	VADDPS VC_ONE, Y0, Y0
	VDIVPS Y0, Y6, Y0
	VMOVUPS Y0, (SI)
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  geluloop
	VZEROUPPER
	RET

// func addAVX8(dst, a, b *float32, n int)
//
// dst[i] = a[i] + b[i] for i in [0, n), n a positive multiple of 8. dst may
// be a or b.
TEXT ·addAVX8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX

addloop:
	VMOVUPS (SI), Y0
	VADDPS (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  addloop
	VZEROUPPER
	RET

// func layerNormAVX8(dst, src, gamma, beta *float32, n int, eps float32)
//
// One LayerNorm row of n floats, n a positive multiple of 8: layerNormRow's
// three passes (sum, squared deviations, affine) with the row in L1.
TEXT ·layerNormAVX8(SB), NOSPLIT, $0-44
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ gamma+16(FP), R8
	MOVQ beta+24(FP), R9
	MOVQ n+32(FP), CX
	VCVTSI2SSQ CX, X5, X5     // float32(n)

	VXORPS Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ CX, BX

lnsum:
	VADDPS (AX), Y0, Y0
	ADDQ $32, AX
	SUBQ $8, BX
	JNZ  lnsum
	REDUCE8(Y0, X0, X1)
	VDIVSS X5, X0, X0         // mean
	VBROADCASTSS X0, Y7

	VXORPS Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ CX, BX

lnvar:
	VMOVUPS (AX), Y2
	VSUBPS Y7, Y2, Y2
	VMULPS Y2, Y2, Y2
	VADDPS Y2, Y0, Y0
	ADDQ $32, AX
	SUBQ $8, BX
	JNZ  lnvar
	REDUCE8(Y0, X0, X1)
	VDIVSS X5, X0, X0         // variance
	VADDSS eps+40(FP), X0, X0
	VSQRTSS X0, X0, X0
	VMOVSS VC_ONE, X2
	VDIVSS X0, X2, X2         // 1/√(var+eps)
	VBROADCASTSS X2, Y6

lnout:
	VMOVUPS (SI), Y2
	VSUBPS Y7, Y2, Y2
	VMULPS Y6, Y2, Y2
	VMULPS (R8), Y2, Y2
	VADDPS (R9), Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $8, CX
	JNZ  lnout
	VZEROUPPER
	RET
