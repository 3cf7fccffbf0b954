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

// ZERO16 clears the sixteen accumulators Z0–Z15 (a VEX write clears the
// whole ZMM register).
#define ZERO16 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7; \
	VXORPS Y8, Y8, Y8; \
	VXORPS Y9, Y9, Y9; \
	VXORPS Y10, Y10, Y10; \
	VXORPS Y11, Y11, Y11; \
	VXORPS Y12, Y12, Y12; \
	VXORPS Y13, Y13, Y13; \
	VXORPS Y14, Y14, Y14; \
	VXORPS Y15, Y15, Y15

// func gemmEdge64(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, rows, cols int, first bool)
//
// The remainder micro-kernel of the AVX-512 level: gemm4x64 for a tile of
// rows ∈ [1, 4] rows and cols ∈ [1, 64] columns, every tile gemm4x64 does
// not take. Only the tile's live 16-column vectors — nv = ⌈cols/16⌉ of
// them — are loaded, multiplied and stored, with the accumulator layout of
// gemm4x64; the last one is loaded from B, read from C and stored to C
// under the opmask K1 of its live columns (a masked-off element is neither
// read nor written, and cannot fault), so nothing outside the tile is
// touched. The C read-back is a merge-masked add: K2 is all-ones unless
// first is set, K3 is K1 and K2, and an element its mask leaves off keeps
// the accumulator as it stands. Every live C element runs the chain of
// gemm4x64 — and of gemm4x16 and gemmEdge.
#define EDGE64_LOADB1 \
	VMOVUPS.Z (DI), K1, Z16

#define EDGE64_LOADB2 \
	VMOVUPS (DI), Z16; \
	VMOVUPS.Z 64(DI), K1, Z17

#define EDGE64_LOADB3 \
	VMOVUPS (DI), Z16; \
	VMOVUPS 64(DI), Z17; \
	VMOVUPS.Z 128(DI), K1, Z18

#define EDGE64_LOADB4 \
	VMOVUPS (DI), Z16; \
	VMOVUPS 64(DI), Z17; \
	VMOVUPS 128(DI), Z18; \
	VMOVUPS.Z 192(DI), K1, Z19

#define EDGE64_ROW1(aptr, c0) \
	VBROADCASTSS aptr, Z20; \
	VFMADD231PS Z16, Z20, c0

#define EDGE64_ROW2(aptr, c0, c1) \
	VBROADCASTSS aptr, Z20; \
	VFMADD231PS Z16, Z20, c0; \
	VFMADD231PS Z17, Z20, c1

#define EDGE64_ROW3(aptr, c0, c1, c2) \
	VBROADCASTSS aptr, Z20; \
	VFMADD231PS Z16, Z20, c0; \
	VFMADD231PS Z17, Z20, c1; \
	VFMADD231PS Z18, Z20, c2

#define EDGE64_ROW4(aptr, c0, c1, c2, c3) \
	VBROADCASTSS aptr, Z20; \
	VFMADD231PS Z16, Z20, c0; \
	VFMADD231PS Z17, Z20, c1; \
	VFMADD231PS Z18, Z20, c2; \
	VFMADD231PS Z19, Z20, c3

// EDGE64_OUTn: add the C row at DX to a row's n accumulators (first
// unset) and store them to it.
#define EDGE64_OUT1(c0) \
	VADDPS (DX), c0, K3, c0; \
	VMOVUPS c0, K1, (DX)

#define EDGE64_OUT2(c0, c1) \
	VADDPS (DX), c0, K2, c0; \
	VADDPS 64(DX), c1, K3, c1; \
	VMOVUPS c0, (DX); \
	VMOVUPS c1, K1, 64(DX)

#define EDGE64_OUT3(c0, c1, c2) \
	VADDPS (DX), c0, K2, c0; \
	VADDPS 64(DX), c1, K2, c1; \
	VADDPS 128(DX), c2, K3, c2; \
	VMOVUPS c0, (DX); \
	VMOVUPS c1, 64(DX); \
	VMOVUPS c2, K1, 128(DX)

#define EDGE64_OUT4(c0, c1, c2, c3) \
	VADDPS (DX), c0, K2, c0; \
	VADDPS 64(DX), c1, K2, c1; \
	VADDPS 128(DX), c2, K2, c2; \
	VADDPS 192(DX), c3, K3, c3; \
	VMOVUPS c0, (DX); \
	VMOVUPS c1, 64(DX); \
	VMOVUPS c2, 128(DX); \
	VMOVUPS c3, K1, 192(DX)

TEXT ·gemmEdge64(SB), NOSPLIT, $0-73
	MOVQ cols+64(FP), CX
	LEAQ -1(CX), R13
	SHRQ $4, R13              // nv − 1
	MOVQ R13, AX
	SHLQ $4, AX
	SUBQ AX, CX               // live columns of the last vector, 1 … 16
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	MOVBLZX first+72(FP), AX
	DECL AX                   // first: 0, else all-ones
	KMOVW AX, K2
	KANDW K1, K2, K3
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
	LEAQ (SI)(R8*2), R9       // &A[2][p0]
	ZERO16
	CMPQ R13, $1
	JLT  edge64v1
	JEQ  edge64v2
	CMPQ R13, $2
	JEQ  edge64v3

edge64v4:
	CMPQ R12, $2
	JLT  edge64v4r1
	JEQ  edge64v4r2
	CMPQ R12, $3
	JEQ  edge64v4r3

edge64v4r4:
	EDGE64_LOADB4
	EDGE64_ROW4((SI), Z0, Z1, Z2, Z3)
	EDGE64_ROW4((SI)(R8*1), Z4, Z5, Z6, Z7)
	EDGE64_ROW4((R9), Z8, Z9, Z10, Z11)
	EDGE64_ROW4((R9)(R8*1), Z12, Z13, Z14, Z15)
	ADDQ $4, R9
	EDGE_NEXT(edge64v4r4)
	JMP edge64out4

edge64v4r3:
	EDGE64_LOADB4
	EDGE64_ROW4((SI), Z0, Z1, Z2, Z3)
	EDGE64_ROW4((SI)(R8*1), Z4, Z5, Z6, Z7)
	EDGE64_ROW4((R9), Z8, Z9, Z10, Z11)
	ADDQ $4, R9
	EDGE_NEXT(edge64v4r3)
	JMP edge64out4

edge64v4r2:
	EDGE64_LOADB4
	EDGE64_ROW4((SI), Z0, Z1, Z2, Z3)
	EDGE64_ROW4((SI)(R8*1), Z4, Z5, Z6, Z7)
	EDGE_NEXT(edge64v4r2)
	JMP edge64out4

edge64v4r1:
	EDGE64_LOADB4
	EDGE64_ROW4((SI), Z0, Z1, Z2, Z3)
	EDGE_NEXT(edge64v4r1)
	JMP edge64out4

edge64v3:
	CMPQ R12, $2
	JLT  edge64v3r1
	JEQ  edge64v3r2
	CMPQ R12, $3
	JEQ  edge64v3r3

edge64v3r4:
	EDGE64_LOADB3
	EDGE64_ROW3((SI), Z0, Z1, Z2)
	EDGE64_ROW3((SI)(R8*1), Z4, Z5, Z6)
	EDGE64_ROW3((R9), Z8, Z9, Z10)
	EDGE64_ROW3((R9)(R8*1), Z12, Z13, Z14)
	ADDQ $4, R9
	EDGE_NEXT(edge64v3r4)
	JMP edge64out3

edge64v3r3:
	EDGE64_LOADB3
	EDGE64_ROW3((SI), Z0, Z1, Z2)
	EDGE64_ROW3((SI)(R8*1), Z4, Z5, Z6)
	EDGE64_ROW3((R9), Z8, Z9, Z10)
	ADDQ $4, R9
	EDGE_NEXT(edge64v3r3)
	JMP edge64out3

edge64v3r2:
	EDGE64_LOADB3
	EDGE64_ROW3((SI), Z0, Z1, Z2)
	EDGE64_ROW3((SI)(R8*1), Z4, Z5, Z6)
	EDGE_NEXT(edge64v3r2)
	JMP edge64out3

edge64v3r1:
	EDGE64_LOADB3
	EDGE64_ROW3((SI), Z0, Z1, Z2)
	EDGE_NEXT(edge64v3r1)
	JMP edge64out3

edge64v2:
	CMPQ R12, $2
	JLT  edge64v2r1
	JEQ  edge64v2r2
	CMPQ R12, $3
	JEQ  edge64v2r3

edge64v2r4:
	EDGE64_LOADB2
	EDGE64_ROW2((SI), Z0, Z1)
	EDGE64_ROW2((SI)(R8*1), Z4, Z5)
	EDGE64_ROW2((R9), Z8, Z9)
	EDGE64_ROW2((R9)(R8*1), Z12, Z13)
	ADDQ $4, R9
	EDGE_NEXT(edge64v2r4)
	JMP edge64out2

edge64v2r3:
	EDGE64_LOADB2
	EDGE64_ROW2((SI), Z0, Z1)
	EDGE64_ROW2((SI)(R8*1), Z4, Z5)
	EDGE64_ROW2((R9), Z8, Z9)
	ADDQ $4, R9
	EDGE_NEXT(edge64v2r3)
	JMP edge64out2

edge64v2r2:
	EDGE64_LOADB2
	EDGE64_ROW2((SI), Z0, Z1)
	EDGE64_ROW2((SI)(R8*1), Z4, Z5)
	EDGE_NEXT(edge64v2r2)
	JMP edge64out2

edge64v2r1:
	EDGE64_LOADB2
	EDGE64_ROW2((SI), Z0, Z1)
	EDGE_NEXT(edge64v2r1)
	JMP edge64out2

edge64v1:
	CMPQ R12, $2
	JLT  edge64v1r1
	JEQ  edge64v1r2
	CMPQ R12, $3
	JEQ  edge64v1r3

edge64v1r4:
	EDGE64_LOADB1
	EDGE64_ROW1((SI), Z0)
	EDGE64_ROW1((SI)(R8*1), Z4)
	EDGE64_ROW1((R9), Z8)
	EDGE64_ROW1((R9)(R8*1), Z12)
	ADDQ $4, R9
	EDGE_NEXT(edge64v1r4)
	JMP edge64out1

edge64v1r3:
	EDGE64_LOADB1
	EDGE64_ROW1((SI), Z0)
	EDGE64_ROW1((SI)(R8*1), Z4)
	EDGE64_ROW1((R9), Z8)
	ADDQ $4, R9
	EDGE_NEXT(edge64v1r3)
	JMP edge64out1

edge64v1r2:
	EDGE64_LOADB1
	EDGE64_ROW1((SI), Z0)
	EDGE64_ROW1((SI)(R8*1), Z4)
	EDGE_NEXT(edge64v1r2)
	JMP edge64out1

edge64v1r1:
	EDGE64_LOADB1
	EDGE64_ROW1((SI), Z0)
	EDGE_NEXT(edge64v1r1)
	JMP edge64out1

// Rows past the tile hold zero accumulators and are neither read nor stored.
edge64out4:
	EDGE64_OUT4(Z0, Z1, Z2, Z3)
	CMPQ R12, $2
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT4(Z4, Z5, Z6, Z7)
	CMPQ R12, $3
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT4(Z8, Z9, Z10, Z11)
	CMPQ R12, $4
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT4(Z12, Z13, Z14, Z15)
	JMP edge64done

edge64out3:
	EDGE64_OUT3(Z0, Z1, Z2)
	CMPQ R12, $2
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT3(Z4, Z5, Z6)
	CMPQ R12, $3
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT3(Z8, Z9, Z10)
	CMPQ R12, $4
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT3(Z12, Z13, Z14)
	JMP edge64done

edge64out2:
	EDGE64_OUT2(Z0, Z1)
	CMPQ R12, $2
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT2(Z4, Z5)
	CMPQ R12, $3
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT2(Z8, Z9)
	CMPQ R12, $4
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT2(Z12, Z13)
	JMP edge64done

edge64out1:
	EDGE64_OUT1(Z0)
	CMPQ R12, $2
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT1(Z4)
	CMPQ R12, $3
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT1(Z8)
	CMPQ R12, $4
	JLT  edge64done
	ADDQ R11, DX
	EDGE64_OUT1(Z12)

edge64done:
	VZEROUPPER
	RET

// func gemm4x64(kc int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, first bool)
//
// gemm4x16 at four times the width (AVX-512F): the 4×64 C tile lives in
// sixteen ZMM accumulators, row r's columns 16v … 16v+15 in Z(4r+v), and a
// reduction step is four B loads, four A broadcasts and sixteen FMAs —
// sixteen independent chains, twice what the FMA latency needs to keep both
// ports busy. A C element's chain is the one gemm4x16 runs — ascending p
// from +0, one fused multiply-add per step — so the two kernels give it the
// same bits. gemmEdge64's v4r4 loop is this loop with its last B vector
// loaded under an opmask.
#define TILE64_ADDC(ptr, c0, c1, c2, c3) \
	VADDPS (ptr), c0, c0; \
	VADDPS 64(ptr), c1, c1; \
	VADDPS 128(ptr), c2, c2; \
	VADDPS 192(ptr), c3, c3

#define TILE64_STORE(ptr, c0, c1, c2, c3) \
	VMOVUPS c0, (ptr); \
	VMOVUPS c1, 64(ptr); \
	VMOVUPS c2, 128(ptr); \
	VMOVUPS c3, 192(ptr)

TEXT ·gemm4x64(SB), NOSPLIT, $0-57
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
	ZERO16

gemm64loop:
	VMOVUPS (DI), Z16         // B[p][0:64]
	VMOVUPS 64(DI), Z17
	VMOVUPS 128(DI), Z18
	VMOVUPS 192(DI), Z19
	EDGE64_ROW4((SI), Z0, Z1, Z2, Z3)
	EDGE64_ROW4((SI)(R8*1), Z4, Z5, Z6, Z7)
	EDGE64_ROW4((R9), Z8, Z9, Z10, Z11)
	EDGE64_ROW4((R9)(R8*1), Z12, Z13, Z14, Z15)
	ADDQ $4, R9
	EDGE_NEXT(gemm64loop)

	MOVBLZX first+56(FP), AX
	LEAQ    (DX)(R11*1), BX   // &C[1][0]
	LEAQ    (BX)(R11*1), SI   // &C[2][0]
	LEAQ    (SI)(R11*1), DI   // &C[3][0]
	TESTL   AX, AX
	JNZ     gemm64store
	TILE64_ADDC(DX, Z0, Z1, Z2, Z3)
	TILE64_ADDC(BX, Z4, Z5, Z6, Z7)
	TILE64_ADDC(SI, Z8, Z9, Z10, Z11)
	TILE64_ADDC(DI, Z12, Z13, Z14, Z15)

gemm64store:
	TILE64_STORE(DX, Z0, Z1, Z2, Z3)
	TILE64_STORE(BX, Z4, Z5, Z6, Z7)
	TILE64_STORE(SI, Z8, Z9, Z10, Z11)
	TILE64_STORE(DI, Z12, Z13, Z14, Z15)
	VZEROUPPER
	RET


// The float32 vector math below executes, lane for lane, the arithmetic of
// the Go reference functions in vecmath.go: a VFMADD/VFNMADD where the
// reference calls fma32, separately rounded VMULPS and VADDPS everywhere
// else, so lanes, scalar tails and the portable build agree bit for bit.
// Constants come from ·vecConsts, one 8-lane row each, filled from the same
// Go constants the scalar code uses.
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
#define VC_GELUKC ·vecConsts+416(SB)
#define VC_GELUK  ·vecConsts+448(SB)
#define VC_NEGINF ·vecConsts+480(SB)
#define VC_ABS    ·vecConsts+512(SB)
#define VC_TINY   ·vecConsts+544(SB)

// EXP8: Y0 = expf(Y0), lane-wise; clobbers Y1-Y4. Mirrors expf step by
// step, one VFMADD/VFNMADD per fma32. The two clamps keep expf's NaN
// behaviour: VCMPPS LT_OS is false for NaN (not flushed), and VMINPS returns
// its second source — x — when the comparison is unordered; the NaN then
// passes through every step quieted, as expf returns it.
#define EXP8 \
	VCMPPS $1, VC_EXPLO, Y0, Y3; \
	VMOVUPS VC_EXPHI, Y1; \
	VMINPS Y0, Y1, Y0; \
	VMOVUPS VC_MAGIC, Y1; \
	VFMADD231PS VC_LOG2E, Y0, Y1; \
	VSUBPS VC_MAGIC, Y1, Y2; \
	VFNMADD231PS VC_LN2HI, Y2, Y0; \
	VFNMADD231PS VC_LN2LO, Y2, Y0; \
	VMOVUPS VC_P0, Y2; \
	VFMADD213PS VC_P1, Y0, Y2; \
	VFMADD213PS VC_P2, Y0, Y2; \
	VFMADD213PS VC_P3, Y0, Y2; \
	VFMADD213PS VC_P4, Y0, Y2; \
	VFMADD213PS VC_P5, Y0, Y2; \
	VMULPS Y0, Y0, Y4; \
	VFMADD213PS Y0, Y4, Y2; \
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

// The 16-lane forms of exp and GeLU (AVX-512F) keep their constants in
// registers for the whole pass: Z16–Z28 in the order of the VC_* rows up to
// VC_ONE.
#define VC16_LOAD \
	VBROADCASTSS VC_EXPLO, Z16; \
	VBROADCASTSS VC_EXPHI, Z17; \
	VBROADCASTSS VC_LOG2E, Z18; \
	VBROADCASTSS VC_MAGIC, Z19; \
	VBROADCASTSS VC_LN2HI, Z20; \
	VBROADCASTSS VC_LN2LO, Z21; \
	VBROADCASTSS VC_P0, Z22; \
	VBROADCASTSS VC_P1, Z23; \
	VBROADCASTSS VC_P2, Z24; \
	VBROADCASTSS VC_P3, Z25; \
	VBROADCASTSS VC_P4, Z26; \
	VBROADCASTSS VC_P5, Z27; \
	VBROADCASTSS VC_ONE, Z28

// EXP16: Z0 = expf(Z0), lane-wise; clobbers Z1, Z2, Z4 and K1. EXP8's
// arithmetic up to the scale, which is one VSCALEFPS — p·2^floor(n) from the
// float n, rounded once like EXP8's multiply by the 2ⁿ it builds from t's
// bits, and the same value for every n in [-126, 127] that expf produces —
// with the flush below expLo as its zeroing mask: K1 is "not x < expLo"
// (VCMPPS NLT_US: set for NaN, which is not flushed).
#define EXP16 \
	VCMPPS $5, Z16, Z0, K1; \
	VMINPS Z0, Z17, Z0; \
	VMOVAPS Z19, Z1; \
	VFMADD231PS Z18, Z0, Z1; \
	VSUBPS Z19, Z1, Z2; \
	VFNMADD231PS Z20, Z2, Z0; \
	VFNMADD231PS Z21, Z2, Z0; \
	VMOVAPS Z22, Z1; \
	VFMADD213PS Z23, Z0, Z1; \
	VFMADD213PS Z24, Z0, Z1; \
	VFMADD213PS Z25, Z0, Z1; \
	VFMADD213PS Z26, Z0, Z1; \
	VFMADD213PS Z27, Z0, Z1; \
	VMULPS Z0, Z0, Z4; \
	VFMADD213PS Z0, Z4, Z1; \
	VADDPS Z28, Z1, Z1; \
	VSCALEFPS.Z Z2, Z1, K1, Z0

// func expShiftSumAVX16(x *float32, n int, shift float32) float32
//
// expShiftSumAVX8 on 16 lanes: x[i] = expf(x[i] − shift) for i in [0, n), n
// a positive multiple of 8, and the same sum — the eight lane accumulators
// take a vector's low half, then its high half, which is the order in which
// two 8-lane passes would have added them. A last group of 8 is loaded into
// the low half (the high half computes on zeros and is dropped).
TEXT ·expShiftSumAVX16(SB), NOSPLIT, $0-28
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VC16_LOAD
	VBROADCASTSS shift+16(FP), Z9
	VXORPS Y8, Y8, Y8
	SUBQ $16, CX
	JLT  expsum16tail

expsum16loop:
	VMOVUPS (SI), Z0
	VSUBPS Z9, Z0, Z0
	EXP16
	VMOVUPS Z0, (SI)
	VADDPS Y0, Y8, Y8
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS Y1, Y8, Y8
	ADDQ $64, SI
	SUBQ $16, CX
	JGE  expsum16loop

expsum16tail:
	CMPQ CX, $-16
	JEQ  expsum16reduce
	VMOVUPS (SI), Y0
	VSUBPS Z9, Z0, Z0
	EXP16
	VMOVUPS Y0, (SI)
	VADDPS Y0, Y8, Y8

expsum16reduce:
	REDUCE8(Y8, X8, X1)
	VZEROUPPER
	VMOVSS X8, ret+24(FP)
	RET

// SW_SHIFT: the row's running maximum at (R11) becomes the larger of it and
// the row's largest score X3; equal or unordered keeps the running one
// (VMAXSS returns its second source), as softmaxWeights' t > m[k] does.
#define SW_SHIFT \
	VMOVSS (R11), X1; \
	VMAXSS X1, X3, X3; \
	VMOVSS X3, (R11)

// SW_NEXTMAX(label): on to the next row of the max pass.
#define SW_NEXTMAX(label) \
	ADDQ R8, SI; \
	ADDQ $4, R11; \
	DECQ R10; \
	JNZ  label

// SW_ROWSHIFT: the exp pass's row shift, with ZF set when it is -Inf (X5).
#define SW_ROWSHIFT \
	VMOVSS (R11), X3; \
	VUCOMISS X5, X3

// func softmaxWeightsAVX16(s *float32, lds, n, rows int, m, sum *float32)
//
// softmaxWeights on 16 lanes, in two passes over the rows: the max of every
// row over ZMM vectors (the last one loaded under an opmask over -Inf);
// then, per row, expShiftSumAVX16's pass — the eight lane accumulators take
// a vector's low half, then its high half, a last group of 8 goes through
// the low half — REDUCE8, and the n mod 8 tail exponentiated under an
// opmask and added to the sum one element at a time, in ascending order.
// With every shift known before the first exp, one row's exp chains run
// beside the next row's instead of waiting for its max.
TEXT ·softmaxWeightsAVX16(SB), NOSPLIT, $0-48
// SW_EXPROWS, defined here so that vet checks its argument references:
// the exp pass's set-up, back at the first row after the max pass.
#define SW_EXPROWS \
	MOVQ s+0(FP), SI; \
	MOVQ rows+24(FP), R10; \
	MOVQ m+32(FP), R11

	MOVQ s+0(FP), SI
	MOVQ lds+8(FP), R8
	SHLQ $2, R8               // row stride in bytes
	MOVQ n+16(FP), R9
	MOVQ rows+24(FP), R10
	MOVQ m+32(FP), R11
	MOVQ sum+40(FP), R12
	VC16_LOAD
	VBROADCASTSS VC_NEGINF, Z29
	VMOVSS VC_NEGINF, X5
	MOVQ R9, R13
	ANDQ $-16, R13
	SHLQ $2, R13              // bytes in whole ZMM vectors
	MOVQ R9, BX
	ANDQ $-8, BX
	SHLQ $2, BX               // bytes in whole groups of 8
	MOVQ R9, CX
	ANDQ $15, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2              // the n mod 16 lanes past the ZMM vectors
	MOVQ R9, DX
	ANDQ $7, DX               // the n mod 8 tail
	MOVQ DX, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K3

sw16row:
	VMOVAPS Z29, Z3
	XORQ AX, AX
	CMPQ AX, R13
	JEQ  sw16maxtail

sw16max:
	VMOVUPS (SI)(AX*1), Z0
	VMAXPS Z3, Z0, Z3
	ADDQ $64, AX
	CMPQ AX, R13
	JNE  sw16max

sw16maxtail:
	VMOVAPS Z29, Z0
	VMOVUPS (SI)(AX*1), K2, Z0
	VMAXPS Z3, Z0, Z3
	VEXTRACTF64X4 $1, Z3, Y1
	VMAXPS Y1, Y3, Y3
	VEXTRACTF128 $1, Y3, X1
	VMAXPS X1, X3, X3
	VPERMILPS $0x4E, X3, X1
	VMAXPS X1, X3, X3
	VPERMILPS $0xB1, X3, X1
	VMAXPS X1, X3, X3
	SW_SHIFT
	SW_NEXTMAX(sw16row)
	SW_EXPROWS

sw16exprow:
	SW_ROWSHIFT
	JEQ  sw16zero
	VBROADCASTSS X3, Z9
	VXORPS Y8, Y8, Y8
	XORQ AX, AX
	CMPQ AX, R13
	JEQ  sw16half

sw16exp:
	VMOVUPS (SI)(AX*1), Z0
	VSUBPS Z9, Z0, Z0
	EXP16
	VMOVUPS Z0, (SI)(AX*1)
	VADDPS Y0, Y8, Y8
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS Y1, Y8, Y8
	ADDQ $64, AX
	CMPQ AX, R13
	JNE  sw16exp

sw16half:
	CMPQ AX, BX
	JEQ  sw16tail
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS Z9, Z0, Z0
	EXP16
	VMOVUPS Y0, (SI)(AX*1)
	VADDPS Y0, Y8, Y8
	ADDQ $32, AX

sw16tail:
	REDUCE8(Y8, X8, X1)
	MOVQ DX, CX
	TESTQ CX, CX
	JEQ  sw16sum
	VMOVUPS.Z (SI)(AX*1), K3, Z0
	VSUBPS Z9, Z0, Z0
	EXP16
	VMOVUPS Z0, K3, (SI)(AX*1)

sw16tailadd:
	VADDSS (SI)(AX*1), X8, X8
	ADDQ $4, AX
	DECQ CX
	JNZ  sw16tailadd

sw16sum:
	VMOVSS X8, (R12)
	JMP  sw16next

sw16zero:
	VXORPS Y0, Y0, Y0
	XORQ AX, AX
	CMPQ AX, R13
	JEQ  sw16zerotail

sw16zeroloop:
	VMOVUPS Z0, (SI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, R13
	JNE  sw16zeroloop

sw16zerotail:
	VMOVUPS Z0, K2, (SI)(AX*1)
	VMOVSS X0, (R12)

sw16next:
	ADDQ R8, SI
	ADDQ $4, R11
	ADDQ $4, R12
	DECQ R10
	JNZ  sw16exprow
	VZEROUPPER
	RET

// func softmaxWeightsAVX8(s *float32, lds, n, rows int, m, sum *float32)
//
// softmaxWeightsAVX16 on 8 lanes: the max of every row by maxAVX8's pass and
// a scalar tail; then per row expShiftSumAVX8's pass, REDUCE8, and the tail
// exponentiated under the lane mask of edgeMask and added one element at a
// time.
TEXT ·softmaxWeightsAVX8(SB), NOSPLIT, $0-48
	MOVQ s+0(FP), SI
	MOVQ lds+8(FP), R8
	SHLQ $2, R8               // row stride in bytes
	MOVQ n+16(FP), R9
	MOVQ rows+24(FP), R10
	MOVQ m+32(FP), R11
	MOVQ sum+40(FP), R12
	MOVQ R9, BX
	ANDQ $-8, BX
	SHLQ $2, BX               // bytes in whole groups of 8
	MOVQ R9, DX
	ANDQ $7, DX               // the n mod 8 tail
	LEAQ ·edgeMask+64(SB), AX
	MOVQ DX, CX
	SHLQ $2, CX
	SUBQ CX, AX
	VMOVDQU (AX), Y10         // the tail's lanes
	VMOVSS VC_NEGINF, X5
	VXORPS Y11, Y11, Y11

sw8row:
	VMOVUPS VC_NEGINF, Y3
	XORQ AX, AX
	CMPQ AX, BX
	JEQ  sw8maxred

sw8max:
	VMOVUPS (SI)(AX*1), Y1
	VMAXPS Y3, Y1, Y3
	ADDQ $32, AX
	CMPQ AX, BX
	JNE  sw8max

sw8maxred:
	VEXTRACTF128 $1, Y3, X1
	VMAXPS X1, X3, X3
	VPERMILPS $0x4E, X3, X1
	VMAXPS X1, X3, X3
	VPERMILPS $0xB1, X3, X1
	VMAXPS X1, X3, X3
	MOVQ DX, CX
	TESTQ CX, CX
	JEQ  sw8shift

sw8maxtail:
	VMOVSS (SI)(AX*1), X1
	VMAXSS X3, X1, X3
	ADDQ $4, AX
	DECQ CX
	JNZ  sw8maxtail

sw8shift:
	SW_SHIFT
	SW_NEXTMAX(sw8row)
	SW_EXPROWS

sw8exprow:
	SW_ROWSHIFT
	JEQ  sw8zero
	VBROADCASTSS X3, Y9
	VXORPS Y8, Y8, Y8
	XORQ AX, AX
	CMPQ AX, BX
	JEQ  sw8tail

sw8exp:
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS Y9, Y0, Y0
	EXP8
	VMOVUPS Y0, (SI)(AX*1)
	VADDPS Y0, Y8, Y8
	ADDQ $32, AX
	CMPQ AX, BX
	JNE  sw8exp

sw8tail:
	REDUCE8(Y8, X8, X1)
	MOVQ DX, CX
	TESTQ CX, CX
	JEQ  sw8sum
	VMASKMOVPS (SI)(AX*1), Y10, Y0
	VSUBPS Y9, Y0, Y0
	EXP8
	VMASKMOVPS Y0, Y10, (SI)(AX*1)

sw8tailadd:
	VADDSS (SI)(AX*1), X8, X8
	ADDQ $4, AX
	DECQ CX
	JNZ  sw8tailadd

sw8sum:
	VMOVSS X8, (R12)
	JMP  sw8next

sw8zero:
	XORQ AX, AX
	CMPQ AX, BX
	JEQ  sw8zerotail

sw8zeroloop:
	VMOVUPS Y11, (SI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, BX
	JNE  sw8zeroloop

sw8zerotail:
	VMASKMOVPS Y11, Y10, (SI)(AX*1)
	VMOVSS X11, (R12)

sw8next:
	ADDQ R8, SI
	ADDQ $4, R11
	ADDQ $4, R12
	DECQ R10
	JNZ  sw8exprow
	VZEROUPPER
	RET

// The P·V kernels of attention. P is a key tile of weights in attention's
// score buffer: a head's row for query row r at r·PV_LDP bytes from its row
// 0, key p at 4p bytes. V comes as runs of consecutive keys whose rows are
// consecutive rows of one source — v0, the template's V, or v1, the lane's
// fresh rows — so no copy of V is put together; a run is three ints (the
// source, the row of its first key, the key count), and V rows, in either
// source, are ldc floats apart. Every output
// element keeps gemmTile's chain: one FMA per key from +0, in ascending key
// order across all the runs, then the element C held is added. The sum is
// then multiplied by the row's 1/l (1 leaves it as it is: x·1 = x exactly)
// and stored. runs and nruns are consumed in their argument slots.
#define PV_LDP 4096

// func pvEdge(runs *int, nruns int, v0, v1 *float32, p *float32, col int, c *float32, ldc int, rows int, mask *int32, inv *float32)
//
// One (head, chunk of ≤ 16 columns) for rows ∈ [1, 4] query rows: gemmEdge
// over the runs. col is the chunk's byte offset in a V row; V and C rows are
// ldc floats apart; mask is gemmEdge's lane mask; inv holds one factor per
// row.
#define PE_ROW(disp, lo, hi) \
	VBROADCASTSS disp(SI)(DX*1), Y14; \
	VFMADD231PS Y12, Y14, lo; \
	VFMADD231PS Y13, Y14, hi

#define PE_LOADV \
	VMASKMOVPS (DI), Y10, Y12; \
	VMASKMOVPS 32(DI), Y11, Y13

#define PE_NEXT(label) \
	ADDQ $4, DX; \
	ADDQ R12, DI; \
	DECQ CX; \
	JNZ  label

#define PE_OUT(lo, hi, iv) \
	VMASKMOVPS (DI), Y10, Y12; \
	VMASKMOVPS 32(DI), Y11, Y13; \
	VADDPS Y12, lo, lo; \
	VADDPS Y13, hi, hi; \
	VBROADCASTSS iv(AX), Y14; \
	VMULPS Y14, lo, lo; \
	VMULPS Y14, hi, hi; \
	VMASKMOVPS lo, Y10, (DI); \
	VMASKMOVPS hi, Y11, 32(DI)

TEXT ·pvEdge(SB), NOSPLIT, $0-88
// PV_RUN(col), defined here so that vet checks its argument references
// against a function that has them: start the next run — DI at its first V
// row plus col bytes, CX its key count. R12 is the V row stride in bytes.
#define PV_RUN(col) \
	MOVQ runs+0(FP), CX; \
	MOVQ (CX), DI; \
	TESTQ DI, DI; \
	MOVQ v0+16(FP), DI; \
	CMOVQNE v1+24(FP), DI; \
	MOVQ 8(CX), CX; \
	IMULQ R12, CX; \
	ADDQ CX, DI; \
	ADDQ col, DI; \
	MOVQ runs+0(FP), CX; \
	MOVQ 16(CX), CX; \
	ADDQ $24, runs+0(FP)

	MOVQ p+32(FP), SI
	MOVQ col+40(FP), R8
	MOVQ ldc+56(FP), R12
	SHLQ $2, R12              // V and C row stride in bytes
	MOVQ mask+72(FP), AX
	VMOVDQU (AX), Y10
	VMOVDQU 32(AX), Y11
	XORQ DX, DX               // the key's byte offset in P
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ rows+64(FP), AX
	CMPQ AX, $2
	JLT  pe1
	JEQ  pe2
	CMPQ AX, $3
	JEQ  pe3

pe4:
	PV_RUN(R8)

pe4key:
	PE_LOADV
	PE_ROW(0, Y0, Y1)
	PE_ROW(PV_LDP, Y2, Y3)
	PE_ROW(2*PV_LDP, Y4, Y5)
	PE_ROW(3*PV_LDP, Y6, Y7)
	PE_NEXT(pe4key)
	DECQ nruns+8(FP)
	JNZ  pe4
	JMP  peout

pe3:
	PV_RUN(R8)

pe3key:
	PE_LOADV
	PE_ROW(0, Y0, Y1)
	PE_ROW(PV_LDP, Y2, Y3)
	PE_ROW(2*PV_LDP, Y4, Y5)
	PE_NEXT(pe3key)
	DECQ nruns+8(FP)
	JNZ  pe3
	JMP  peout

pe2:
	PV_RUN(R8)

pe2key:
	PE_LOADV
	PE_ROW(0, Y0, Y1)
	PE_ROW(PV_LDP, Y2, Y3)
	PE_NEXT(pe2key)
	DECQ nruns+8(FP)
	JNZ  pe2
	JMP  peout

pe1:
	PV_RUN(R8)

pe1key:
	PE_LOADV
	PE_ROW(0, Y0, Y1)
	PE_NEXT(pe1key)
	DECQ nruns+8(FP)
	JNZ  pe1

peout:
	MOVQ c+48(FP), DI
	MOVQ inv+80(FP), AX
	MOVQ rows+64(FP), CX
	PE_OUT(Y0, Y1, 0)
	DECQ CX
	JZ   pedone
	ADDQ R12, DI
	PE_OUT(Y2, Y3, 4)
	DECQ CX
	JZ   pedone
	ADDQ R12, DI
	PE_OUT(Y4, Y5, 8)
	DECQ CX
	JZ   pedone
	ADDQ R12, DI
	PE_OUT(Y6, Y7, 12)

pedone:
	VZEROUPPER
	RET

// func pvHeads16(runs *int, nruns int, v0, v1 *float32, ch *[pvChunks]pvChunk, c *float32, ldc int, rows int, inv *[mcRows * pvChunks]float32)
//
// Four (head, chunk of ≤ 16 columns) pairs for rows ∈ [1, 4] query rows in
// one pass over the keys (AVX-512F): per key each chunk's V row is loaded
// once, under its opmask, and every row's weight comes in by embedded
// broadcast — 16 independent chains at 4 rows. A pvChunk is the head's P row
// 0 (at 0), the chunk's byte offset in a V and a C row (8) and its lane mask
// (16); a chunk with no lanes loads zeros and stores nothing. C is row 0 of
// the row group, column 0; inv holds row r's factor for chunk i at r·4 + i.
#define PV_LOADV \
	VMOVUPS.Z (DI)(R8*1), K1, Z16; \
	VMOVUPS.Z (DI)(R9*1), K2, Z17; \
	VMOVUPS.Z (DI)(R10*1), K3, Z18; \
	VMOVUPS.Z (DI)(R11*1), K4, Z19

#define PV_ROW(disp, a0, a1, a2, a3) \
	VFMADD231PS.BCST disp(BX)(DX*1), Z16, a0; \
	VFMADD231PS.BCST disp(SI)(DX*1), Z17, a1; \
	VFMADD231PS.BCST disp(R13)(DX*1), Z18, a2; \
	VFMADD231PS.BCST disp(AX)(DX*1), Z19, a3

#define PV_OUT(a0, a1, a2, a3, iv) \
	VMOVUPS.Z (DI)(R8*1), K1, Z16; \
	VMOVUPS.Z (DI)(R9*1), K2, Z17; \
	VMOVUPS.Z (DI)(R10*1), K3, Z18; \
	VMOVUPS.Z (DI)(R11*1), K4, Z19; \
	VADDPS Z16, a0, a0; \
	VADDPS Z17, a1, a1; \
	VADDPS Z18, a2, a2; \
	VADDPS Z19, a3, a3; \
	VMULPS.BCST iv(AX), a0, a0; \
	VMULPS.BCST iv+4(AX), a1, a1; \
	VMULPS.BCST iv+8(AX), a2, a2; \
	VMULPS.BCST iv+12(AX), a3, a3; \
	VMOVUPS a0, K1, (DI)(R8*1); \
	VMOVUPS a1, K2, (DI)(R9*1); \
	VMOVUPS a2, K3, (DI)(R10*1); \
	VMOVUPS a3, K4, (DI)(R11*1)

TEXT ·pvHeads16(SB), NOSPLIT, $0-72
	MOVQ ch+32(FP), CX
	MOVQ 0(CX), BX            // chunk 0: P, column, lanes
	MOVQ 8(CX), R8
	KMOVW 16(CX), K1
	MOVQ 24(CX), SI           // chunk 1
	MOVQ 32(CX), R9
	KMOVW 40(CX), K2
	MOVQ 48(CX), R13          // chunk 2
	MOVQ 56(CX), R10
	KMOVW 64(CX), K3
	MOVQ 72(CX), AX           // chunk 3
	MOVQ 80(CX), R11
	KMOVW 88(CX), K4
	MOVQ ldc+48(FP), R12
	SHLQ $2, R12              // V and C row stride in bytes
	XORQ DX, DX               // the key's byte offset in P
	VXORPS Y0, Y0, Y0         // a VEX write clears the whole ZMM register
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	MOVQ rows+56(FP), CX
	CMPQ CX, $2
	JLT  pv1
	JEQ  pv2
	CMPQ CX, $3
	JEQ  pv3

pv4:
	PV_RUN($0)

pv4key:
	PV_LOADV
	PV_ROW(0, Z0, Z1, Z2, Z3)
	PV_ROW(PV_LDP, Z4, Z5, Z6, Z7)
	PV_ROW(2*PV_LDP, Z8, Z9, Z10, Z11)
	PV_ROW(3*PV_LDP, Z12, Z13, Z14, Z15)
	PE_NEXT(pv4key)
	DECQ nruns+8(FP)
	JNZ  pv4
	JMP  pvout

pv3:
	PV_RUN($0)

pv3key:
	PV_LOADV
	PV_ROW(0, Z0, Z1, Z2, Z3)
	PV_ROW(PV_LDP, Z4, Z5, Z6, Z7)
	PV_ROW(2*PV_LDP, Z8, Z9, Z10, Z11)
	PE_NEXT(pv3key)
	DECQ nruns+8(FP)
	JNZ  pv3
	JMP  pvout

pv2:
	PV_RUN($0)

pv2key:
	PV_LOADV
	PV_ROW(0, Z0, Z1, Z2, Z3)
	PV_ROW(PV_LDP, Z4, Z5, Z6, Z7)
	PE_NEXT(pv2key)
	DECQ nruns+8(FP)
	JNZ  pv2
	JMP  pvout

pv1:
	PV_RUN($0)

pv1key:
	PV_LOADV
	PV_ROW(0, Z0, Z1, Z2, Z3)
	PE_NEXT(pv1key)
	DECQ nruns+8(FP)
	JNZ  pv1

pvout:
	MOVQ c+40(FP), DI
	MOVQ inv+64(FP), AX
	MOVQ rows+56(FP), CX
	PV_OUT(Z0, Z1, Z2, Z3, 0)
	DECQ CX
	JZ   pvdone
	ADDQ R12, DI
	PV_OUT(Z4, Z5, Z6, Z7, 16)
	DECQ CX
	JZ   pvdone
	ADDQ R12, DI
	PV_OUT(Z8, Z9, Z10, Z11, 32)
	DECQ CX
	JZ   pvdone
	ADDQ R12, DI
	PV_OUT(Z12, Z13, Z14, Z15, 48)

pvdone:
	VZEROUPPER
	RET

// func scaleAVX8(x *float32, n int, c float32)
//
// x[i] *= c for i in [0, n), n a positive multiple of 8.
TEXT ·scaleAVX8(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS c+16(FP), Y1

scaleloop:
	VMOVUPS (SI), Y0
	VMULPS Y1, Y0, Y0
	VMOVUPS Y0, (SI)
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  scaleloop
	VZEROUPPER
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
	VMOVUPS VC_GELUKC, Y1
	VFMADD213PS VC_GELUK, Y1, Y0 // K·C·xs² + K
	VMULPS Y5, Y0, Y0
	EXP8
	VADDPS VC_ONE, Y0, Y0
	VDIVPS Y0, Y6, Y0
	VMOVUPS Y0, (SI)
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  geluloop
	VZEROUPPER
	RET

// GELU16: Z0 = geluf(Z6), lane-wise; clobbers Z1, Z2, Z4, Z5, K1 and K2.
// geluAVX8's loop body, the |x| < geluTiny lanes zeroed through K2.
#define GELU16 \
	VPANDD Z29, Z6, Z0; \
	VCMPPS $5, Z30, Z0, K2; \
	VMOVAPS.Z Z6, K2, Z5; \
	VMULPS Z5, Z5, Z0; \
	VFMADD213PS Z15, Z31, Z0; \
	VMULPS Z5, Z0, Z0; \
	EXP16; \
	VADDPS Z28, Z0, Z0; \
	VDIVPS Z0, Z6, Z0

// func geluAVX16(x *float32, n int)
//
// geluAVX8 on 16 lanes: x[i] = geluf(x[i]) for i in [0, n), n a positive
// multiple of 8; a last group of 8 goes through the low half.
TEXT ·geluAVX16(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VC16_LOAD
	VBROADCASTSS VC_ABS, Z29
	VBROADCASTSS VC_TINY, Z30
	VBROADCASTSS VC_GELUKC, Z31
	VBROADCASTSS VC_GELUK, Z15
	SUBQ $16, CX
	JLT  gelu16tail

gelu16loop:
	VMOVUPS (SI), Z6
	GELU16
	VMOVUPS Z0, (SI)
	ADDQ $64, SI
	SUBQ $16, CX
	JGE  gelu16loop

gelu16tail:
	CMPQ CX, $-16
	JEQ  gelu16done
	VMOVUPS (SI), Y6
	GELU16
	VMOVUPS Y0, (SI)

gelu16done:
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

// The LayerNorm kernels. Each normalises a group of consecutive rows of n
// floats, n a positive multiple of 8 (BX: n·4 bytes, the row stride and the
// length of a pass), with layerNormRow's operations in layerNormRow's order
// for every row: the sum pass and the squared-deviation pass run for all the
// group's rows side by side, so that their reduction chains are in flight
// together; the rows' reduce8 trees share their horizontal adds, and the
// scalar tails — sum/n, then var/n + eps, √ and 1/x — run as one lane-wise
// instruction for the group. The affine pass, which has no chain to overlap,
// then takes the rows one after the other. A group of fewer rows than the
// kernel's width repeats its last row in place of the missing ones in the
// two reduction passes (which only read), and its affine pass stops after
// the rows there are.

// LN_ROWPTR(prev, r, k): r = the row after prev, or prev itself when the
// group (AX rows) has fewer than k rows.
#define LN_ROWPTR(prev, r, k) \
	LEAQ (prev)(BX*1), r; \
	CMPQ AX, $k; \
	CMOVQLT prev, r

// LN_REDUCE4: lane k of X0 = the reduce8 tree over the lanes of Yk, for
// k = 0..3; clobbers X1-X3 and X8-X11. REDUCE8's steps, the four rows'
// horizontal adds sharing instructions.
#define LN_REDUCE4 \
	VEXTRACTF128 $1, Y0, X8; \
	VEXTRACTF128 $1, Y1, X9; \
	VEXTRACTF128 $1, Y2, X10; \
	VEXTRACTF128 $1, Y3, X11; \
	VADDPS X8, X0, X0; \
	VADDPS X9, X1, X1; \
	VADDPS X10, X2, X2; \
	VADDPS X11, X3, X3; \
	VHADDPS X1, X0, X0; \
	VHADDPS X3, X2, X2; \
	VHADDPS X2, X0, X0

// LN_BROADCAST4(y0, y1, y2, y3): yk = lane k of X0 in all eight lanes;
// clobbers X8-X10.
#define LN_BROADCAST4(y0, y1, y2, y3) \
	VBROADCASTSS X0, y0; \
	VPERMILPS $0x55, X0, X8; \
	VPERMILPS $0xAA, X0, X9; \
	VPERMILPS $0xFF, X0, X10; \
	VBROADCASTSS X8, y1; \
	VBROADCASTSS X9, y2; \
	VBROADCASTSS X10, y3

// func layerNormRowsAVX8(dst, src, gamma, beta *float32, n, rows int, eps float32)
//
// The LayerNorm of rows (1–4) rows, four reduction chains in flight: the
// sums and squared deviations of row k accumulate in Yk, the means sit in
// Y4-Y7 and the 1/σ in Y12-Y15, and the affine pass moves the next row's
// pair down after each row.
TEXT ·layerNormRowsAVX8(SB), NOSPLIT, $0-52
	MOVQ n+32(FP), BX
	SHLQ $2, BX
	MOVQ rows+40(FP), AX
	MOVQ src+8(FP), SI
	LN_ROWPTR(SI, DI, 2)
	LN_ROWPTR(DI, R8, 3)
	LN_ROWPTR(R8, R9, 4)
	MOVQ n+32(FP), AX
	VCVTSI2SSQ AX, X15, X15
	VBROADCASTSS X15, X15     // float32(n) in every lane

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX

lnsum:
	VADDPS (SI)(AX*1), Y0, Y0
	VADDPS (DI)(AX*1), Y1, Y1
	VADDPS (R8)(AX*1), Y2, Y2
	VADDPS (R9)(AX*1), Y3, Y3
	ADDQ $32, AX
	CMPQ AX, BX
	JNE  lnsum
	LN_REDUCE4
	VDIVPS X15, X0, X0        // the four means
	LN_BROADCAST4(Y4, Y5, Y6, Y7)

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX

lnvar:
	VMOVUPS (SI)(AX*1), Y8
	VMOVUPS (DI)(AX*1), Y9
	VMOVUPS (R8)(AX*1), Y10
	VMOVUPS (R9)(AX*1), Y11
	VSUBPS Y4, Y8, Y8
	VSUBPS Y5, Y9, Y9
	VSUBPS Y6, Y10, Y10
	VSUBPS Y7, Y11, Y11
	VMULPS Y8, Y8, Y8
	VMULPS Y9, Y9, Y9
	VMULPS Y10, Y10, Y10
	VMULPS Y11, Y11, Y11
	VADDPS Y8, Y0, Y0
	VADDPS Y9, Y1, Y1
	VADDPS Y10, Y2, Y2
	VADDPS Y11, Y3, Y3
	ADDQ $32, AX
	CMPQ AX, BX
	JNE  lnvar
	LN_REDUCE4
	VDIVPS X15, X0, X0        // the four variances
	VBROADCASTSS eps+48(FP), X1
	VADDPS X1, X0, X0
	VSQRTPS X0, X0
	VBROADCASTSS VC_ONE, X1
	VDIVPS X0, X1, X0         // 1/√(var+eps)
	LN_BROADCAST4(Y12, Y13, Y14, Y15)
	MOVQ src+8(FP), SI
	MOVQ dst+0(FP), DI
	MOVQ gamma+16(FP), DX
	MOVQ beta+24(FP), CX
	MOVQ rows+40(FP), R8

lnrow:
	XORQ AX, AX

lnout:
	VMOVUPS (SI)(AX*1), Y8
	VSUBPS Y4, Y8, Y8
	VMULPS Y12, Y8, Y8
	VMULPS (DX)(AX*1), Y8, Y8 // gamma
	VADDPS (CX)(AX*1), Y8, Y8 // beta
	VMOVUPS Y8, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, BX
	JNE  lnout
	ADDQ BX, SI
	ADDQ BX, DI
	VMOVAPS Y5, Y4            // the next row's mean and 1/σ
	VMOVAPS Y6, Y5
	VMOVAPS Y7, Y6
	VMOVAPS Y13, Y12
	VMOVAPS Y14, Y13
	VMOVAPS Y15, Y14
	DECQ R8
	JNZ  lnrow
	VZEROUPPER
	RET

// LN16_PAIR(ra, rb, y, z): z = row ra's eight floats at AX in the low half,
// row rb's in the high half.
#define LN16_PAIR(ra, rb, y, z) \
	VMOVUPS (ra)(AX*1), y; \
	VINSERTF64X4 $1, (rb)(AX*1), z, z

// LN16_REDUCE8: Y0 = the reduce8 trees of the eight rows whose lane
// accumulators Z0-Z3 hold in pairs (row 2p in Zp's low half, row 2p+1 in
// its high half), lanes ordered rows 0, 2, 4, 6, 1, 3, 5, 7; clobbers
// Z8-Z11. The 128-bit halves of every row are added (lane l of one to lane
// l of the other) and the rest is LN_REDUCE4's tree, two rows per VHADDPS
// lane.
#define LN16_REDUCE8 \
	VSHUFF32X4 $0x88, Z1, Z0, Z8; \
	VSHUFF32X4 $0xDD, Z1, Z0, Z9; \
	VSHUFF32X4 $0x88, Z3, Z2, Z10; \
	VSHUFF32X4 $0xDD, Z3, Z2, Z11; \
	VADDPS Z9, Z8, Z8; \
	VADDPS Z11, Z10, Z10; \
	VEXTRACTF64X4 $1, Z8, Y9; \
	VEXTRACTF64X4 $1, Z10, Y11; \
	VHADDPS Y9, Y8, Y8; \
	VHADDPS Y11, Y10, Y10; \
	VHADDPS Y10, Y8, Y0

// LN16_STORE(off): the eight rows' values of LN16_REDUCE8's lane order in
// Y0 stored in row order at off(CX); clobbers X1-X3.
#define LN16_STORE(off) \
	VEXTRACTF128 $1, Y0, X1; \
	VUNPCKLPS X1, X0, X2; \
	VUNPCKHPS X1, X0, X3; \
	VMOVUPS X2, off(CX); \
	VMOVUPS X3, off+16(CX)

// LN16_MEANS(off, y, z): z = the mean at off(CX) in the low half, the next
// row's in the high half; clobbers Y8.
#define LN16_MEANS(off, y, z) \
	VBROADCASTSS off(CX), y; \
	VBROADCASTSS off+4(CX), Y8; \
	VINSERTF64X4 $1, Y8, z, z

// func layerNormRowsAVX16(dst, src, gamma, beta *float32, n, rows int, eps float32)
//
// layerNormRowsAVX8 for rows (1–8) rows, eight reduction chains in flight:
// two rows share a ZMM accumulator, one in each half (DX: rows; a group of
// four rows or fewer skips the second two pairs), the group's means and 1/σ
// go through the frame in row order, and the affine pass runs on 16 lanes
// (a last group of 8 through the low half).
TEXT ·layerNormRowsAVX16(SB), NOSPLIT, $64-52
	MOVQ n+32(FP), BX
	SHLQ $2, BX
	MOVQ rows+40(FP), AX
	MOVQ src+8(FP), SI
	LN_ROWPTR(SI, DI, 2)
	LN_ROWPTR(DI, R8, 3)
	LN_ROWPTR(R8, R9, 4)
	LN_ROWPTR(R9, R10, 5)
	LN_ROWPTR(R10, R11, 6)
	LN_ROWPTR(R11, R12, 7)
	LN_ROWPTR(R12, R13, 8)
	MOVQ AX, DX
	MOVQ n+32(FP), AX
	VCVTSI2SSQ AX, X15, X15
	VBROADCASTSS X15, Y15     // float32(n) in every lane

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX

ln16sum:
	LN16_PAIR(SI, DI, Y8, Z8)
	LN16_PAIR(R8, R9, Y9, Z9)
	VADDPS Z8, Z0, Z0
	VADDPS Z9, Z1, Z1
	CMPQ DX, $4
	JLE  ln16sumnext
	LN16_PAIR(R10, R11, Y10, Z10)
	LN16_PAIR(R12, R13, Y11, Z11)
	VADDPS Z10, Z2, Z2
	VADDPS Z11, Z3, Z3

ln16sumnext:
	ADDQ $32, AX
	CMPQ AX, BX
	JNE  ln16sum
	LN16_REDUCE8
	VDIVPS Y15, Y0, Y0        // the eight means
	LEAQ stats-64(SP), CX     // means, then 1/σ, in row order
	LN16_STORE(0)
	LN16_MEANS(0, Y4, Z4)
	LN16_MEANS(8, Y5, Z5)
	LN16_MEANS(16, Y6, Z6)
	LN16_MEANS(24, Y7, Z7)

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX

ln16var:
	LN16_PAIR(SI, DI, Y8, Z8)
	LN16_PAIR(R8, R9, Y9, Z9)
	VSUBPS Z4, Z8, Z8
	VSUBPS Z5, Z9, Z9
	VMULPS Z8, Z8, Z8
	VMULPS Z9, Z9, Z9
	VADDPS Z8, Z0, Z0
	VADDPS Z9, Z1, Z1
	CMPQ DX, $4
	JLE  ln16varnext
	LN16_PAIR(R10, R11, Y10, Z10)
	LN16_PAIR(R12, R13, Y11, Z11)
	VSUBPS Z6, Z10, Z10
	VSUBPS Z7, Z11, Z11
	VMULPS Z10, Z10, Z10
	VMULPS Z11, Z11, Z11
	VADDPS Z10, Z2, Z2
	VADDPS Z11, Z3, Z3

ln16varnext:
	ADDQ $32, AX
	CMPQ AX, BX
	JNE  ln16var
	LN16_REDUCE8
	VDIVPS Y15, Y0, Y0        // the eight variances
	VBROADCASTSS eps+48(FP), Y1
	VADDPS Y1, Y0, Y0
	VSQRTPS Y0, Y0
	VBROADCASTSS VC_ONE, Y1
	VDIVPS Y0, Y1, Y0         // 1/√(var+eps)
	LN16_STORE(32)
	MOVQ CX, R9
	MOVQ src+8(FP), SI
	MOVQ dst+0(FP), DI
	MOVQ gamma+16(FP), DX
	MOVQ beta+24(FP), CX
	MOVQ rows+40(FP), R8
	MOVQ BX, R10
	ANDQ $-64, R10            // bytes in whole ZMM vectors

ln16row:
	VBROADCASTSS (R9), Z4     // the row's mean
	VBROADCASTSS 32(R9), Z5   // and 1/σ
	XORQ AX, AX
	CMPQ AX, R10
	JEQ  ln16half

ln16out:
	VMOVUPS (SI)(AX*1), Z8
	VSUBPS Z4, Z8, Z8
	VMULPS Z5, Z8, Z8
	VMULPS (DX)(AX*1), Z8, Z8 // gamma
	VADDPS (CX)(AX*1), Z8, Z8 // beta
	VMOVUPS Z8, (DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, R10
	JNE  ln16out

ln16half:
	CMPQ AX, BX
	JEQ  ln16next
	VMOVUPS (SI)(AX*1), Y8
	VMOVUPS (DX)(AX*1), Y9
	VMOVUPS (CX)(AX*1), Y10
	VSUBPS Z4, Z8, Z8
	VMULPS Z5, Z8, Z8
	VMULPS Z9, Z8, Z8
	VADDPS Z10, Z8, Z8
	VMOVUPS Y8, (DI)(AX*1)

ln16next:
	ADDQ BX, SI
	ADDQ BX, DI
	ADDQ $4, R9
	DECQ R8
	JNZ  ln16row
	VZEROUPPER
	RET
