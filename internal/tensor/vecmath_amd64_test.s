//go:build amd64

#include "textflag.h"

// func vfmadd231ss(x, y, z float32) float32
//
// x·y + z by the hardware's scalar fused multiply-add: the oracle fma32 is
// tested against.
TEXT ·vfmadd231ss(SB), NOSPLIT, $0-20
	VMOVSS x+0(FP), X1
	VMOVSS y+4(FP), X2
	VMOVSS z+8(FP), X0
	VFMADD231SS X2, X1, X0
	VMOVSS X0, ret+16(FP)
	RET
