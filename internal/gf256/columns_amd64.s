#include "textflag.h"

// SHIFT_MUL moves remainder register R up one row — its rows 1..3 down a
// lane, row 0 of NEXT into lane 3 — and adds M·fb, the feedback row Z8
// times each row's generator coefficient.
#define SHIFT_MUL(R, NEXT, M, T) \
	VALIGNQ        $2, R, NEXT, R; \
	VGF2P8AFFINEQB $0, M, Z8, T;   \
	VPXORQ         T, R, R

// func reduceColumns16(mats *[8][64]byte, rem *[32][16]byte, src *byte, stride, steps int, mask uint64)
//
// Z0..Z7 hold remainder rows 0..31, four 16-byte rows per register, row 0
// (the next quotient row's contribution) in the low lane of Z0. Z16..Z23
// hold the matching multiplication matrices, Z24 is zero. One step per
// data row: fb = data ^ row 0, broadcast to all lanes; shift every
// register up a row; add each row's matrix times fb.
TEXT ·reduceColumns16(SB), NOSPLIT, $0-48
	MOVQ  mats+0(FP), AX
	MOVQ  rem+8(FP), DI
	MOVQ  src+16(FP), SI
	MOVQ  stride+24(FP), DX
	MOVQ  steps+32(FP), CX
	KMOVQ mask+40(FP), K1

	VMOVDQU64 0(AX), Z16
	VMOVDQU64 64(AX), Z17
	VMOVDQU64 128(AX), Z18
	VMOVDQU64 192(AX), Z19
	VMOVDQU64 256(AX), Z20
	VMOVDQU64 320(AX), Z21
	VMOVDQU64 384(AX), Z22
	VMOVDQU64 448(AX), Z23
	VPXORQ    Z24, Z24, Z24
	VPXORQ    Z0, Z0, Z0
	VPXORQ    Z1, Z1, Z1
	VPXORQ    Z2, Z2, Z2
	VPXORQ    Z3, Z3, Z3
	VPXORQ    Z4, Z4, Z4
	VPXORQ    Z5, Z5, Z5
	VPXORQ    Z6, Z6, Z6
	VPXORQ    Z7, Z7, Z7

loop:
	// Only the masked columns are read, so a partial group never reads
	// past its last column.
	VMOVDQU8.Z (SI), K1, Z8
	VPXORQ     Z0, Z8, Z8
	VSHUFI64X2 $0, Z8, Z8, Z8
	SHIFT_MUL(Z0, Z1, Z16, Z9)
	SHIFT_MUL(Z1, Z2, Z17, Z10)
	SHIFT_MUL(Z2, Z3, Z18, Z11)
	SHIFT_MUL(Z3, Z4, Z19, Z12)
	SHIFT_MUL(Z4, Z5, Z20, Z13)
	SHIFT_MUL(Z5, Z6, Z21, Z14)
	SHIFT_MUL(Z6, Z7, Z22, Z9)
	SHIFT_MUL(Z7, Z24, Z23, Z10)
	ADDQ       DX, SI
	DECQ       CX
	JNZ        loop

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	VZEROUPPER
	RET
