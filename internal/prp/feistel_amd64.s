#include "textflag.h"

// iota<> is the dwords 0..63: lane j of the four lane vectors is position
// first + j.
DATA iota<>+0(SB)/8, $0x0000000100000000
DATA iota<>+8(SB)/8, $0x0000000300000002
DATA iota<>+16(SB)/8, $0x0000000500000004
DATA iota<>+24(SB)/8, $0x0000000700000006
DATA iota<>+32(SB)/8, $0x0000000900000008
DATA iota<>+40(SB)/8, $0x0000000b0000000a
DATA iota<>+48(SB)/8, $0x0000000d0000000c
DATA iota<>+56(SB)/8, $0x0000000f0000000e
DATA iota<>+64(SB)/8, $0x0000001100000010
DATA iota<>+72(SB)/8, $0x0000001300000012
DATA iota<>+80(SB)/8, $0x0000001500000014
DATA iota<>+88(SB)/8, $0x0000001700000016
DATA iota<>+96(SB)/8, $0x0000001900000018
DATA iota<>+104(SB)/8, $0x0000001b0000001a
DATA iota<>+112(SB)/8, $0x0000001d0000001c
DATA iota<>+120(SB)/8, $0x0000001f0000001e
DATA iota<>+128(SB)/8, $0x0000002100000020
DATA iota<>+136(SB)/8, $0x0000002300000022
DATA iota<>+144(SB)/8, $0x0000002500000024
DATA iota<>+152(SB)/8, $0x0000002700000026
DATA iota<>+160(SB)/8, $0x0000002900000028
DATA iota<>+168(SB)/8, $0x0000002b0000002a
DATA iota<>+176(SB)/8, $0x0000002d0000002c
DATA iota<>+184(SB)/8, $0x0000002f0000002e
DATA iota<>+192(SB)/8, $0x0000003100000030
DATA iota<>+200(SB)/8, $0x0000003300000032
DATA iota<>+208(SB)/8, $0x0000003500000034
DATA iota<>+216(SB)/8, $0x0000003700000036
DATA iota<>+224(SB)/8, $0x0000003900000038
DATA iota<>+232(SB)/8, $0x0000003b0000003a
DATA iota<>+240(SB)/8, $0x0000003d0000003c
DATA iota<>+248(SB)/8, $0x0000003f0000003e
GLOBL iota<>(SB), RODATA|NOPTR, $256

// CARRY steps lane vector (L, R) = (l, r + iota) into range: lanes whose
// r passed a take r − a and l + 1. Z31 holds a, Z30 all ones (−1).
#define CARRY(L, R) \
	VPCMPUD $5, Z31, R, K1; \
	VPSUBD  Z31, R, K1, R;  \
	VPSUBD  Z30, L, K1, L

// ROUND is one Feistel round on lane vector (L, R) given F, the gathered
// F_i(R): (L, R) ← (R, (L + F) mod a). L + F < 2a, so the mod is one
// conditional subtract, taken branch-free as the unsigned minimum of the
// sum and the sum less a (which wraps past it when the sum is below a).
#define ROUND(L, R, F) \
	VPADDD    L, F, F;     \
	VMOVDQA32 R, L;        \
	VPSUBD    Z31, F, Z12; \
	VPMINUD   Z12, F, R

// OUT16 writes lane vector (LZ, RZ)'s sixteen l·a + r as quadwords at
// OFF(DI), in two halves of eight widened lanes (LY, RY are the low
// halves of LZ, RZ), and leaves in K1 the mask of the lanes at least n.
// Z29 holds a and Z28 n as quadwords.
#define OUT16(LY, RY, LZ, RZ, OFF) \
	VPMOVZXDQ     LY, Z12;            \
	VPMOVZXDQ     RY, Z13;            \
	VPMULUDQ      Z29, Z12, Z12;      \
	VPADDQ        Z13, Z12, Z12;      \
	VMOVDQU64     Z12, OFF(DI);       \
	VPCMPUQ       $5, Z28, Z12, K1;   \
	VEXTRACTI64X4 $1, LZ, Y14;        \
	VEXTRACTI64X4 $1, RZ, Y15;        \
	VPMOVZXDQ     Y14, Z14;           \
	VPMOVZXDQ     Y15, Z15;           \
	VPMULUDQ      Z29, Z14, Z14;      \
	VPADDQ        Z15, Z14, Z14;      \
	VMOVDQU64     Z14, OFF+64(DI);    \
	VPCMPUQ       $5, Z28, Z14, K2;   \
	KUNPCKBW      K1, K2, K1

// func indexBlock64(tab *uint32, a uint32, rows int, l, r uint32, n uint64, dst *[64]uint64) (walk uint64)
//
// Four lane vectors of sixteen positions, (Z0, Z4) … (Z3, Z7), go through
// the rounds together, so each round issues four independent gathers and
// the gather latency of one vector hides behind the others'.
TEXT ·indexBlock64(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), SI
	MOVL a+8(FP), AX
	MOVQ rows+16(FP), CX
	MOVL l+24(FP), BX
	MOVL r+28(FP), DX
	MOVQ n+32(FP), R8
	MOVQ dst+40(FP), DI

	VPBROADCASTD AX, Z31
	VPTERNLOGD   $0xff, Z30, Z30, Z30
	VPBROADCASTD BX, Z0
	VPBROADCASTD DX, Z4
	VMOVDQA32    Z0, Z1
	VMOVDQA32    Z0, Z2
	VMOVDQA32    Z0, Z3
	VPADDD       iota<>+64(SB), Z4, Z5
	VPADDD       iota<>+128(SB), Z4, Z6
	VPADDD       iota<>+192(SB), Z4, Z7
	VPADDD       iota<>+0(SB), Z4, Z4
	CARRY(Z0, Z4)
	CARRY(Z1, Z5)
	CARRY(Z2, Z6)
	CARRY(Z3, Z7)

	MOVQ AX, R9
	SHLQ $2, R9 // a row is a·4 bytes

rounds:
	KXNORW     K0, K0, K1
	KXNORW     K0, K0, K2
	KXNORW     K0, K0, K3
	KXNORW     K0, K0, K4
	VPGATHERDD (SI)(Z4*4), K1, Z8
	VPGATHERDD (SI)(Z5*4), K2, Z9
	VPGATHERDD (SI)(Z6*4), K3, Z10
	VPGATHERDD (SI)(Z7*4), K4, Z11
	ROUND(Z0, Z4, Z8)
	ROUND(Z1, Z5, Z9)
	ROUND(Z2, Z6, Z10)
	ROUND(Z3, Z7, Z11)
	ADDQ       R9, SI
	DECQ       CX
	JNZ        rounds

	VPBROADCASTQ AX, Z29
	VPBROADCASTQ R8, Z28
	OUT16(Y0, Y4, Z0, Z4, 0)
	KMOVW K1, R10
	OUT16(Y1, Y5, Z1, Z5, 128)
	KMOVW K1, BX
	SHLQ  $16, BX
	ORQ   BX, R10
	OUT16(Y2, Y6, Z2, Z6, 256)
	KMOVW K1, BX
	SHLQ  $32, BX
	ORQ   BX, R10
	OUT16(Y3, Y7, Z3, Z7, 384)
	KMOVW K1, BX
	SHLQ  $48, BX
	ORQ   BX, R10
	MOVQ  R10, walk+48(FP)
	VZEROUPPER
	RET
