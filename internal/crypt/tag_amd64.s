#include "textflag.h"

// EXPAND128 derives the next AES-128 round key in X0 from the one in X0
// and KEYGEN, AESKEYGENASSIST's output for it, and stores it at (BX),
// advancing BX. X4 must start at zero. The four SHUFPS/PXOR steps fold
// each word of the old key into the words after it.
#define EXPAND128 \
	PSHUFD $0xff, X1, X1; \
	SHUFPS $0x10, X0, X4; \
	PXOR   X4, X0;        \
	SHUFPS $0x8c, X0, X4; \
	PXOR   X4, X0;        \
	PXOR   X1, X0;        \
	MOVOU  X0, (BX);      \
	ADDQ   $16, BX

// func expandKey128(key *[16]byte, rk *[176]byte)
TEXT ·expandKey128(SB), NOSPLIT, $0-16
	MOVQ  key+0(FP), AX
	MOVQ  rk+8(FP), BX
	MOVOU (AX), X0
	MOVOU X0, (BX)
	ADDQ  $16, BX
	PXOR  X4, X4
	AESKEYGENASSIST $0x01, X0, X1
	EXPAND128
	AESKEYGENASSIST $0x02, X0, X1
	EXPAND128
	AESKEYGENASSIST $0x04, X0, X1
	EXPAND128
	AESKEYGENASSIST $0x08, X0, X1
	EXPAND128
	AESKEYGENASSIST $0x10, X0, X1
	EXPAND128
	AESKEYGENASSIST $0x20, X0, X1
	EXPAND128
	AESKEYGENASSIST $0x40, X0, X1
	EXPAND128
	AESKEYGENASSIST $0x80, X0, X1
	EXPAND128
	AESKEYGENASSIST $0x1b, X0, X1
	EXPAND128
	AESKEYGENASSIST $0x36, X0, X1
	EXPAND128
	RET

// ROUND8 runs one AES round with key K on all eight lanes.
#define ROUND8(K) \
	AESENC K, X0; \
	AESENC K, X1; \
	AESENC K, X2; \
	AESENC K, X3; \
	AESENC K, X4; \
	AESENC K, X5; \
	AESENC K, X6; \
	AESENC K, X7

// ENCRYPT8 encrypts X0..X7 under the AES-128 schedule at (AX), whose
// round keys 0..6 are already in X9..X15; keys 7..10 pass through X8.
#define ENCRYPT8 \
	PXOR        X9, X0;  \
	PXOR        X9, X1;  \
	PXOR        X9, X2;  \
	PXOR        X9, X3;  \
	PXOR        X9, X4;  \
	PXOR        X9, X5;  \
	PXOR        X9, X6;  \
	PXOR        X9, X7;  \
	ROUND8(X10);         \
	ROUND8(X11);         \
	ROUND8(X12);         \
	ROUND8(X13);         \
	ROUND8(X14);         \
	ROUND8(X15);         \
	MOVOU       112(AX), X8; \
	ROUND8(X8);          \
	MOVOU       128(AX), X8; \
	ROUND8(X8);          \
	MOVOU       144(AX), X8; \
	ROUND8(X8);          \
	MOVOU       160(AX), X8; \
	AESENCLAST  X8, X0;  \
	AESENCLAST  X8, X1;  \
	AESENCLAST  X8, X2;  \
	AESENCLAST  X8, X3;  \
	AESENCLAST  X8, X4;  \
	AESENCLAST  X8, X5;  \
	AESENCLAST  X8, X6;  \
	AESENCLAST  X8, X7

// ABSORB XORs the 16 bytes at ADDR into lane register X.
#define ABSORB(ADDR, X) \
	MOVOU ADDR, X8; \
	PXOR  X8, X

// func cbcmac8(rk *[176]byte, x *[8][16]byte, src *byte, stride, n int)
//
// X0..X7 hold the eight lanes' chain states. Lane l's blocks are at
// src + l*stride; SI addresses lanes 0..3 and R9 lanes 4..7, by way of
// DX = stride and R8 = 3*stride.
TEXT ·cbcmac8(SB), NOSPLIT, $0-40
	MOVQ  rk+0(FP), AX
	MOVQ  x+8(FP), DI
	MOVQ  src+16(FP), SI
	MOVQ  stride+24(FP), DX
	MOVQ  n+32(FP), CX
	LEAQ  (DX)(DX*2), R8
	LEAQ  (SI)(DX*4), R9

	MOVOU 0(AX), X9
	MOVOU 16(AX), X10
	MOVOU 32(AX), X11
	MOVOU 48(AX), X12
	MOVOU 64(AX), X13
	MOVOU 80(AX), X14
	MOVOU 96(AX), X15

	MOVOU 0(DI), X0
	MOVOU 16(DI), X1
	MOVOU 32(DI), X2
	MOVOU 48(DI), X3
	MOVOU 64(DI), X4
	MOVOU 80(DI), X5
	MOVOU 96(DI), X6
	MOVOU 112(DI), X7
	ENCRYPT8

	TESTQ CX, CX
	JZ    done

loop:
	ABSORB((SI), X0)
	ABSORB((SI)(DX*1), X1)
	ABSORB((SI)(DX*2), X2)
	ABSORB((SI)(R8*1), X3)
	ABSORB((R9), X4)
	ABSORB((R9)(DX*1), X5)
	ABSORB((R9)(DX*2), X6)
	ABSORB((R9)(R8*1), X7)
	ENCRYPT8
	ADDQ  $16, SI
	ADDQ  $16, R9
	DECQ  CX
	JNZ   loop

done:
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	RET
