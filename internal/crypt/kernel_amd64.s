#include "textflag.h"

// EXPAND derives the next round key in K from K and X1, AESKEYGENASSIST's
// output for the key before it, stores it at (BX) and advances BX. IMM
// picks the assist word: $0xff (RotWord, SubWord and the round constant)
// or $0xaa (SubWord alone, AES-256's odd keys). X4's low word must start
// at zero; it stays zero. The SHUFPS/PXOR steps fold each word of the
// old key into the words after it.
#define EXPAND(IMM, K) \
	PSHUFD IMM, X1, X1;   \
	SHUFPS $0x10, K, X4;  \
	PXOR   X4, K;         \
	SHUFPS $0x8c, K, X4;  \
	PXOR   X4, K;         \
	PXOR   X1, K;         \
	MOVOU  K, (BX);       \
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
	EXPAND($0xff, X0)
	AESKEYGENASSIST $0x02, X0, X1
	EXPAND($0xff, X0)
	AESKEYGENASSIST $0x04, X0, X1
	EXPAND($0xff, X0)
	AESKEYGENASSIST $0x08, X0, X1
	EXPAND($0xff, X0)
	AESKEYGENASSIST $0x10, X0, X1
	EXPAND($0xff, X0)
	AESKEYGENASSIST $0x20, X0, X1
	EXPAND($0xff, X0)
	AESKEYGENASSIST $0x40, X0, X1
	EXPAND($0xff, X0)
	AESKEYGENASSIST $0x80, X0, X1
	EXPAND($0xff, X0)
	AESKEYGENASSIST $0x1b, X0, X1
	EXPAND($0xff, X0)
	AESKEYGENASSIST $0x36, X0, X1
	EXPAND($0xff, X0)
	RET

// EXPAND256 derives AES-256's next two round keys, the even one in X0
// from the odd key in X2 and round constant RCON, then the odd one in X2
// from the new even key.
#define EXPAND256(RCON) \
	AESKEYGENASSIST RCON, X2, X1; \
	EXPAND($0xff, X0);            \
	AESKEYGENASSIST $0x00, X0, X1; \
	EXPAND($0xaa, X2)

// func expandKey256(key *[32]byte, rk *[240]byte)
TEXT ·expandKey256(SB), NOSPLIT, $0-16
	MOVQ  key+0(FP), AX
	MOVQ  rk+8(FP), BX
	MOVOU (AX), X0
	MOVOU 16(AX), X2
	MOVOU X0, (BX)
	MOVOU X2, 16(BX)
	ADDQ  $32, BX
	PXOR  X4, X4
	EXPAND256($0x01)
	EXPAND256($0x02)
	EXPAND256($0x04)
	EXPAND256($0x08)
	EXPAND256($0x10)
	EXPAND256($0x20)
	AESKEYGENASSIST $0x40, X2, X1
	EXPAND($0xff, X0)
	RET

// The YMM kernels hold two AES blocks per register, one in each 128-bit
// half, and run eight registers Y0–Y7 side by side: sixteen blocks per
// VAESENC sweep. Round keys are stored twice over, 32 bytes a key.

// ROUND runs one AES round with key K on Y0–Y7.
#define ROUND(K) \
	VAESENC K, Y0, Y0; \
	VAESENC K, Y1, Y1; \
	VAESENC K, Y2, Y2; \
	VAESENC K, Y3, Y3; \
	VAESENC K, Y4, Y4; \
	VAESENC K, Y5, Y5; \
	VAESENC K, Y6, Y6; \
	VAESENC K, Y7, Y7

// LASTROUND runs AES's final round with key K on Y0–Y7.
#define LASTROUND(K) \
	VAESENCLAST K, Y0, Y0; \
	VAESENCLAST K, Y1, Y1; \
	VAESENCLAST K, Y2, Y2; \
	VAESENCLAST K, Y3, Y3; \
	VAESENCLAST K, Y4, Y4; \
	VAESENCLAST K, Y5, Y5; \
	VAESENCLAST K, Y6, Y6; \
	VAESENCLAST K, Y7, Y7

// XOR8 XORs M into each of Y0–Y7.
#define XOR8(M) \
	VPXOR M, Y0, Y0; \
	VPXOR M, Y1, Y1; \
	VPXOR M, Y2, Y2; \
	VPXOR M, Y3, Y3; \
	VPXOR M, Y4, Y4; \
	VPXOR M, Y5, Y5; \
	VPXOR M, Y6, Y6; \
	VPXOR M, Y7, Y7

// The tag kernel's arguments, laid out as tagArgs (TestTagArgsLayout).
#define A_RK 0
#define A_HDR 352
#define A_FIN 384
#define A_SHUF 416
#define A_TRUNC 448
#define A_TAGS 480
#define A_INDEX 736
#define A_STRIDE 744
#define A_BLOCKS 752
#define A_FINOFF 760
#define A_SLOT 768
#define A_WIDTH 776
#define A_TAIL 784

// ENCRYPT128 runs AES-128's rounds 1–10 on Y0–Y7, whose round key 0 is
// already added: keys 1–7 are in Y9–Y15, 8–10 pass through Y8 from the
// arguments at R13 (one load a round, not one per VAESENC).
#define ENCRYPT128 \
	ROUND(Y9);                   \
	ROUND(Y10);                  \
	ROUND(Y11);                  \
	ROUND(Y12);                  \
	ROUND(Y13);                  \
	ROUND(Y14);                  \
	ROUND(Y15);                  \
	VMOVDQU A_RK+256(R13), Y8;   \
	ROUND(Y8);                   \
	VMOVDQU A_RK+288(R13), Y8;   \
	ROUND(Y8);                   \
	VMOVDQU A_RK+320(R13), Y8;   \
	LASTROUND(Y8)

// HEADER builds in Y the header blocks of the two segments whose indexes
// are Y8's low qword plus lanes<>+OFF's, the halves' offsets in the group.
// VPSHUFB makes the index big-endian and clears the high half; A_HDR adds
// the file ID half, round key 0 and, for an empty payload, K1.
#define HEADER(OFF, Y) \
	VPADDQ  lanes<>+OFF(SB), Y8, Y; \
	VPSHUFB bswap64<>(SB), Y, Y;    \
	VPXOR   A_HDR(R13), Y, Y

// LOADPAIR loads the 16 bytes at LO into Y8's low half, those at HI into
// its high half.
#define LOADPAIR(LO, HI) \
	VMOVDQU    LO, X8; \
	VINSERTI128 $1, HI, Y8, Y8

// ABSORB8 XORs into each lane the block at its segment's pointer: Y_j's
// low half is segment j of the group, its high half segment j+8. AX, BX,
// R9 and R10 point at segments 0, 4, 8 and 12, DX is the stride and R8
// three strides.
#define ABSORB(LO, HI, Y) LOADPAIR(LO, HI); VPXOR Y8, Y, Y
#define ABSORB8 \
	ABSORB((AX), (R9), Y0);                 \
	ABSORB((AX)(DX*1), (R9)(DX*1), Y1);     \
	ABSORB((AX)(DX*2), (R9)(DX*2), Y2);     \
	ABSORB((AX)(R8*1), (R9)(R8*1), Y3);     \
	ABSORB((BX), (R10), Y4);                \
	ABSORB((BX)(DX*1), (R10)(DX*1), Y5);    \
	ABSORB((BX)(DX*2), (R10)(DX*2), Y6);    \
	ABSORB((BX)(R8*1), (R10)(R8*1), Y7)

// FINAL is ABSORB for the message's final block: the 16 bytes loaded are
// shuffled by A_SHUF into place (the block's bytes first, zeros behind).
#define FINAL(LO, HI, Y) LOADPAIR(LO, HI); VPSHUFB A_SHUF(R13), Y8, Y8; VPXOR Y8, Y, Y
#define FINAL8 \
	FINAL((AX), (R9), Y0);                  \
	FINAL((AX)(DX*1), (R9)(DX*1), Y1);      \
	FINAL((AX)(DX*2), (R9)(DX*2), Y2);      \
	FINAL((AX)(R8*1), (R9)(R8*1), Y3);      \
	FINAL((BX), (R10), Y4);                 \
	FINAL((BX)(DX*1), (R10)(DX*1), Y5);     \
	FINAL((BX)(DX*2), (R10)(DX*2), Y6);     \
	FINAL((BX)(R8*1), (R10)(R8*1), Y7)

// LANEPTRS points AX, BX, R9 and R10 at byte OFF of segments 0, 4, 8 and
// 12 of the group at SI.
#define LANEPTRS(OFF) \
	LEAQ (SI)(OFF*1), AX;  \
	LEAQ (AX)(DX*4), BX;   \
	LEAQ (BX)(DX*4), R9;   \
	LEAQ (R9)(DX*4), R10

// STORE writes one tag, WIDTH bytes at its slot's start and WIDTH at its
// end (the two overlap unless the tag is twice WIDTH), from the tag at
// R11 to the slot at DI; R9 is the tag size less WIDTH. Then it moves to
// the next segment and counts CX down.
#define STORE(MOV) \
	MOV  (R11), AX;        \
	MOV  (R11)(R9*1), BX;  \
	MOV  AX, (DI);         \
	MOV  BX, (DI)(R9*1);   \
	ADDQ $16, R11;         \
	ADDQ DX, DI;           \
	DECQ CX

// VERIFY compares one stored tag with the computed one, the same two
// overlapping words as STORE, without a branch, and ORs a mismatch into
// the segment's bad flag at R14.
#define VERIFY(MOV, XOR, OR) \
	MOV   (DI), AX;          \
	XOR   (R11), AX;         \
	MOV   (DI)(R9*1), BX;    \
	XOR   (R11)(R9*1), BX;   \
	OR    BX, AX;            \
	SETNE AX;                \
	ORB   AX, (R14);         \
	INCQ  R14;               \
	ADDQ  $16, R11;          \
	ADDQ  DX, DI;            \
	DECQ  CX

// func tagSlab16(a *tagArgs, slab *byte, bad *bool, groups int)
//
// Each pass takes the next sixteen segments of the slab at SI (stride
// DX): it builds their header blocks and encrypts them, absorbs
// A_BLOCKS body blocks, absorbs the masked final block at A_FINOFF (none
// when it is negative: an empty payload's header was its final block)
// and encrypts it, truncates, and then stores each tag in its segment's
// slot or, when bad is not nil, compares it with the slot's bytes.
TEXT ·tagSlab16(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), R13
	MOVQ slab+8(FP), SI
	MOVQ bad+16(FP), R14
	MOVQ groups+24(FP), R12
	MOVQ A_STRIDE(R13), DX
	LEAQ (DX)(DX*2), R8
	VMOVDQU A_RK+32(R13), Y9
	VMOVDQU A_RK+64(R13), Y10
	VMOVDQU A_RK+96(R13), Y11
	VMOVDQU A_RK+128(R13), Y12
	VMOVDQU A_RK+160(R13), Y13
	VMOVDQU A_RK+192(R13), Y14
	VMOVDQU A_RK+224(R13), Y15

group:
	VPBROADCASTQ A_INDEX(R13), Y8
	HEADER(0, Y0)
	HEADER(32, Y1)
	HEADER(64, Y2)
	HEADER(96, Y3)
	HEADER(128, Y4)
	HEADER(160, Y5)
	HEADER(192, Y6)
	HEADER(224, Y7)
	ENCRYPT128

	XORQ   CX, CX
	LANEPTRS(CX)
	MOVQ   A_BLOCKS(R13), CX
	TESTQ  CX, CX
	JZ     final

body:
	ABSORB8
	VMOVDQU A_RK(R13), Y8
	XOR8(Y8)
	ENCRYPT128
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, R9
	ADDQ $16, R10
	DECQ CX
	JNZ  body

final:
	MOVQ  A_FINOFF(R13), CX
	TESTQ CX, CX
	JS    truncate
	LANEPTRS(CX)
	FINAL8
	VMOVDQU A_FIN(R13), Y8
	XOR8(Y8)
	ENCRYPT128

truncate:
	VMOVDQU A_TRUNC(R13), Y8
	VPAND   Y8, Y0, Y0
	VPAND   Y8, Y1, Y1
	VPAND   Y8, Y2, Y2
	VPAND   Y8, Y3, Y3
	VPAND   Y8, Y4, Y4
	VPAND   Y8, Y5, Y5
	VPAND   Y8, Y6, Y6
	VPAND   Y8, Y7, Y7
	VMOVDQU X0, A_TAGS+0(R13)
	VMOVDQU X1, A_TAGS+16(R13)
	VMOVDQU X2, A_TAGS+32(R13)
	VMOVDQU X3, A_TAGS+48(R13)
	VMOVDQU X4, A_TAGS+64(R13)
	VMOVDQU X5, A_TAGS+80(R13)
	VMOVDQU X6, A_TAGS+96(R13)
	VMOVDQU X7, A_TAGS+112(R13)
	VEXTRACTI128 $1, Y0, A_TAGS+128(R13)
	VEXTRACTI128 $1, Y1, A_TAGS+144(R13)
	VEXTRACTI128 $1, Y2, A_TAGS+160(R13)
	VEXTRACTI128 $1, Y3, A_TAGS+176(R13)
	VEXTRACTI128 $1, Y4, A_TAGS+192(R13)
	VEXTRACTI128 $1, Y5, A_TAGS+208(R13)
	VEXTRACTI128 $1, Y6, A_TAGS+224(R13)
	VEXTRACTI128 $1, Y7, A_TAGS+240(R13)

	// The sixteen tags, in segment order, go to or are checked against
	// their slots, A_WIDTH bytes at a time.
	MOVQ  A_SLOT(R13), DI
	ADDQ  SI, DI
	LEAQ  A_TAGS(R13), R11
	MOVQ  A_TAIL(R13), R9
	MOVQ  $16, CX
	MOVQ  A_WIDTH(R13), AX
	TESTQ R14, R14
	JNZ   verify
	CMPQ  AX, $8
	JEQ   store8
	CMPQ  AX, $4
	JEQ   store4
	CMPQ  AX, $2
	JEQ   store2

store1:
	STORE(MOVB)
	JNZ store1
	JMP next

store2:
	STORE(MOVW)
	JNZ store2
	JMP next

store4:
	STORE(MOVL)
	JNZ store4
	JMP next

store8:
	STORE(MOVQ)
	JNZ store8
	JMP next

verify:
	CMPQ AX, $8
	JEQ  verify8
	CMPQ AX, $4
	JEQ  verify4
	CMPQ AX, $2
	JEQ  verify2

verify1:
	VERIFY(MOVB, XORB, ORB)
	JNZ verify1
	JMP next

verify2:
	VERIFY(MOVW, XORW, ORW)
	JNZ verify2
	JMP next

verify4:
	VERIFY(MOVL, XORL, ORL)
	JNZ verify4
	JMP next

verify8:
	VERIFY(MOVQ, XORQ, ORQ)
	JNZ verify8

next:
	ADDQ $16, A_INDEX(R13)
	LEAQ (SI)(DX*8), SI
	LEAQ (SI)(DX*8), SI
	DECQ R12
	JNZ  group
	VZEROUPPER
	RET

// func ctr256(rk *[15][32]byte, ctr *[16]byte, data *byte, groups int)
//
// Y15 holds the counter little-endian, one block per half: the low qword
// is the counter's low 64 bits, and only it advances (the caller splits a
// run where it would wrap). Each pass makes blocks ctr … ctr+15 into
// Y0–Y7 (the pair ctr+2j, ctr+2j+1 in Y_j), encrypts them under the
// AES-256 keys at AX — 0–4 in Y9–Y13, the rest loaded through Y8 round by
// round — and XORs the 256 bytes at SI with them.
TEXT ·ctr256(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ ctr+8(FP), BX
	MOVQ data+16(FP), SI
	MOVQ groups+24(FP), CX
	VMOVDQU        bswap128<>(SB), Y14
	VBROADCASTI128 (BX), Y15
	VPSHUFB        Y14, Y15, Y15
	VPADDQ         ctrhalf<>(SB), Y15, Y15
	VMOVDQU        0(AX), Y9
	VMOVDQU        32(AX), Y10
	VMOVDQU        64(AX), Y11
	VMOVDQU        96(AX), Y12
	VMOVDQU        128(AX), Y13

ctrloop:
	VMOVDQU Y15, Y0
	VPADDQ  ctrpairs<>+32(SB), Y15, Y1
	VPADDQ  ctrpairs<>+64(SB), Y15, Y2
	VPADDQ  ctrpairs<>+96(SB), Y15, Y3
	VPADDQ  ctrpairs<>+128(SB), Y15, Y4
	VPADDQ  ctrpairs<>+160(SB), Y15, Y5
	VPADDQ  ctrpairs<>+192(SB), Y15, Y6
	VPADDQ  ctrpairs<>+224(SB), Y15, Y7
	VPSHUFB Y14, Y0, Y0
	VPSHUFB Y14, Y1, Y1
	VPSHUFB Y14, Y2, Y2
	VPSHUFB Y14, Y3, Y3
	VPSHUFB Y14, Y4, Y4
	VPSHUFB Y14, Y5, Y5
	VPSHUFB Y14, Y6, Y6
	VPSHUFB Y14, Y7, Y7
	XOR8(Y9)
	ROUND(Y10)
	ROUND(Y11)
	ROUND(Y12)
	ROUND(Y13)
	VMOVDQU 160(AX), Y8
	ROUND(Y8)
	VMOVDQU 192(AX), Y8
	ROUND(Y8)
	VMOVDQU 224(AX), Y8
	ROUND(Y8)
	VMOVDQU 256(AX), Y8
	ROUND(Y8)
	VMOVDQU 288(AX), Y8
	ROUND(Y8)
	VMOVDQU 320(AX), Y8
	ROUND(Y8)
	VMOVDQU 352(AX), Y8
	ROUND(Y8)
	VMOVDQU 384(AX), Y8
	ROUND(Y8)
	VMOVDQU 416(AX), Y8
	ROUND(Y8)
	VMOVDQU 448(AX), Y8
	LASTROUND(Y8)
	VPXOR   0(SI), Y0, Y0
	VPXOR   32(SI), Y1, Y1
	VPXOR   64(SI), Y2, Y2
	VPXOR   96(SI), Y3, Y3
	VPXOR   128(SI), Y4, Y4
	VPXOR   160(SI), Y5, Y5
	VPXOR   192(SI), Y6, Y6
	VPXOR   224(SI), Y7, Y7
	VMOVDQU Y0, 0(SI)
	VMOVDQU Y1, 32(SI)
	VMOVDQU Y2, 64(SI)
	VMOVDQU Y3, 96(SI)
	VMOVDQU Y4, 128(SI)
	VMOVDQU Y5, 160(SI)
	VMOVDQU Y6, 192(SI)
	VMOVDQU Y7, 224(SI)
	VPADDQ  ctrstep<>(SB), Y15, Y15
	ADDQ    $256, SI
	DECQ    CX
	JNZ     ctrloop
	VZEROUPPER
	RET

// lanes<> is, for Y_j, the offsets in its group of the segments in its
// halves: j and j+8.
DATA lanes<>+0(SB)/8, $0
DATA lanes<>+16(SB)/8, $8
DATA lanes<>+32(SB)/8, $1
DATA lanes<>+48(SB)/8, $9
DATA lanes<>+64(SB)/8, $2
DATA lanes<>+80(SB)/8, $10
DATA lanes<>+96(SB)/8, $3
DATA lanes<>+112(SB)/8, $11
DATA lanes<>+128(SB)/8, $4
DATA lanes<>+144(SB)/8, $12
DATA lanes<>+160(SB)/8, $5
DATA lanes<>+176(SB)/8, $13
DATA lanes<>+192(SB)/8, $6
DATA lanes<>+208(SB)/8, $14
DATA lanes<>+224(SB)/8, $7
DATA lanes<>+240(SB)/8, $15
GLOBL lanes<>(SB), RODATA, $256

// bswap64<> reverses each half's low qword into big-endian order and
// zeroes its high qword.
DATA bswap64<>+0(SB)/8, $0x0001020304050607
DATA bswap64<>+8(SB)/8, $0x8080808080808080
DATA bswap64<>+16(SB)/8, $0x0001020304050607
DATA bswap64<>+24(SB)/8, $0x8080808080808080
GLOBL bswap64<>(SB), RODATA, $32

// bswap128<> reverses the bytes of each half.
DATA bswap128<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap128<>+8(SB)/8, $0x0001020304050607
DATA bswap128<>+16(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap128<>+24(SB)/8, $0x0001020304050607
GLOBL bswap128<>(SB), RODATA, $32

// ctrhalf<> puts the next counter in the high half.
DATA ctrhalf<>+0(SB)/8, $0
DATA ctrhalf<>+8(SB)/8, $0
DATA ctrhalf<>+16(SB)/8, $1
DATA ctrhalf<>+24(SB)/8, $0
GLOBL ctrhalf<>(SB), RODATA, $32

// ctrpairs<> is, for Y_j, its pair's distance from Y0's: 2j blocks.
DATA ctrpairs<>+0(SB)/8, $0
DATA ctrpairs<>+16(SB)/8, $0
DATA ctrpairs<>+32(SB)/8, $2
DATA ctrpairs<>+48(SB)/8, $2
DATA ctrpairs<>+64(SB)/8, $4
DATA ctrpairs<>+80(SB)/8, $4
DATA ctrpairs<>+96(SB)/8, $6
DATA ctrpairs<>+112(SB)/8, $6
DATA ctrpairs<>+128(SB)/8, $8
DATA ctrpairs<>+144(SB)/8, $8
DATA ctrpairs<>+160(SB)/8, $10
DATA ctrpairs<>+176(SB)/8, $10
DATA ctrpairs<>+192(SB)/8, $12
DATA ctrpairs<>+208(SB)/8, $12
DATA ctrpairs<>+224(SB)/8, $14
DATA ctrpairs<>+240(SB)/8, $14
GLOBL ctrpairs<>(SB), RODATA, $256

// ctrstep<> advances both halves by one pass, sixteen blocks.
DATA ctrstep<>+0(SB)/8, $16
DATA ctrstep<>+8(SB)/8, $0
DATA ctrstep<>+16(SB)/8, $16
DATA ctrstep<>+24(SB)/8, $0
GLOBL ctrstep<>(SB), RODATA, $32
