#include "textflag.h"

// SHA-1 compression for sixteen independent messages, one per 32-bit
// lane of an AVX-512 register: the GPU's one thread per packet (§6.2.4)
// on the host. Z0-Z4 hold a-e for all lanes; rounds rename them instead
// of moving them, so the roles come back every five rounds. Z12-Z31 are a
// twenty-word window of the message schedule, word t in Z(12 + t mod 20):
// after twenty rounds every register is back in its role, and one pair
// of macros serves rounds 20-39, 40-59 and 60-79. Z7 and Z8 hold the
// lanes' message pointers (lanes 0-7, 8-15), Z9 the byte-swap mask, Z5
// and Z6 are scratch. SI is the block's offset into every message.

// VPSHUFB mask reversing the bytes of each 32-bit word.
DATA bswapMask<>+0(SB)/8, $0x0405060700010203
DATA bswapMask<>+8(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+16(SB)/8, $0x0405060700010203
DATA bswapMask<>+24(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+32(SB)/8, $0x0405060700010203
DATA bswapMask<>+40(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+48(SB)/8, $0x0405060700010203
DATA bswapMask<>+56(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswapMask<>(SB), RODATA|NOPTR, $64

// The round constants, broadcast to every lane where they are added.
DATA k00<>+0(SB)/4, $0x5a827999
DATA k20<>+0(SB)/4, $0x6ed9eba1
DATA k40<>+0(SB)/4, $0x8f1bbcdc
DATA k60<>+0(SB)/4, $0xca62c1d6
GLOBL k00<>(SB), RODATA|NOPTR, $4
GLOBL k20<>(SB), RODATA|NOPTR, $4
GLOBL k40<>(SB), RODATA|NOPTR, $4
GLOBL k60<>(SB), RODATA|NOPTR, $4

#define K00 k00<>(SB)
#define K20 k20<>(SB)
#define K40 k40<>(SB)
#define K60 k60<>(SB)

// VPTERNLOGD truth tables of f(b, c, d), b the destination operand.
#define CH 0xca
#define PARITY 0x96
#define MAJ 0xe8

// LOAD gathers bytes off..off+3 of the block from every lane (lanes 0-7
// into yw, 8-15 through Y6, zeroed first so no gather waits on the one
// before) and byte-swaps them into the big-endian word zw.
#define LOAD(off, yw, zw) \
	KXNORW       K0, K0, K1; \
	KXNORW       K0, K0, K2; \
	VPXORD       Z6, Z6, Z6; \
	VPGATHERQD   off(SI)(Z7*1), K1, yw; \
	VPGATHERQD   off(SI)(Z8*1), K2, Y6; \
	VINSERTI64X4 $1, Y6, zw, zw; \
	VPSHUFB      Z9, zw, zw

// SCHED computes w = rotl1(w16 ^ w14 ^ w8 ^ w3), the words 16, 14, 8
// and 3 rounds back; w itself held the word 20 rounds back.
#define SCHED(w, w16, w14, w8, w3) \
	VPXORD     w14, w16, w; \
	VPTERNLOGD $PARITY, w3, w8, w; \
	VPROLD     $1, w, w

// ROUND is e += rotl5(a) + f(b, c, d) + k + w and b = rotl30(b); the
// next round's a is this round's e.
#define ROUND(f, k, a, b, c, d, e, w) \
	VPADDD.BCST k, e, e; \
	VPADDD      w, e, e; \
	VMOVDQA32   b, Z5; \
	VPTERNLOGD  $f, d, c, Z5; \
	VPADDD      Z5, e, e; \
	VPROLD      $5, a, Z5; \
	VPADDD      Z5, e, e; \
	VPROLD      $30, b, b

// SROUNDS16 and SROUNDS4 are twenty scheduled rounds: those whose word
// lands in Z12-Z27 and in Z28-Z31.
#define SROUNDS16(f, k) \
	SCHED(Z12, Z16, Z18, Z24, Z29); ROUND(f, k, Z0, Z1, Z2, Z3, Z4, Z12); \
	SCHED(Z13, Z17, Z19, Z25, Z30); ROUND(f, k, Z4, Z0, Z1, Z2, Z3, Z13); \
	SCHED(Z14, Z18, Z20, Z26, Z31); ROUND(f, k, Z3, Z4, Z0, Z1, Z2, Z14); \
	SCHED(Z15, Z19, Z21, Z27, Z12); ROUND(f, k, Z2, Z3, Z4, Z0, Z1, Z15); \
	SCHED(Z16, Z20, Z22, Z28, Z13); ROUND(f, k, Z1, Z2, Z3, Z4, Z0, Z16); \
	SCHED(Z17, Z21, Z23, Z29, Z14); ROUND(f, k, Z0, Z1, Z2, Z3, Z4, Z17); \
	SCHED(Z18, Z22, Z24, Z30, Z15); ROUND(f, k, Z4, Z0, Z1, Z2, Z3, Z18); \
	SCHED(Z19, Z23, Z25, Z31, Z16); ROUND(f, k, Z3, Z4, Z0, Z1, Z2, Z19); \
	SCHED(Z20, Z24, Z26, Z12, Z17); ROUND(f, k, Z2, Z3, Z4, Z0, Z1, Z20); \
	SCHED(Z21, Z25, Z27, Z13, Z18); ROUND(f, k, Z1, Z2, Z3, Z4, Z0, Z21); \
	SCHED(Z22, Z26, Z28, Z14, Z19); ROUND(f, k, Z0, Z1, Z2, Z3, Z4, Z22); \
	SCHED(Z23, Z27, Z29, Z15, Z20); ROUND(f, k, Z4, Z0, Z1, Z2, Z3, Z23); \
	SCHED(Z24, Z28, Z30, Z16, Z21); ROUND(f, k, Z3, Z4, Z0, Z1, Z2, Z24); \
	SCHED(Z25, Z29, Z31, Z17, Z22); ROUND(f, k, Z2, Z3, Z4, Z0, Z1, Z25); \
	SCHED(Z26, Z30, Z12, Z18, Z23); ROUND(f, k, Z1, Z2, Z3, Z4, Z0, Z26); \
	SCHED(Z27, Z31, Z13, Z19, Z24); ROUND(f, k, Z0, Z1, Z2, Z3, Z4, Z27)

#define SROUNDS4(f, k) \
	SCHED(Z28, Z12, Z14, Z20, Z25); ROUND(f, k, Z4, Z0, Z1, Z2, Z3, Z28); \
	SCHED(Z29, Z13, Z15, Z21, Z26); ROUND(f, k, Z3, Z4, Z0, Z1, Z2, Z29); \
	SCHED(Z30, Z14, Z16, Z22, Z27); ROUND(f, k, Z2, Z3, Z4, Z0, Z1, Z30); \
	SCHED(Z31, Z15, Z17, Z23, Z28); ROUND(f, k, Z1, Z2, Z3, Z4, Z0, Z31)

// func blockSHA1x16(h *[5][16]uint32, p *[16]*byte, blocks int)
TEXT ·blockSHA1x16(SB), NOSPLIT, $0-24
	MOVQ  h+0(FP), DI
	MOVQ  p+8(FP), AX
	MOVQ  blocks+16(FP), CX
	TESTQ CX, CX
	JLE   done

	VMOVDQU64 (AX), Z7
	VMOVDQU64 64(AX), Z8
	VMOVDQU64 bswapMask<>(SB), Z9
	VMOVDQU32 (DI), Z0
	VMOVDQU32 64(DI), Z1
	VMOVDQU32 128(DI), Z2
	VMOVDQU32 192(DI), Z3
	VMOVDQU32 256(DI), Z4
	XORQ      SI, SI

loop:
	LOAD(0, Y12, Z12); ROUND(CH, K00, Z0, Z1, Z2, Z3, Z4, Z12)
	LOAD(4, Y13, Z13); ROUND(CH, K00, Z4, Z0, Z1, Z2, Z3, Z13)
	LOAD(8, Y14, Z14); ROUND(CH, K00, Z3, Z4, Z0, Z1, Z2, Z14)
	LOAD(12, Y15, Z15); ROUND(CH, K00, Z2, Z3, Z4, Z0, Z1, Z15)
	LOAD(16, Y16, Z16); ROUND(CH, K00, Z1, Z2, Z3, Z4, Z0, Z16)
	LOAD(20, Y17, Z17); ROUND(CH, K00, Z0, Z1, Z2, Z3, Z4, Z17)
	LOAD(24, Y18, Z18); ROUND(CH, K00, Z4, Z0, Z1, Z2, Z3, Z18)
	LOAD(28, Y19, Z19); ROUND(CH, K00, Z3, Z4, Z0, Z1, Z2, Z19)
	LOAD(32, Y20, Z20); ROUND(CH, K00, Z2, Z3, Z4, Z0, Z1, Z20)
	LOAD(36, Y21, Z21); ROUND(CH, K00, Z1, Z2, Z3, Z4, Z0, Z21)
	LOAD(40, Y22, Z22); ROUND(CH, K00, Z0, Z1, Z2, Z3, Z4, Z22)
	LOAD(44, Y23, Z23); ROUND(CH, K00, Z4, Z0, Z1, Z2, Z3, Z23)
	LOAD(48, Y24, Z24); ROUND(CH, K00, Z3, Z4, Z0, Z1, Z2, Z24)
	LOAD(52, Y25, Z25); ROUND(CH, K00, Z2, Z3, Z4, Z0, Z1, Z25)
	LOAD(56, Y26, Z26); ROUND(CH, K00, Z1, Z2, Z3, Z4, Z0, Z26)
	LOAD(60, Y27, Z27); ROUND(CH, K00, Z0, Z1, Z2, Z3, Z4, Z27)
	SROUNDS4(CH, K00)
	SROUNDS16(PARITY, K20)
	SROUNDS4(PARITY, K20)
	SROUNDS16(MAJ, K40)
	SROUNDS4(MAJ, K40)
	SROUNDS16(PARITY, K60)
	SROUNDS4(PARITY, K60)

	// Eighty rounds put a-e back in Z0-Z4; add the block's input state.
	VPADDD    (DI), Z0, Z0
	VPADDD    64(DI), Z1, Z1
	VPADDD    128(DI), Z2, Z2
	VPADDD    192(DI), Z3, Z3
	VPADDD    256(DI), Z4, Z4
	VMOVDQU32 Z0, (DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, 128(DI)
	VMOVDQU32 Z3, 192(DI)
	VMOVDQU32 Z4, 256(DI)

	ADDQ $64, SI
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
