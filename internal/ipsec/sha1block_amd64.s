#include "textflag.h"

// SHA-1 compression with the x86 SHA extensions, after Intel's published
// schedule. X0 holds ABCD with A in the top lane; E sits in lane 3 of X1
// or X2, in turn. X3-X6 are the sixteen-word message window, X7 the
// byte-swap mask, X8/X9 the block's input state.

// PSHUFB mask reversing all 16 bytes: big-endian words, W0 in the top lane.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

#define LOAD(off, m) MOVOU off(SI), m; PSHUFB X7, m

// RND runs four rounds with function f on W from m0. Their E is rotl30
// of A four rounds back, which SHA1NEXTE takes from the copy of ABCD in
// eIn and adds to W; eOut keeps ABCD's copy for the next four.
#define RND(f, eIn, eOut, m0) \
	SHA1NEXTE m0, eIn; \
	MOVO      X0, eOut; \
	SHA1RNDS4 $f, eIn, X0

// ROUNDS is RND while the schedule moves on four words: m1 += msg2(m0),
// m3 = msg1(m3, m0), m2 ^= m0.
#define ROUNDS(f, eIn, eOut, m0, m1, m2, m3) \
	RND(f, eIn, eOut, m0); \
	SHA1MSG2 m0, m1; \
	SHA1MSG1 m0, m3; \
	PXOR     m0, m2

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $~63, DX
	JZ   done
	ADDQ SI, DX

	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	MOVOU  flipMask<>(SB), X7

loop:
	MOVO X1, X8
	MOVO X0, X9

	// Rounds 0-3 add E itself; every later group's E comes from SHA1NEXTE.
	LOAD(0, X3)
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	LOAD(16, X4)
	RND(0, X2, X1, X4)
	SHA1MSG1 X4, X3
	LOAD(32, X5)
	RND(0, X1, X2, X5)
	SHA1MSG1 X5, X4
	PXOR     X5, X3
	LOAD(48, X6)
	ROUNDS(0, X2, X1, X6, X3, X4, X5)
	ROUNDS(0, X1, X2, X3, X4, X5, X6)
	ROUNDS(1, X2, X1, X4, X5, X6, X3)
	ROUNDS(1, X1, X2, X5, X6, X3, X4)
	ROUNDS(1, X2, X1, X6, X3, X4, X5)
	ROUNDS(1, X1, X2, X3, X4, X5, X6)
	ROUNDS(1, X2, X1, X4, X5, X6, X3)
	ROUNDS(2, X1, X2, X5, X6, X3, X4)
	ROUNDS(2, X2, X1, X6, X3, X4, X5)
	ROUNDS(2, X1, X2, X3, X4, X5, X6)
	ROUNDS(2, X2, X1, X4, X5, X6, X3)
	ROUNDS(2, X1, X2, X5, X6, X3, X4)
	ROUNDS(3, X2, X1, X6, X3, X4, X5)
	ROUNDS(3, X1, X2, X3, X4, X5, X6)
	RND(3, X2, X1, X4)
	SHA1MSG2 X4, X5
	PXOR     X4, X6
	RND(3, X1, X2, X5)
	SHA1MSG2 X5, X6
	RND(3, X2, X1, X6)

	// The final E is the input E plus rotl30 of A before rounds 76-79.
	SHA1NEXTE X8, X1
	PADDD     X9, X0

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

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
