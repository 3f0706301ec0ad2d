#include "textflag.h"

// AES-128 CTR keystream sixteen blocks per pass, one 16-byte block per
// 128-bit lane of four ZMM registers: the GPU's one thread per AES block
// (§6.2.4) on the host's VAES unit. Z16-Z26 hold the eleven round keys,
// each broadcast to all four lanes. Z28 holds the next four counter
// blocks, nonce | iv in bytes 0-11 and the 32-bit counter in native order
// in dword 3, so VPADDD advances it and wraps it at 32 bits; Z27 turns a
// copy into the big-endian block AES encrypts, and Z29 is +4 in every
// lane's counter. Z0-Z3 are the blocks in flight, Z4 the tail's source.

// VPSHUFB mask: bytes 0-11 stay, bytes 12-15 (the counter) are reversed.
// It is its own inverse, so it also loads the caller's big-endian block.
DATA ctrSwap<>+0(SB)/8, $0x0706050403020100
DATA ctrSwap<>+8(SB)/8, $0x0c0d0e0f0b0a0908
GLOBL ctrSwap<>(SB), RODATA|NOPTR, $16

// The counter offsets of lanes 0-3 and the step of one register.
DATA ctrLanes<>+0(SB)/8, $0
DATA ctrLanes<>+8(SB)/8, $0x0000000000000000
DATA ctrLanes<>+16(SB)/8, $0
DATA ctrLanes<>+24(SB)/8, $0x0000000100000000
DATA ctrLanes<>+32(SB)/8, $0
DATA ctrLanes<>+40(SB)/8, $0x0000000200000000
DATA ctrLanes<>+48(SB)/8, $0
DATA ctrLanes<>+56(SB)/8, $0x0000000300000000
GLOBL ctrLanes<>(SB), RODATA|NOPTR, $64

DATA ctrFour<>+0(SB)/8, $0
DATA ctrFour<>+8(SB)/8, $0x0000000400000000
GLOBL ctrFour<>(SB), RODATA|NOPTR, $16

// NEXT puts the next four counter blocks, big-endian, in z.
#define NEXT(z) \
	VPSHUFB Z27, Z28, z; \
	VPADDD  Z29, Z28, Z28

// ROUNDn applies one AES step, op with round key k, to Z0..Z(n-1).
#define ROUND1(op, k) op k, Z0, Z0
#define ROUND2(op, k) ROUND1(op, k); op k, Z1, Z1
#define ROUND3(op, k) ROUND2(op, k); op k, Z2, Z2
#define ROUND4(op, k) ROUND3(op, k); op k, Z3, Z3

// KS encrypts the counter blocks in the registers ROUNDn covers: the
// whitening XOR, nine full rounds and the last.
#define KS(ROUNDn) \
	ROUNDn(VPXORD, Z16); \
	ROUNDn(VAESENC, Z17); \
	ROUNDn(VAESENC, Z18); \
	ROUNDn(VAESENC, Z19); \
	ROUNDn(VAESENC, Z20); \
	ROUNDn(VAESENC, Z21); \
	ROUNDn(VAESENC, Z22); \
	ROUNDn(VAESENC, Z23); \
	ROUNDn(VAESENC, Z24); \
	ROUNDn(VAESENC, Z25); \
	ROUNDn(VAESENCLAST, Z26)

// XOR64 XORs 64 bytes of keystream z into dst and moves on.
#define XOR64(z) \
	VPXORD    (SI), z, z; \
	VMOVDQU64 z, (DI); \
	ADDQ      $64, SI; \
	ADDQ      $64, DI; \
	SUBQ      $64, CX

// func ctrVAES(rk *[11][16]byte, dst, src *byte, n int, ctr *[16]byte)
TEXT ·ctrVAES(SB), NOSPLIT, $0-40
	MOVQ  rk+0(FP), AX
	MOVQ  dst+8(FP), DI
	MOVQ  src+16(FP), SI
	MOVQ  n+24(FP), CX
	MOVQ  ctr+32(FP), DX
	TESTQ CX, CX
	JLE   done

	VBROADCASTI32X4 0(AX), Z16
	VBROADCASTI32X4 16(AX), Z17
	VBROADCASTI32X4 32(AX), Z18
	VBROADCASTI32X4 48(AX), Z19
	VBROADCASTI32X4 64(AX), Z20
	VBROADCASTI32X4 80(AX), Z21
	VBROADCASTI32X4 96(AX), Z22
	VBROADCASTI32X4 112(AX), Z23
	VBROADCASTI32X4 128(AX), Z24
	VBROADCASTI32X4 144(AX), Z25
	VBROADCASTI32X4 160(AX), Z26
	VBROADCASTI32X4 ctrSwap<>(SB), Z27
	VBROADCASTI32X4 ctrFour<>(SB), Z29
	VBROADCASTI32X4 (DX), Z28
	VPSHUFB         Z27, Z28, Z28
	VPADDD          ctrLanes<>(SB), Z28, Z28

loop:
	CMPQ CX, $256
	JB   tail
	NEXT(Z0)
	NEXT(Z1)
	NEXT(Z2)
	NEXT(Z3)
	KS(ROUND4)
	VPXORD    (SI), Z0, Z0
	VPXORD    64(SI), Z1, Z1
	VPXORD    128(SI), Z2, Z2
	VPXORD    192(SI), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, DI
	SUBQ      $256, CX
	JMP       loop

	// Under 256 bytes left: ceil(CX / 64) registers of keystream, every
	// one but the last XORed in whole, the last under a byte mask.
tail:
	TESTQ CX, CX
	JZ    end
	NEXT(Z0)
	CMPQ  CX, $64
	JBE   tail1
	NEXT(Z1)
	CMPQ  CX, $128
	JBE   tail2
	NEXT(Z2)
	CMPQ  CX, $192
	JBE   tail3
	NEXT(Z3)
	KS(ROUND4)
	XOR64(Z0)
	XOR64(Z1)
	XOR64(Z2)
	VMOVDQA64 Z3, Z0
	JMP       last

tail3:
	KS(ROUND3)
	XOR64(Z0)
	XOR64(Z1)
	VMOVDQA64 Z2, Z0
	JMP       last

tail2:
	KS(ROUND2)
	XOR64(Z0)
	VMOVDQA64 Z1, Z0
	JMP       last

tail1:
	KS(ROUND1)

	// Z0 is the keystream for the last CX bytes, 1 <= CX <= 64; K1 keeps
	// the load and the store inside them.
last:
	MOVQ        CX, BX
	MOVQ        $64, CX
	SUBQ        BX, CX
	MOVQ        $-1, AX
	SHRQ        CX, AX
	KMOVQ       AX, K1
	VMOVDQU8.Z  (SI), K1, Z4
	VPXORD      Z4, Z0, Z0
	VMOVDQU8    Z0, K1, (DI)

end:
	VZEROUPPER

done:
	RET
