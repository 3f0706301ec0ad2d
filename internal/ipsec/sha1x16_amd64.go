package ipsec

// blockSHA1x16 compresses blocks 64-byte blocks of sixteen independent
// messages into h (sha1x16_amd64.s): lane l's message starts at p[l],
// and word w of its state is h[w][l]. It needs AVX512F and AVX512BW.
//
//go:noescape
func blockSHA1x16(h *[5][lanes]uint32, p *[lanes]*byte, blocks int)

// ctrVAES XORs n bytes of AES-128 CTR keystream into dst from src
// (ctr_amd64.s), sixteen blocks per pass, one per 128-bit lane of four
// ZMM registers. rk is the key schedule, ctr the first counter block
// (nonce | iv | big-endian counter); the counter wraps at 32 bits. dst
// may equal src; nothing past n is read or written. It needs what
// blockSHA1x16 needs and VAES.
//
//go:noescape
func ctrVAES(rk *[11][AESBlockSize]byte, dst, src *byte, n int, ctr *[AESBlockSize]byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register state the OS saves on a context
// switch; only legal once CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// x16Missing names the first feature blockSHA1x16 needs that this host
// lacks, or is empty.
var x16Missing = missingX16()
var useX16 = x16Missing == ""

// vaesMissing names the first feature ctrVAES needs that this host
// lacks, or is empty.
var vaesMissing = missingVAES()
var useVAES = vaesMissing == ""

func missingX16() string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 {
		return "OSXSAVE (CPUID.1:ECX[27])"
	}
	// SSE and AVX state (bits 1, 2), the opmask registers (5), the upper
	// halves of Z0-Z15 (6) and Z16-Z31 (7).
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return "OS-saved AVX-512 state (XCR0 & 0xE6 == 0xE6)"
	}
	if maxLeaf < 7 {
		return "AVX512F (CPUID.(7,0):EBX[16])"
	}
	_, ebx7, _, _ := cpuid(7, 0)
	switch {
	case ebx7&(1<<16) == 0:
		return "AVX512F (CPUID.(7,0):EBX[16])"
	case ebx7&(1<<30) == 0:
		return "AVX512BW (CPUID.(7,0):EBX[30])"
	}
	return ""
}

func missingVAES() string {
	if x16Missing != "" {
		return x16Missing
	}
	if _, _, ecx7, _ := cpuid(7, 0); ecx7&(1<<9) == 0 {
		return "VAES (CPUID.(7,0):ECX[9])"
	}
	return ""
}
