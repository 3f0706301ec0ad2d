package ipsec

// blockSHANI compresses each whole 64-byte block of p into h
// (sha1block_amd64.s); it needs the SHA extensions, SSSE3 and SSE4.1.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// shaniMissing names the first feature blockSHANI needs that this CPU
// lacks, or is empty. (crypto/sha1 has no SHA-extensions path on amd64.)
var shaniMissing = missingSHANI()
var useSHANI = shaniMissing == ""

func missingSHANI() string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	switch {
	case ecx1&(1<<9) == 0:
		return "SSSE3 (CPUID.1:ECX[9])"
	case ecx1&(1<<19) == 0:
		return "SSE4.1 (CPUID.1:ECX[19])"
	case maxLeaf < 7 || ebx7&(1<<29) == 0:
		return "SHA (CPUID.(7,0):EBX[29])"
	}
	return ""
}
