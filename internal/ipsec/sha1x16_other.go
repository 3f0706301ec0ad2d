//go:build !amd64

package ipsec

// Off amd64 there is no blockSHA1x16 and no ctrVAES: Batch hashes
// through crypto/hmac, and AES.CTR draws its keystream from GCM.
const x16Missing, useX16 = "amd64 (blockSHA1x16 is x86 assembly)", false
const vaesMissing, useVAES = "amd64 (ctrVAES is x86 assembly)", false

func blockSHA1x16(h *[5][lanes]uint32, p *[lanes]*byte, blocks int) {
	panic("ipsec: blockSHA1x16 needs AVX-512")
}

func ctrVAES(rk *[11][AESBlockSize]byte, dst, src *byte, n int, ctr *[AESBlockSize]byte) {
	panic("ipsec: ctrVAES needs VAES")
}
