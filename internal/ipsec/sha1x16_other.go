//go:build !amd64

package ipsec

// Off amd64 there is no blockSHA1x16: Batch hashes through crypto/hmac.
const x16Missing, useX16 = "amd64 (blockSHA1x16 is x86 assembly)", false

func blockSHA1x16(h *[5][lanes]uint32, p *[lanes]*byte, blocks int) {
	panic("ipsec: blockSHA1x16 needs AVX-512")
}
