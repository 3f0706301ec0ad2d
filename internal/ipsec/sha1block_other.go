//go:build !amd64

package ipsec

// Off amd64 there is no blockSHANI: HMACSHA1 takes the standard library's path.
const shaniMissing, useSHANI = "amd64 (blockSHANI is x86 assembly)", false

func blockSHANI(h *[5]uint32, p []byte) { panic("ipsec: blockSHANI needs the x86 SHA extensions") }
