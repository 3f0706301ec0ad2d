package ipsec

import (
	"bytes"
	"syscall"
	"testing"
)

// TestCTRVAESStaysInsideItsBytes: ctrVAES loads and stores its last
// register under a byte mask, so src and dst may end at the last byte of
// a mapping. Placed flush against inaccessible pages, out of place and in
// place, at every length a tail can have and a pass and a half beyond,
// it must neither fault nor differ from the block loop.
func TestCTRVAESStaysInsideItsBytes(t *testing.T) {
	skipUnlessVAES(t, true)
	page := syscall.Getpagesize()
	// data | guard | data | guard
	mem, err := syscall.Mmap(-1, 0, 4*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	for _, guard := range [][]byte{mem[page : 2*page], mem[3*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAES([]byte("0123456789abcdef"))
	for n := 1; n <= 640; n++ {
		src, dst := mem[page-n:page], mem[3*page-n:3*page]
		for i := range src {
			src[i] = byte(i*7 + n)
		}
		want := make([]byte, n)
		ctrBlockLoop(a, want, src, 0x30, uint64(n))
		a.xorKeyStream(dst, src, 0x30, uint64(n), true)
		a.xorKeyStream(src, src, 0x30, uint64(n), true)
		if !bytes.Equal(dst, want) || !bytes.Equal(src, want) {
			t.Fatalf("len %d at the end of a mapping: differs from the block loop", n)
		}
	}
}
