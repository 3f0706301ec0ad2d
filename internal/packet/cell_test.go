package packet_test

import (
	"bytes"
	"testing"
	"unsafe"

	"packetshader/internal/openflow"
	"packetshader/internal/packet"
)

// TestDataStaysCellPrefix: a Buf keeps no record of its cell but Data,
// so Data must stay a prefix of the cell — starting on it, with the
// cell's size as its capacity — through Get, Reset within the cell and
// across a promotion, an 802.1Q push and strip by openflow.ApplyMods,
// and Release and reuse. Cells of up to a page are carved from
// page-aligned slabs in their own size, so a prefix starts on a multiple
// of its capacity.
func TestDataStaysCellPrefix(t *testing.T) {
	check := func(step string, b *packet.Buf, wantCap int) {
		t.Helper()
		start := uintptr(unsafe.Pointer(unsafe.SliceData(b.Data)))
		if c := cap(b.Data); c != wantCap || start%uintptr(c) != 0 {
			t.Fatalf("%s: Data at %#x with capacity %d is not a prefix of a %d B cell", step, start, c, wantCap)
		}
	}
	pool := packet.NewBufPool(2048)
	b := pool.Get(64)
	check("Get(64)", b, 256)
	b.Data = packet.BuildUDP4(b.Data, 64, packet.MAC{2}, packet.MAC{4}, 0x0a000001, 0x0a000002, 1, 2)
	frame := bytes.Clone(b.Data)

	out, err := openflow.ApplyMods(b.Data, []openflow.Mod{{Type: openflow.ModSetVLAN, VLAN: 7}})
	if err != nil || len(out) != 68 {
		t.Fatalf("VLAN push: %d bytes, %v", len(out), err)
	}
	b.Data = out
	check("VLAN push", b, 256)
	if b.Data, err = openflow.ApplyMods(b.Data, []openflow.Mod{{Type: openflow.ModStripVLAN}}); err != nil {
		t.Fatal(err)
	}
	check("VLAN strip", b, 256)
	if !bytes.Equal(b.Data, frame) {
		t.Fatal("push then strip changed the frame")
	}

	b.Reset(200)
	check("Reset(200)", b, 256)
	b.Reset(300)
	check("Reset(300)", b, 512)
	if !bytes.Equal(b.Data[:64], frame) {
		t.Fatal("promotion lost the frame")
	}
	b.Release()
	check("Get(64) of the cell the promotion left", pool.Get(64), 256)
	if c := pool.Get(300); c != b {
		t.Fatal("the promoted Buf was not recycled in its new class")
	}
	check("Get(300) after Release", b, 512)
}
