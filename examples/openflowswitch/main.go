// openflowswitch: an OpenFlow 0.8.9 switch scenario — flows are
// installed into the exact-match table as "the controller" sees misses,
// then the switch data path runs at full load with GPU-offloaded hash
// computation and wildcard matching (§6.2.3).
package main

import (
	"fmt"

	"packetshader"
	"packetshader/internal/openflow"
	"packetshader/internal/packet"
)

// flowSource emits traffic from a bounded flow space so exact-match
// entries can be pre-installed (mirroring a learned switch).
type flowSource struct {
	flows int
	size  int
}

func (s *flowSource) tuple(port, idx int) (src, dst packet.IPv4Addr, sp, dp uint16) {
	h := uint64(port)<<32 | uint64(idx)
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return packet.IPv4Addr(0x0A000000 | uint32(h&0xffffff)),
		packet.IPv4Addr(0x0B000000 | uint32(h>>24&0xffffff)),
		uint16(h>>40) | 1024, uint16(idx) | 1024
}

func (s *flowSource) Fill(b *packet.Buf, port, queue int, seq uint64) {
	idx := int((seq*2654435761 + uint64(queue)) % uint64(s.flows))
	src, dst, sp, dp := s.tuple(port, idx)
	b.Reset(s.size)
	packet.BuildUDP4(b.Data, s.size,
		packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		src, dst, sp, dp)
}

func main() {
	const flowsPerPort = 4096
	src := &flowSource{flows: flowsPerPort, size: 64}

	// "Controller": install an exact entry for every flow of the space,
	// plus a low-priority wildcard rule punting unknown UDP to port 0.
	sw := openflow.NewSwitch(8 * flowsPerPort)
	var d packet.Decoder
	buf := make([]byte, 2048)
	for port := 0; port < 8; port++ {
		for idx := 0; idx < flowsPerPort; idx++ {
			s, dst, sp, dp := src.tuple(port, idx)
			frame := packet.BuildUDP4(buf, 64,
				packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
				s, dst, sp, dp)
			if err := d.Decode(frame); err != nil {
				panic(err)
			}
			key := openflow.ExtractKey(&d, uint16(port))
			sw.Exact.Insert(key, openflow.Action{
				Type: openflow.ActionOutput, Port: uint16(idx % 8)})
		}
	}
	sw.Wildcard.Insert(openflow.Rule{
		Wild: openflow.WAll &^ openflow.WNwProto, Priority: 1,
		Key:    openflow.FlowKey{NwProto: packet.ProtoUDP},
		Action: openflow.Action{Type: openflow.ActionOutput, Port: 0},
	})
	fmt.Printf("installed %d exact-match flows + %d wildcard rule(s)\n",
		sw.Exact.Len(), sw.Wildcard.Len())

	for _, mode := range []struct {
		name string
		m    packetshader.Mode
	}{{"CPU-only", packetshader.ModeCPUOnly}, {"CPU+GPU ", packetshader.ModeGPU}} {
		inst := packetshader.Must(packetshader.OpenFlowSwitch(sw, src,
			packetshader.WithMode(mode.m),
			packetshader.WithPacketSize(64)))
		inst.Run(6 * packetshader.Millisecond) // warmup
		rep := inst.Run(8 * packetshader.Millisecond)
		inst.Close()
		fmt.Printf("%s  %5.1f Gbps  (table misses so far: %d)\n",
			mode.name, rep.DeliveredGbps, sw.Misses)
	}
	fmt.Println("\npaper (Figure 11c): GPU beats CPU for every table size; 32 Gbps at 32K+32")
}
