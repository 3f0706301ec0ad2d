package packetshader_test

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"packetshader"
	"packetshader/internal/apps"
	"packetshader/internal/ipsec"
	lookupv4 "packetshader/internal/lookup/ipv4"
	"packetshader/internal/openflow"
	"packetshader/internal/packet"
	"packetshader/internal/pcap"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
)

// The paper's headline experiment — IPv4 forwarding of 64-byte packets
// at full load, CPU-only versus CPU+GPU — in a few lines of the facade.
func ExampleIPv4() {
	for _, mode := range []struct {
		name string
		m    packetshader.Mode
	}{
		{"CPU-only", packetshader.ModeCPUOnly},
		{"CPU+GPU ", packetshader.ModeGPU},
	} {
		// 100k-prefix synthetic BGP table (the paper uses 282,797; a
		// smaller table keeps the example fast and does not change
		// DIR-24-8 lookup cost).
		inst, err := packetshader.IPv4(100000, 42,
			packetshader.WithMode(mode.m),
			packetshader.WithPacketSize(64),
			packetshader.WithOfferedGbps(10))
		if err != nil {
			log.Fatal(err)
		}
		inst.Run(5 * packetshader.Millisecond) // warmup
		report := inst.Run(10 * packetshader.Millisecond)
		inst.Close()
		fmt.Printf("%s  %5.1f Gbps   (mean latency %.0f us, %d GPU launches)\n",
			mode.name, report.DeliveredGbps, report.MeanLatencyUs,
			report.Stats.GPULaunches)
	}
	fmt.Println("\npaper (Figure 11a, 64B): CPU-only ≈ 28 Gbps, CPU+GPU ≈ 39 Gbps")
	// Output:
	// CPU-only   26.2 Gbps   (mean latency 582 us, 0 GPU launches)
	// CPU+GPU    34.6 Gbps   (mean latency 492 us, 764 GPU launches)
	//
	// paper (Figure 11a, 64B): CPU-only ≈ 28 Gbps, CPU+GPU ≈ 39 Gbps
}

// An IPv4 router whose control plane changes under it: routes are
// withdrawn and re-announced through the double-buffered FIB the paper
// sketches in §7, and Figure 11(a)'s size sweep then runs on the
// updated table, with the application handed to New directly.
func ExampleNew() {
	// Control plane: a RIB seeded with a BGP-scale table.
	rib := route.NewRIB()
	for _, e := range route.GenerateBGPTable(50000, 64, 7) {
		rib.Add(e.Prefix, e.NextHop)
	}
	build := func() *lookupv4.Table {
		t, err := lookupv4.Build(rib.Entries())
		if err != nil {
			log.Fatal(err)
		}
		return t
	}
	fib := route.NewFIB(build())

	// Simulate a flap: withdraw a thousand routes, publish a new
	// generation, re-announce, publish again — the data path always
	// reads a complete table.
	entries := rib.Entries()
	for i := 0; i < 1000; i++ {
		rib.Remove(entries[i].Prefix)
	}
	old := fib.Publish(build())
	fmt.Printf("withdrew 1000 routes; FIB generations swapped (old had %d MB)\n",
		old.MemBytes()>>20)
	for i := 0; i < 1000; i++ {
		rib.Add(entries[i].Prefix, entries[i].NextHop)
	}
	fib.Publish(build())
	fmt.Printf("re-announced; RIB holds %d routes\n\n", rib.Len())

	// Data plane: Figure 11(a)'s size sweep on the final table.
	fmt.Println("IPv4 forwarding, CPU+GPU (Gbps):")
	for _, size := range []int{64, 256, 1024, 1514} {
		app := &apps.IPv4Fwd{Table: fib.Active(), NumPorts: packetshader.NumPorts}
		inst := packetshader.Must(packetshader.New(app,
			&pktgen.UDP4Source{Size: size, Seed: 7, Table: rib.Entries()}, packetshader.WithPacketSize(size)))
		inst.Run(8 * packetshader.Millisecond) // warmup
		rep := inst.Run(6 * packetshader.Millisecond)
		inst.Close()
		fmt.Printf("  %4dB: %5.1f  (slow-path punts: %d)\n",
			size, rep.DeliveredGbps, app.SlowPath)
	}
	// Output:
	// withdrew 1000 routes; FIB generations swapped (old had 32 MB)
	// re-announced; RIB holds 50000 routes
	//
	// IPv4 forwarding, CPU+GPU (Gbps):
	//     64B:  34.6  (slow-path punts: 0)
	//    256B:  40.7  (slow-path punts: 0)
	//   1024B:  40.8  (slow-path punts: 0)
	//   1514B:  40.9  (slow-path punts: 0)
}

// flowSource emits traffic from a bounded flow space so exact-match
// entries can be pre-installed (mirroring a learned switch). It is a
// custom workload: anything with Fill is a packetshader.Source.
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

// An OpenFlow 0.8.9 switch (§6.2.3): flows are installed into the
// exact-match table as "the controller" sees them, then the switch data
// path runs at full load with GPU-offloaded hashing and wildcard
// matching.
func ExampleOpenFlowSwitch() {
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
				log.Fatal(err)
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
	// Output:
	// installed 32768 exact-match flows + 1 wildcard rule(s)
	// CPU-only   25.2 Gbps  (table misses so far: 0)
	// CPU+GPU    32.6 Gbps  (table misses so far: 0)
	//
	// paper (Figure 11c): GPU beats CPU for every table size; 32 Gbps at 32K+32
}

// A trace-driven workload: a Tap captures the router's forwarded
// traffic as nanosecond pcap (readable by tcpdump and Wireshark), and
// the capture is replayed as the offered load of a second run.
func ExampleInstance_TapTx() {
	entries := route.GenerateBGPTable(20000, 64, 99)
	tbl, err := lookupv4.Build(entries)
	if err != nil {
		log.Fatal(err)
	}

	// Run 1: synthetic traffic, capturing 50k forwarded packets.
	var capture bytes.Buffer
	tap := &pcap.Tap{W: pcap.NewWriter(&capture, 0), Limit: 50000}
	run := func(src packetshader.Source, observe bool) float64 {
		inst := packetshader.Must(packetshader.New(
			&apps.IPv4Fwd{Table: tbl, NumPorts: packetshader.NumPorts}, src))
		defer inst.Close()
		if observe {
			inst.TapTx(tap.Observe)
		}
		inst.Run(6 * packetshader.Millisecond) // warmup
		return inst.Run(4 * packetshader.Millisecond).DeliveredGbps
	}

	g1 := run(&pktgen.UDP4Source{Size: 64, Seed: 99, Table: entries}, true)
	fmt.Printf("run 1 (synthetic): %.1f Gbps, captured %d packets (%d pcap bytes)\n",
		g1, tap.W.Packets, capture.Len())

	// Run 2: replay the capture as the workload.
	replay, err := pktgen.NewReplaySourceFromBytes(capture.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	g2 := run(replay, false)
	fmt.Printf("run 2 (trace-driven replay of %d frames): %.1f Gbps\n",
		replay.Len(), g2)
	// Output:
	// run 1 (synthetic): 34.7 Gbps, captured 50000 packets (4000024 pcap bytes)
	// run 2 (trace-driven replay of 50000 frames): 35.4 Gbps
}

// An IPsec VPN gateway: the §6.2.4 workload with §5.4's concurrent copy
// and execution. The ESP it emits is real IPsec, so a software peer
// decapsulates and authenticates it, and a flipped bit is refused.
func ExampleIPsec() {
	enc := []byte("0123456789abcdef")
	auth := []byte("authentication-key")
	sender := ipsec.NewSA(0x1001, 0xdecafbad, enc, auth, 0x0A000001, 0x0A000002)
	receiver := ipsec.NewSA(0x1001, 0xdecafbad, enc, auth, 0x0A000001, 0x0A000002)

	var frameBuf [2048]byte
	frame := packet.BuildUDP4(frameBuf[:], 200,
		packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		0x0B000001, 0x0C000002, 4500, 4500)
	inner := frame[packet.EthHdrLen:]
	outer, err := sender.Encap(make([]byte, 2048), inner)
	if err != nil {
		log.Fatal(err)
	}
	got, err := receiver.Decap(outer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ESP tunnel: %dB inner -> %dB outer -> decapsulated %dB, authenticated OK\n",
		len(inner), len(outer), len(got))

	tampered, _ := sender.Encap(make([]byte, 2048), inner)
	tampered[40] ^= 1
	if _, err := receiver.Decap(tampered); errors.Is(err, ipsec.ErrAuth) {
		fmt.Println("tampered packet rejected (ICV mismatch)")
	}

	// The gateway at scale: Figure 11(d)'s size sweep.
	fmt.Println("\nIPsec gateway throughput, input Gbps (CPU-only vs CPU+GPU):")
	for _, size := range []int{64, 512, 1514} {
		row := fmt.Sprintf("  %4dB:", size)
		for _, mode := range []packetshader.Mode{packetshader.ModeCPUOnly, packetshader.ModeGPU} {
			inst := packetshader.Must(packetshader.IPsec(13,
				packetshader.WithMode(mode),
				packetshader.WithPacketSize(size),
				packetshader.WithStreams(4))) // §5.4: streams help IPsec
			inst.Run(20 * packetshader.Millisecond) // warm-up: the rings fill slowly
			rep := inst.Run(8 * packetshader.Millisecond)
			inst.Close()
			row += fmt.Sprintf("  %5.1f", rep.InputGbps)
		}
		fmt.Println(row)
	}
	fmt.Println("paper: 2.9-5.7 CPU-only; 10.2 (64B) to 20.0 (1514B) CPU+GPU")
	// Output:
	// ESP tunnel: 186B inner -> 236B outer -> decapsulated 186B, authenticated OK
	// tampered packet rejected (ICV mismatch)
	//
	// IPsec gateway throughput, input Gbps (CPU-only vs CPU+GPU):
	//     64B:    3.2   10.8
	//    512B:    5.5   20.0
	//   1514B:    6.3   19.7
	// paper: 2.9-5.7 CPU-only; 10.2 (64B) to 20.0 (1514B) CPU+GPU
}
