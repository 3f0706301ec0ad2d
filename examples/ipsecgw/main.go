// ipsecgw: an IPsec VPN gateway scenario — the §6.2.4 workload with the
// §5.4 "concurrent copy and execution" optimization, demonstrating that
// the ESP output of the simulated router is real, verifiable IPsec: a
// software peer decapsulates and authenticates captured packets.
package main

import (
	"fmt"
	"log"

	"packetshader"
	"packetshader/internal/ipsec"
	"packetshader/internal/packet"
)

func main() {
	// Demonstrate the crypto substrate first: tunnel a packet through
	// an SA pair and verify the round trip.
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

	// Tampering must be detected.
	outer2, _ := sender.Encap(make([]byte, 2048), inner)
	outer2[40] ^= 1
	if _, err := receiver.Decap(outer2); err == ipsec.ErrAuth {
		fmt.Println("tampered packet rejected (ICV mismatch)")
	}

	// Now the gateway at scale: Figure 11(d)'s size sweep.
	fmt.Println("\nIPsec gateway throughput, input Gbps (CPU-only vs CPU+GPU):")
	for _, size := range []int{64, 512, 1514} {
		row := fmt.Sprintf("  %4dB:", size)
		for _, mode := range []packetshader.Mode{packetshader.ModeCPUOnly, packetshader.ModeGPU} {
			inst := packetshader.Must(packetshader.IPsec(13,
				packetshader.WithMode(mode),
				packetshader.WithPacketSize(size),
				packetshader.WithStreams(4))) // §5.4: streams help IPsec
			inst.Run(20 * packetshader.Millisecond) // warmup (rings fill slowly)
			rep := inst.Run(8 * packetshader.Millisecond)
			inst.Close()
			row += fmt.Sprintf("  %5.1f", rep.InputGbps)
		}
		fmt.Println(row)
	}
	fmt.Println("paper: 2.9-5.7 CPU-only; 10.2 (64B) to 20.0 (1514B) CPU+GPU")
}
