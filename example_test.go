package packetshader_test

import (
	"errors"
	"fmt"
	"log"

	"packetshader"
	"packetshader/internal/ipsec"
	"packetshader/internal/packet"
)

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
	//    512B:    5.5   20.2
	//   1514B:    6.3   20.5
	// paper: 2.9-5.7 CPU-only; 10.2 (64B) to 20.0 (1514B) CPU+GPU
}
