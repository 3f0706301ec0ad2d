// Quickstart: run the paper's headline experiment — IPv4 forwarding of
// 64-byte packets at full load, CPU-only versus CPU+GPU — in a few
// lines of the public API.
package main

import (
	"fmt"
	"log"

	"packetshader"
)

func main() {
	for _, mode := range []struct {
		name string
		m    packetshader.Mode
	}{
		{"CPU-only", packetshader.ModeCPUOnly},
		{"CPU+GPU ", packetshader.ModeGPU},
	} {
		// 100k-prefix synthetic BGP table (the paper uses 282,797; a
		// smaller table keeps the quickstart fast and does not change
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
}
