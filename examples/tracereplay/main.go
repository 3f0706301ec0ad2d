// tracereplay: trace-driven workloads — capture the router's forwarded
// traffic to a pcap file with a Tap, then replay that capture as the
// offered load of a second run. The capture is standard nanosecond
// pcap, readable by tcpdump/Wireshark.
package main

import (
	"bytes"
	"fmt"
	"log"

	"packetshader"
	"packetshader/internal/apps"
	lookupv4 "packetshader/internal/lookup/ipv4"
	"packetshader/internal/pcap"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
)

func main() {
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
}
