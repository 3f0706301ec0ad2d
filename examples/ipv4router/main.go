// ipv4router: a fuller IPv4 forwarding scenario exercising the control
// plane as well as the data path — routes are withdrawn and re-announced
// while traffic flows, using the double-buffered FIB update scheme the
// paper sketches in §7, and the packet-size sweep of Figure 11(a) runs
// on the updated table.
package main

import (
	"fmt"
	"log"

	"packetshader"
	"packetshader/internal/apps"
	lookupv4 "packetshader/internal/lookup/ipv4"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
)

func main() {
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
}
