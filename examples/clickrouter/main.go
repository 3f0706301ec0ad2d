// clickrouter: the §7 "Click-like modular programming environment" —
// an IPv4 router is declared in Click's configuration language, the
// element graph compiles into a PacketShader application, and the
// LookupIPv4 element's work runs in the GPU shading step.
package main

import (
	"fmt"
	"log"

	"packetshader"
	lookupv4 "packetshader/internal/lookup/ipv4"
	"packetshader/internal/modular"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
)

const config = `
	// A standard IPv4 router, composed from elements.
	check :: CheckIPHeader;           // validate headers (bad -> [1])
	cnt   :: Counter;                 // fast-path packet counter
	ttl   :: DecTTL;                  // TTL decrement (expired -> [1])
	rt    :: LookupIPv4($table);      // DIR-24-8 LPM  **GPU offloaded**
	out   :: ToHop(8);                // emit to the next hop's port
	bad   :: Discard;

	check -> cnt -> ttl -> rt -> out;
	check[1] -> bad;
	ttl[1]   -> bad;
	rt[1]    -> bad;
`

func main() {
	entries := route.GenerateBGPTable(50000, 64, 17)
	tbl, err := lookupv4.Build(entries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("compiling pipeline:\n", config, "\n")
	if _, err := modular.Parse(config, modular.Bindings{"table": tbl}); err != nil {
		log.Fatal(err)
	}

	for _, mode := range []struct {
		name string
		m    packetshader.Mode
	}{{"CPU-only", packetshader.ModeCPUOnly}, {"CPU+GPU ", packetshader.ModeGPU}} {
		// Each run gets a fresh pipeline so counters start at zero.
		p, _ := modular.Parse(config, modular.Bindings{"table": tbl})
		inst := packetshader.Must(packetshader.New(p,
			&pktgen.UDP4Source{Size: 64, Seed: 17, Table: entries}, packetshader.WithMode(mode.m)))
		inst.Run(8 * packetshader.Millisecond) // warmup
		rep := inst.Run(6 * packetshader.Millisecond)
		inst.Close()
		cnt := p.ElementByName("cnt").(*modular.Counter)
		drop := p.ElementByName("bad").(*modular.Discard)
		fmt.Printf("%s  %5.1f Gbps   (counter saw %d packets, %d dropped, %d GPU launches)\n",
			mode.name, rep.DeliveredGbps, cnt.Packets, drop.Count, rep.Stats.GPULaunches)
	}
}
