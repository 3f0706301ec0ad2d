package experiments

import (
	"testing"

	"packetshader/internal/model"
	"packetshader/internal/pktio"
)

// TestIOPlacementBindsEveryQueueOnce walks the worker enumeration
// ioHarness uses, for the engine shapes the §4 figures build: every
// (port, queue) must be opened by exactly one worker — an RX queue has
// one owner (Figure 8b), and an unpolled queue is offered load nobody
// fetches — and every worker must get at least one interface, because
// ioWorkerLoop sleeps on its first.
func TestIOPlacementBindsEveryQueueOnce(t *testing.T) {
	shape := func(nodes, ports, queues int) pktio.Config {
		cfg := pktio.DefaultConfig()
		cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = nodes, ports, queues
		return cfg
	}
	machine := func(queues int) pktio.Config {
		return shape(model.NumNodes, model.NumPorts, queues)
	}
	for _, c := range []struct {
		name  string
		cfg   pktio.Config
		place ioPlacement
	}{
		{"table3", shape(1, 1, 1), numaAware},
		{"fig5", shape(1, 2, 1), numaAware},
		{"fig6 / numa aware", machine(model.CoresPerNode), numaAware},
		{"numa blind", machine(model.CoresPerNode * model.NumNodes), numaBlind},
		// On one node the two placements are the same binding.
		{"table3 blind", shape(1, 1, 1), numaBlind},
		{"fig5 blind", shape(1, 2, 1), numaBlind},
		// The router's own shape: fewer queues than cores.
		{"default", pktio.DefaultConfig(), numaAware},
	} {
		owners := make([]int, c.cfg.Ports*c.cfg.QueuesPerPort)
		for n := 0; n < c.cfg.Nodes; n++ {
			for w := 0; w < ioWorkersPerNode(c.cfg); w++ {
				lo, hi, queue := c.place(c.cfg, n, w)
				if lo >= hi {
					t.Errorf("%s: worker %d of node %d has no interface", c.name, w, n)
				}
				if lo < 0 || hi > c.cfg.Ports || queue < 0 || queue >= c.cfg.QueuesPerPort {
					t.Fatalf("%s: worker %d of node %d bound to queue %d of ports %d…%d, outside the engine",
						c.name, w, n, queue, lo, hi-1)
				}
				for port := lo; port < hi; port++ {
					owners[port*c.cfg.QueuesPerPort+queue]++
				}
			}
		}
		for i, n := range owners {
			if n != 1 {
				t.Errorf("%s: queue %d of port %d has %d owners, want 1",
					c.name, i%c.cfg.QueuesPerPort, i/c.cfg.QueuesPerPort, n)
			}
		}
	}
}
