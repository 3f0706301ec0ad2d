package pktio

import (
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

// Workload is what a Worker does with the packets it moves (§4.6).
type Workload int

// The §4.6 workloads.
const (
	RxOnly          Workload = iota // fetch and drop
	TxOnly                          // synthesize and send
	Forward                         // fetch and send out of a port of the worker's node
	ForwardCrossing                 // fetch and send out of a port of the next node
)

// The points at which a Worker's step resumes.
const (
	wRound   = iota // a round starts, if the run has not ended
	wPoll           // poll the next interface
	wPolled         // its RX-DMA wait is over
	wFetched        // its RX cycles are charged
	wPost           // post the chunk to the TX ring, or wait for room
	wWoken          // the idle wait for packets is over
)

// Worker returns the step of the engine's one fetch → send task, a
// worker of node with no application processing (§4.6): until until it
// polls ifaces round-robin, fetching at most batch packets at a time,
// and sends each chunk out of a port of the output node (drops it when
// RxOnly; synthesizes it from pktSize-byte buffers when TxOnly), and
// after a round that fetched nothing it idles on its first interface
// until that has packets. It arms nothing once until has passed or that
// interface has no offered load.
func (e *Engine) Worker(wl Workload, node int, ifaces []*Iface, batch, pktSize int, until sim.Time) func(*sim.Proc) {
	perNode := e.Cfg.Ports / e.Cfg.Nodes
	outBase := node * perNode
	if wl == ForwardCrossing {
		outBase = ((node + 1) % e.Cfg.Nodes) * perNode
	}
	// What the step keeps across its waits: where it resumes, the
	// round's polls, the interface polled, the chunk in hand (Post
	// consumes it at once, so one slice serves every batch) and its
	// port, and when the TX-ring wait in progress began.
	at, rr, polled, port, progress := wRound, 0, 0, 0, false
	var f *Iface
	chunk := make([]*packet.Buf, batch)
	var since sim.Time
	// send charges the TX cycles of the chunk for to, then posts it.
	send := func(p *sim.Proc, to int) {
		cost := e.SendCost(node, to, len(chunk))
		at, port, since = wPost, to, p.Now()+sim.Time(cost)
		p.WakeAfter(cost)
	}
	return func(p *sim.Proc) {
		for {
			switch at {
			case wRound:
				if p.Now() >= until {
					return
				}
				at, polled, progress = wPoll, 0, false
				if wl != TxOnly {
					continue
				}
				// Synthesize and transmit; pace against ring backlog so
				// the simulation does not spin generating drops.
				tx := e.Ports[outBase+rr%perNode]
				rr++
				if at = wRound; tx.Tx.Pending() > model.TxRingSize/2 {
					p.WakeAfter(20 * sim.Microsecond)
					return
				}
				for i := range chunk {
					chunk[i] = e.Pool.Get(pktSize)
				}
				send(p, tx.ID)
				return
			case wPoll:
				if polled == len(ifaces) {
					at = wRound
					if progress {
						continue
					}
					if d, wait, ok := ifaces[0].Queue.PacketWait(); wait || !ok {
						if wait {
							at = wWoken
							p.WakeAfter(d)
						}
						return
					}
					continue
				}
				f, rr, polled = ifaces[rr%len(ifaces)], rr+1, polled+1
				at = wPolled
				if edge, wait := f.FetchWait(); wait {
					p.WakeAt(edge)
					return
				}
			case wPolled:
				got, cost := f.FetchNow(batch, chunk[:0])
				if at = wPoll; got != nil {
					at, chunk, progress = wFetched, got, true
					p.WakeAfter(cost)
					return
				}
			case wFetched:
				if wl != RxOnly {
					send(p, outBase+rr%perNode)
					return
				}
				for _, b := range chunk {
					b.Release()
				}
				at = wPoll
			case wPost:
				if next, wait := e.Post(port, chunk, since); wait {
					p.WakeAt(next)
					return
				}
				if at = wPoll; wl == TxOnly {
					at = wRound
				}
			case wWoken:
				ifaces[0].Queue.Update() // as WaitForPackets does
				at = wRound
			}
		}
	}
}
