package core

import "fmt"

// A Ledger accounts for every packet a router has fetched since it
// started: each was transmitted, dropped for one cause, or is still in
// flight. RX drops never reach a fetch, so they stand beside the
// identity, by cause.
type Ledger struct {
	Fetched      uint64
	Transmitted  uint64
	TxRingDrops  uint64 // the TX descriptor ring was full
	CarrierDrops uint64 // the TX port's carrier was down
	AppDrops     uint64 // the application chose no output port
	// InFlight counts the Bufs the engine's pool has handed out and not
	// got back: packets in chunks, queues and TX batches.
	InFlight uint64

	RxRingDrops  uint64 // arrivals that overflowed an RX ring
	RxBurstDrops uint64 // arrivals discarded inside an injected drop burst
}

// LedgerNames name a Ledger's counts in the order Counts returns them:
// the metrics dump prints each as a ledger.<name> counter, and the
// control script's stats command as name=value on a ledger line.
var LedgerNames = [...]string{"fetched", "transmitted", "tx_ring_drops",
	"carrier_drops", "app_drops", "in_flight", "rx_ring_drops", "rx_burst_drops"}

// Counts returns the ledger's counts in LedgerNames order.
func (l Ledger) Counts() [len(LedgerNames)]uint64 {
	return [...]uint64{l.Fetched, l.Transmitted, l.TxRingDrops,
		l.CarrierDrops, l.AppDrops, l.InFlight, l.RxRingDrops, l.RxBurstDrops}
}

// Ledger reads the counters the engine, ports and workers keep anyway;
// it writes nothing. Call it between Env.Run calls.
func (r *Router) Ledger() Ledger {
	var l Ledger
	for _, p := range r.Engine.Ports {
		for _, q := range p.Rx {
			l.Fetched += q.Stats.Packets
			l.RxBurstDrops += q.BurstDrops
			l.RxRingDrops += q.Stats.Dropped - q.BurstDrops
		}
		l.Transmitted += p.Tx.Stats.Packets
		l.CarrierDrops += p.Tx.CarrierDrops
		l.TxRingDrops += p.Tx.Stats.Dropped - p.Tx.CarrierDrops
	}
	l.AppDrops = r.Stats.Drops
	l.InFlight = uint64(r.Engine.Pool.Allocs - r.Engine.Pool.FreeCount())
	return l
}

// Check returns an error naming every count unless the packets fetched
// equal those transmitted, dropped and in flight.
func (l Ledger) Check() error {
	if l.Fetched == l.Transmitted+l.TxRingDrops+l.CarrierDrops+l.AppDrops+l.InFlight {
		return nil
	}
	return fmt.Errorf("core: packet ledger does not balance: fetched %d, but transmitted %d + tx-ring drops %d + carrier drops %d + app drops %d + in flight %d = %d",
		l.Fetched, l.Transmitted, l.TxRingDrops, l.CarrierDrops, l.AppDrops, l.InFlight,
		l.Transmitted+l.TxRingDrops+l.CarrierDrops+l.AppDrops+l.InFlight)
}
