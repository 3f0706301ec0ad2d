# pshaderd demo script: a live management session on the virtual clock.
# Offsets count from simulated time zero (warmup included). Run with:
#
#   pshader -app ipv4 -fib dynamic -ctrl scripts/pshaderd-demo.psc \
#           -warmup 2ms -duration 6ms
#
# Replaying the same script with the same seed is byte-identical.

@2500us stats                          # baseline mid-traffic snapshot

# A batch of route updates: consecutive route lines at one offset are
# applied as a single batch (one rebuild in -fib rebuild mode).
@3ms    route add 10.1.0.0/16 via 3
@3ms    route add 10.2.0.0/16 via 4
@3ms    route replace 10.3.0.0/24 via 5
@3ms    route del 10.2.0.0/16

# Live batching retune: tiny chunks + no gather, then restore.
@3500us set chunkcap 32
@3500us set gathermax 1
@4500us set chunkcap 256
@4500us set gathermax 8
@4500us set opportunistic on

# Port maintenance: drop one port's carrier, restore it later.
@5ms    port 2 down
@6ms    port 2 up

# Hardware faults are commands like any other: node 0's GPU stalls (the
# master watchdog degrades its workers to the CPU path until the
# repair), node 1's GPU link retrains at half speed, and port 5's RX
# ring discards arrivals for 200us.
@5200us gpu 0 fail
@5200us pcie 1 retrain 2
@5500us rxburst 5 200us
@6200us gpu 0 repair
@6200us pcie 1 restore

@6500us stats                          # post-maintenance snapshot
@7ms    metrics                        # full registry dump (needs -metrics)
