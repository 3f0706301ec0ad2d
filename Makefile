# Development entry points. `make check` is the expanded tier-1
# verification; CI (.github/workflows/ci.yml) runs exactly this target.

.PHONY: check build test lint race gates bench profile trace-demo golden

check:
	./scripts/check.sh

# golden rewrites the byte-identity gate's checked-in outputs:
# internal/experiments/testdata/golden/<id>.txt with
# `psbench -j 1 -metrics <id>` for every Registry id (TestGoldenOutputs,
# part of `go test ./...`, compares them) and the pshaderd replay's
# stdout and trace digest under cmd/pshader/testdata (`make check`
# compares them). Run it only when a change moves results on purpose,
# and review the diff.
golden:
	./scripts/golden.sh

# profile runs the key benchmarks (Fig5Batch, RouterIPv4Full64B,
# RouterIPv4GPU, RouterIPsec1514B, FabricWorkers p1/p8, FabricLS64,
# LeafSpineScale/l128) with CPU+alloc profiling and writes pprof files
# plus top-25 summaries under profiles/. Pass BENCHTIME for longer runs.
profile:
	./scripts/profile.sh $(BENCHTIME)

# bench runs every workload of the repository's benchmark (bench/,
# declared in BENCHMARK.json). For one workload or a traced run call
# bench/run.sh directly; see bench/README.md.
bench:
	bash bench/run.sh

build:
	go build ./...

test:
	go test ./...

lint:
	go vet ./...
	go run ./cmd/pslint ./...

# gates applies named mutations to a copy of the tree (a counter shared
# by every fabric node, one violation per pslint analyzer, a slow
# host-to-device copy, a Buf kept after an app drop, a blocking call on
# a worker task in a ctrl callback, a global math/rand draw, a TX DMA completion off by
# one step, an event heap without its seq tie-break (in before and in
# the child pick), VLB spread over
# n-1 intermediates in the analytic model, an uncounted fabric node
# drop, a server chain that stops counting its services, a worker that
# reads the chunk cap at each fetch instead of once per round, a link-up
# that leaves the RX queues down, an AES-CTR counter starting at 2, an
# Internet checksum that drops its carry between 64-bit words, a server
# that counts service when it is booked, a second core.New( caller, a
# link that flushes a posted message before its send window, windows
# off the lookahead grid, a leaf that skips its live-slot scan after a
# link went down, an inbox peak that counts a batch whose budget starts
# at the arrival as waiting, a GPU launch latency booked off the exec
# engine, the IOH's coupling one ulp low, a master that scatters its
# chunks in reverse order, a SHA-1 lane reading another's message, a
# goroutine process in table1, model.Cycles' product unwrapped from its
# float64(…), churn writing the shared BGP fixture, a GPU hold-out that
# doubles past its cap, a FetchNow call in a §4 driver) and
# fails unless the gate meant for each (the cluster race test, pslint,
# the paper points, the packet ledger, the engine's own panic, the
# route tests, the TX oracle and the golden files, FuzzEventStore and
# the golden schedule digests, the fabric's model check and the golden
# files, the fabric ledger, the server span test and the golden util
# lines, the pshaderd replay, FuzzCTR, FuzzChecksum, the golden run's
# util and share checks and FuzzServerBusy, the one-path gates, the
# fabric's goroutine oracle, the golden files, the oracle twice more,
# the full paper points, the full golden files twice, FuzzHMACSHA1 and
# the full golden files' tx.digest, the one-path gates, the
# fused-multiply-add gate, the full golden files, the backoff test, the
# one-path gates) fails on it.
# `make check` runs it too.
gates:
	./scripts/gates.sh

race:
	go test -race ./internal/sim ./internal/core ./internal/ctrl ./internal/cluster ./internal/pktio ./internal/obs ./internal/faults
	go test -race -short ./internal/experiments

# trace-demo produces a sample Perfetto trace plus a metrics dump from
# the Figure 11a operating point (IPv4 CPU+GPU, 64B packets, full BGP
# table at 10 Gbps/port). Open trace-demo.json at https://ui.perfetto.dev.
trace-demo:
	go run ./cmd/pshader -app ipv4 -mode gpu -size 64 -offered 10 \
		-duration 5ms -warmup 5ms -prefixes 282797 \
		-trace trace-demo.json -metrics
