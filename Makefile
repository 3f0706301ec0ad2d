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
# host-to-device copy, a Buf kept after an app drop, a blocking call in
# a ctrl callback, a global math/rand draw, a TX DMA completion off by
# one step, an event heap without its seq tie-break, VLB spread over
# n-1 intermediates in the analytic model, an uncounted fabric node
# drop) and fails unless the gate meant for each (the cluster race
# test, pslint, the paper points, the packet ledger, the engine's own
# panic, the route tests, the TX oracle and the golden files,
# FuzzEventStore and the golden schedule digests, the fabric's model
# check and the golden files, the fabric ledger) fails on it.
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
