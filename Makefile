# Development entry points. `make check` is the expanded tier-1
# verification; CI (.github/workflows/ci.yml) runs exactly this target.

.PHONY: check build test lint race bench profile trace-demo

check:
	./scripts/check.sh

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
