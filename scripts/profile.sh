#!/bin/sh
# profile.sh is the profiling harness behind `make profile`: it runs the
# key benchmarks — Fig5Batch (packet-I/O engine hot path),
# RouterIPv4Full64B (the full CPU+GPU router framework in bench/'s
# ipv4-64B configuration: a 282,797-prefix table that does not fit the
# cache), RouterIPv4GPU (the same with 20,000 prefixes, kept so old
# profiles stay comparable), RouterIPsec1514B (bench/'s ipsec-1514B
# configuration: the gateway's real AES-CTR and HMAC-SHA1 over 1514 B
# frames), FabricWorkers at p1 and p8 (conservative-parallel cluster
# fabric, serial and partitioned advance, a 16-node full mesh), FabricLS64 (bench/'s fabric-ls64
# configuration: the 64×8 leaf–spine whose host time is all engine and
# forwarder tasks) and LeafSpineScale/l128 (144 partitions, 8,192
# links: the most Envs and links the repository runs, so the first
# place an event store or a window barrier that stops fitting would
# show) — with CPU and allocation profiling enabled, and drops
# pprof files plus a ready-to-read top-25 summary under profiles/.
#
# This is how the PR 9 per-packet optimizations were found (frame
# templates, LUT Toeplitz, fast decode): look at profiles/*.top.txt,
# attack the biggest flat contributor that is per-packet work, and
# re-run.
#
# Usage: scripts/profile.sh [benchtime]   (default 5x)
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-5x}"
OUTDIR="profiles"
mkdir -p "$OUTDIR"

profile_one() { # profile_one <label> <bench regex>
	label="$1"
	regex="$2"
	echo "== $label ($regex, benchtime=$BENCHTIME)"
	go test -run '^$' -bench "$regex" -benchtime "$BENCHTIME" \
		-cpuprofile "$OUTDIR/$label.cpu.pprof" \
		-memprofile "$OUTDIR/$label.mem.pprof" \
		-o "$OUTDIR/$label.test" .
	go tool pprof -top -nodecount=25 "$OUTDIR/$label.test" \
		"$OUTDIR/$label.cpu.pprof" >"$OUTDIR/$label.top.txt" 2>&1
	go tool pprof -top -nodecount=25 -sample_index=alloc_space \
		"$OUTDIR/$label.test" "$OUTDIR/$label.mem.pprof" \
		>"$OUTDIR/$label.alloc.txt" 2>&1
	rm -f "$OUTDIR/$label.test"
}

profile_one fig5batch 'BenchmarkFig5Batch$'
profile_one router-ipv4-full64b 'BenchmarkRouterIPv4Full64B$'
profile_one router-ipv4-gpu 'BenchmarkRouterIPv4GPU$'
profile_one router-ipsec-1514b 'BenchmarkRouterIPsec1514B$'
profile_one fabric 'BenchmarkFabricWorkers/p1$'
profile_one fabric-p8 'BenchmarkFabricWorkers/p8$'
profile_one fabric-ls64 'BenchmarkFabricLS64$'
profile_one leafspine-l128 'BenchmarkLeafSpineScale/l128$'

echo "== profiles written to $OUTDIR/"
ls -l "$OUTDIR"
echo "   (inspect interactively: go tool pprof $OUTDIR/<name>.cpu.pprof)"
