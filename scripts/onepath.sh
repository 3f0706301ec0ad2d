#!/bin/sh
# onepath.sh holds the repository's one-path rules: a router is stood up
# in one place, the facade's New (core.New has one non-test caller,
# packetshader.go); the paper's figures measure through Instance.Run and
# tap through Instance.TapTx; the §4 figures share one worker task, and
# nothing outside pktio, core and hw/nic fetches packets; every process
# of the program is a sim task; and there is one frame decoder. It reads
# the files with plain grep, so it runs in any copy of the tree, a git
# checkout or not. bench/ is its own module with its own rules and is
# not searched.
#
#	scripts/onepath.sh
#
# `make check` runs it, and scripts/gates.sh shows it failing on a second
# core.New( call, on a goroutine process in table1 and on a fetch in a §4
# driver.
set -eu

cd "$(dirname "$0")/.."

# The module's packages: the root's files, cmd/ and internal/.
src="*.go cmd internal"

# A router is stood up and measured in one place, the facade's New and
# Run: the paper's figures may not assemble their own (tests may:
# hand-built routers are their differential).
onepath="$(grep -rn --include='*.go' --exclude='*_test.go' 'core\.New(' $src | cut -d: -f1 || true)"
if [ "$onepath" != packetshader.go ]; then
	echo "core.New( must have exactly one caller, in packetshader.go; found in:"
	echo "$onepath"
	exit 1
fi
if grep -rn --exclude='*_test.go' 'ResetMeasurement\|OnComplete' internal/experiments; then
	echo "experiments measure through Instance.Run and tap through Instance.TapTx"
	exit 1
fi
# The §4 figures likewise share one harness and one worker task, the
# engine's Worker: outside the engine, the NIC and the router's own
# worker, nothing fetches packets.
if [ "$(grep -c 'env\.Task(' internal/experiments/pktio.go)" != 1 ]; then
	echo "internal/experiments/pktio.go starts workers in one place, ioHarness (one env.Task running pktio's Worker)"
	exit 1
fi
fetches="$(grep -rn --include='*.go' --exclude='*_test.go' 'FetchNow(' $src | grep -v '^internal/pktio/\|^internal/core/\|^internal/hw/nic/' || true)"
if [ -n "$fetches" ]; then
	echo "only pktio, core and hw/nic fetch packets; a §4 driver runs pktio's Worker:"
	echo "$fetches"
	exit 1
fi
# A process of the program is a sim task, never a goroutine process:
# Env.Go is the engine's, kept for bench/ and tests.
goprocs="$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=testdata '\.Go(' $src | grep -v '^internal/sim/' || true)"
if [ -n "$goprocs" ]; then
	echo "a process outside internal/sim is a task (Env.Task), not a goroutine process (.Go):"
	echo "$goprocs"
	exit 1
fi
# There is one frame decoder, packet.Decoder.Decode. DecodeFast is its
# alias for the frozen bench/ module and nothing else may name it.
decodefast="$(grep -rn --include='*.go' 'DecodeFast' $src | grep -v '^internal/packet/decode\.go:' || true)"
if [ -n "$decodefast" ]; then
	echo "DecodeFast is bench/'s name for packet.Decoder.Decode; call Decode:"
	echo "$decodefast"
	exit 1
fi
