package experiments

import (
	"bytes"
	"testing"
)

// TestFabricByteIdenticalAcrossPartitionWorkers is the -p analogue of
// the -j8==-j1 harness gate: the fabric experiment's rendered output
// (table and metrics alike) must not depend on how many host goroutines
// advance the world's partitions. CI runs the same comparison end to
// end through psbench -p (see scripts/check.sh).
func TestFabricByteIdenticalAcrossPartitionWorkers(t *testing.T) {
	defer SetPartitionWorkers(1)
	outputs := make(map[int]string)
	for _, p := range []int{1, 2, 8} {
		SetPartitionWorkers(p)
		var metrics bytes.Buffer
		SetMetricsWriter(&metrics)
		out := render(runSolo(fabricScaling))
		SetMetricsWriter(nil)
		outputs[p] = out + metrics.String()
	}
	for _, p := range []int{2, 8} {
		if outputs[p] != outputs[1] {
			t.Errorf("-p %d output differs from -p 1:\n%s\nvs\n%s",
				p, outputs[p], outputs[1])
		}
	}
}

// TestLeafSpineByteIdenticalAcrossPartitionWorkers extends the -p gate
// to the leaf–spine experiment: 144-partition worlds with Zipf flows
// and fault injection must render identically at any worker count.
func TestLeafSpineByteIdenticalAcrossPartitionWorkers(t *testing.T) {
	defer SetPartitionWorkers(1)
	outputs := make(map[int]string)
	for _, p := range []int{1, 2, 8} {
		SetPartitionWorkers(p)
		var metrics bytes.Buffer
		SetMetricsWriter(&metrics)
		out := render(runSolo(leafSpineScaling))
		SetMetricsWriter(nil)
		outputs[p] = out + metrics.String()
	}
	for _, p := range []int{2, 8} {
		if outputs[p] != outputs[1] {
			t.Errorf("-p %d output differs from -p 1:\n%s\nvs\n%s",
				p, outputs[p], outputs[1])
		}
	}
}

// TestSetPartitionWorkersClamps pins the contract psbench relies on:
// non-positive values mean serial.
func TestSetPartitionWorkersClamps(t *testing.T) {
	defer SetPartitionWorkers(1)
	SetPartitionWorkers(-3)
	if partitionWorkers != 1 {
		t.Errorf("partitionWorkers = %d after SetPartitionWorkers(-3)", partitionWorkers)
	}
	SetPartitionWorkers(8)
	if partitionWorkers != 8 {
		t.Errorf("partitionWorkers = %d after SetPartitionWorkers(8)", partitionWorkers)
	}
}
