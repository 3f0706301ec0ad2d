package experiments

import "testing"

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
