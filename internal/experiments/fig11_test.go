package experiments

import (
	"bytes"
	"testing"

	"packetshader/internal/packet"
)

// TestOFSourceFillBatchMatchesFill: the OpenFlow flow-space source's
// batch entry point leaves every Buf's frame bytes as per-packet Fill
// does, from a non-zero starting seq. The pktgen sources carry the same
// test next to their code.
func TestOFSourceFillBatchMatchesFill(t *testing.T) {
	const seq0 = 1<<33 + 12345
	for _, seed := range []uint64{1, 2, 3} {
		src := &ofSource{size: 64, flowsPerPort: 1024, seed: seed, missEvery: 10}
		for _, n := range []int{1, 63, 64, 65, 256} {
			pool := packet.NewBufPool(2048)
			batch := make([]*packet.Buf, n)
			for i := range batch {
				batch[i] = pool.Get(64)
			}
			src.FillBatch(batch, 5, 1, seq0)
			for i, b := range batch {
				one := pool.Get(64)
				src.Fill(one, 5, 1, seq0+uint64(i))
				if !bytes.Equal(one.Data, b.Data) {
					t.Fatalf("seed %d n %d: packet %d differs between Fill and FillBatch", seed, n, i)
				}
			}
		}
	}
}
