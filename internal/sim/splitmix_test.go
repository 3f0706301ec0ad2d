package sim

import "testing"

// TestSplitMix64MatchesTheFourOldCopies pins SplitMix64 to the outputs
// of the four hand-written copies it replaced (faults and pktgen: the
// pure mixer; cluster: the stateful stream; experiments/fig11: the mixer
// over x^seed). The constants were printed by the old code; the seeded
// generators' streams, and so every experiment's bytes, rest on them.
func TestSplitMix64MatchesTheFourOldCopies(t *testing.T) {
	// faults.splitmix64 / pktgen.splitmix64.
	for _, c := range []struct{ x, want uint64 }{
		{0x0, 0xe220a8397b1dcdaf},
		{0x1, 0x910a2dec89025cc1},
		{0x2a, 0xbdd732262feb6e95},
		{SplitMixGamma, 0x6e789e6aa1b965f4},
		{0x8000000000000000, 0x481ec0a212a9f3db},
		{0xffffffffffffffff, 0xe4d971771b652c20},
	} {
		if got := SplitMix64(c.x); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.x, got, c.want)
		}
	}
	// cluster.splitmix64(&state) from state 42: advance, then mix.
	state := uint64(42)
	for i, want := range []uint64{
		0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52, 0x581ce1ff0e4ae394,
	} {
		got := SplitMix64(state)
		state += SplitMixGamma
		if got != want {
			t.Errorf("stream draw %d = %#x, want %#x", i, got, want)
		}
	}
	// experiments.splitmix64ExpSeed(seed, x), at fig11's two call shapes.
	for _, c := range []struct{ seed, x, want uint64 }{
		{2026, 3<<32 | 17, 0xf5f2c079de36d5c9},
		{2026 ^ 0xabcd, 5<<56 | 2<<48 | 99, 0x1ef2cedc559defd0},
	} {
		if got := SplitMix64(c.seed ^ c.x); got != c.want {
			t.Errorf("SplitMix64(%#x ^ %#x) = %#x, want %#x", c.seed, c.x, got, c.want)
		}
	}
}
