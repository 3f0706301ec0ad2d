package sim

// SplitMix64 is the repository's one deterministic mixer (Steele, Lea &
// Flood's SplitMix64 finalizer over x plus the golden-ratio increment):
// the seeded generators — packet sources, fault plans, fabric flows —
// derive every pseudo-random draw from it, so item i of a stream is a
// pure function of (seed, i), independent of fetch timing and host.
// A stateful stream is `r := SplitMix64(*s); *s += SplitMixGamma`.
func SplitMix64(x uint64) uint64 {
	x += SplitMixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SplitMixGamma is SplitMix64's state increment, 2⁶⁴/φ.
const SplitMixGamma = 0x9e3779b97f4a7c15
