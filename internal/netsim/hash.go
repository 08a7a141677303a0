package netsim

// Deterministic hash-based randomness. Every stochastic choice in the
// simulator is a pure function of (seed, key...), so a campaign replayed
// with the same seed produces identical measurements regardless of
// execution order or concurrency.
//
// A draw is an FNV-1a fold of the seed and keys — the prefix state —
// followed by a finaliser. FNV folds strictly left to right, so the state
// after (seed, k1..ki) is itself a pure function of those keys and can be
// remembered: the flow cache's day record (flowcache.go) keeps the prefixes
// folded through (seed, flow, day) and each test folds only the keys that
// change within a day. hashNorm and hash01 are the same fold and the same
// finalisers with nothing remembered, so both routes draw one value
// sequence.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit value into an FNV-1a state byte by byte,
// low byte first. Unrolled: this is the simulator's innermost loop.
func fnvMix(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * fnvPrime
	h = (h ^ ((v >> 8) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 16) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 24) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 32) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 40) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 48) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 56) & 0xff)) * fnvPrime
	return h
}

// fnvFinal applies the splitmix64 finaliser to decorrelate nearby keys.
func fnvFinal(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// fnvFold is the prefix state of a draw: FNV-1a over the seed and keys, not
// yet finalised, so further keys can be folded in with fnvMix.
func fnvFold(seed int64, keys ...uint64) uint64 {
	h := fnvMix(fnvOffset, uint64(seed))
	for _, k := range keys {
		h = fnvMix(h, k)
	}
	return h
}

// uniformFrom finalises a prefix state into a uniform float64 in [0, 1).
func uniformFrom(prefix uint64) float64 {
	return float64(fnvFinal(prefix)>>11) / (1 << 53)
}

// rangeFrom finalises a prefix state into a uniform float64 in [lo, hi).
// lo and hi are float64 parameters on purpose: written as a constant
// expression, 0.85 + (1.1-0.85)*u, Go's exact constant arithmetic would take
// hi-lo as 0.25, not the float64 subtraction hashRange performs, and move
// bits.
func rangeFrom(prefix uint64, lo, hi float64) float64 {
	return lo + (hi-lo)*uniformFrom(prefix)
}

// normFrom finalises a prefix state into an approximately standard normal
// value: an Irwin-Hall sum of four uniforms that share the prefix and
// differ only in a trailing salt, so the prefix is folded once and
// re-salted per draw.
func normFrom(prefix uint64) float64 {
	s := 0.0
	for i := uint64(0); i < 4; i++ {
		s += uniformFrom(fnvMix(prefix, 0x9e3779b97f4a7c15+i))
	}
	// Sum of 4 U(0,1): mean 2, variance 4/12 -> scale to unit variance.
	return (s - 2) / 0.5773502691896258
}

// hash01 maps (seed, keys) to a uniform float64 in [0, 1).
func hash01(seed int64, keys ...uint64) float64 {
	return uniformFrom(fnvFold(seed, keys...))
}

// hashRange maps (seed, keys) to a uniform float64 in [lo, hi).
func hashRange(seed int64, lo, hi float64, keys ...uint64) float64 {
	return rangeFrom(fnvFold(seed, keys...), lo, hi)
}

// hashNorm maps (seed, keys) to an approximately standard normal value.
func hashNorm(seed int64, keys ...uint64) float64 {
	return normFrom(fnvFold(seed, keys...))
}
