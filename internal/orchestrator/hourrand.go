package orchestrator

import "math/rand"

// math/rand's source (rngSource) is an additive lagged Fibonacci generator
// over 607 words. Seed fills every word from 1,841 dependent Lehmer steps,
// x[k+1] = 48271·x[k] mod (2³¹−1), starting from the reduced seed:
//
//	vec[i] = x[3i+21]<<40 ^ x[3i+22]<<20 ^ x[3i+23] ^ cooked[i]
//
// and each output adds the word at the tap into the word at the feed. A
// campaign hour's permutation reads about two words per server, so
// hourSource computes a word only when an output first reads it:
// x[k] = 48271ᵏ·x[0] mod (2³¹−1), one multiplication by a precomputed power.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

var (
	// lehmerPow[k] is 48271ᵏ mod (2³¹−1), for every step Seed takes.
	lehmerPow [3*rngLen + 21]uint64
	// rngCooked is math/rand's unexported 607-word table that Seed mixes
	// into every word, recovered from rand.NewSource(1) at init.
	rngCooked [rngLen]int64
)

func init() {
	lehmerPow[0] = 1
	for k := 1; k < len(lehmerPow); k++ {
		lehmerPow[k] = lehmerPow[k-1] * 48271 % int32max
	}
	recoverCooked()
}

// recoverCooked solves rand.NewSource(1)'s first 607 outputs for its seeded
// state, then strips seed 1's Lehmer part from each word. Output k adds the
// word at the tap, 606−k, into the word at the feed, (333−k) mod 607. From
// output 273 on, the tap holds what output k−273 wrote, so each such
// output leaves its feed's initial word the only unknown; those words are
// the taps of outputs 0–272, whose feeds are then the only unknowns left.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	feed := func(k int) int { return (rngLen - rngTap - 1 - k + rngLen) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		vec[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feed(k)] = out[k] - vec[rngLen-1-k]
	}
	for i := range vec {
		rngCooked[i] = int64(vec[i]) ^ seededWord(1, i)
	}
}

// seededWord is word i of the state Seed gives the reduced seed x0, before
// math/rand mixes in cooked[i].
func seededWord(x0 int64, i int) int64 {
	x := func(k int) int64 { return int64(lehmerPow[k] * uint64(x0) % int32max) }
	return x(3*i+21)<<40 ^ x(3*i+22)<<20 ^ x(3*i+23)
}

// hourSource is rand.NewSource's generator, seeded lazily: Seed reduces the
// seed and forgets the words the last seed's outputs touched, and a word is
// computed when an output first reads it. Its outputs are math/rand's, bit
// for bit, for every seed. It is not safe for concurrent use.
type hourSource struct {
	x0        int64 // the reduced seed, x[0]
	tap, feed int
	vec       [rngLen]int64
	set       [rngLen]bool // vec[i] holds this seed's word i
	touched   []int16      // the words set since Seed
}

func newHourSource() *hourSource { return &hourSource{touched: make([]int16, 0, rngLen)} }

// Seed reduces seed as math/rand's Seed does: modulo 2³¹−1, negative
// remainders lifted, and 0 replaced by 89482311.
func (s *hourSource) Seed(seed int64) {
	for _, i := range s.touched {
		s.set[i] = false
	}
	s.touched = s.touched[:0]
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = seed
}

// word returns word i, computing it on its first read since Seed.
func (s *hourSource) word(i int) int64 {
	if !s.set[i] {
		s.vec[i] = seededWord(s.x0, i) ^ rngCooked[i]
		s.set[i] = true
		s.touched = append(s.touched, int16(i))
	}
	return s.vec[i]
}

// Uint64 is math/rand's rngSource.Uint64.
func (s *hourSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is math/rand's rngSource.Int63.
func (s *hourSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
