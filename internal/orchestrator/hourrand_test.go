package orchestrator

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestHourOrderMatchesMathRand holds the lazily seeded source to math/rand
// itself, the reference: for every seed — the hour seeds of several
// campaigns, and seeds that exercise Seed's reduction (multiples of
// 2³¹−1, negatives, the extremes) — and every length, including past the
// tap (273) and past the whole state (607), one reused generator's
// permutation equals a fresh rand.New(rand.NewSource(seed)).Perm(n), and
// its raw outputs equal the reference source's.
func TestHourOrderMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, int32max, -int32max, 2 * int32max, -3 * int32max, 7*int32max + 1,
		int32max - 1, 89482311, -89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for s := int64(0); s < 12; s++ {
		for hour := 0; hour < 24; hour += 5 {
			seeds = append(seeds, hourSeed(s, hour), hourSeed(-s*977, hour))
		}
	}
	// Long and short lengths alternate, so a short permutation follows a
	// call that touched most of the state.
	lengths := []int{1, 700, 2, 274, 54, 2000, 17, 608, 184, 273, 607, 3, 1300, 50}
	rng := rand.New(newHourSource())
	order := make([]int, slices.Max(lengths))
	for _, seed := range seeds {
		for _, n := range lengths {
			rng.Seed(seed)
			got := order[:n]
			for i := range got {
				j := rng.Intn(i + 1)
				got[i] = got[j]
				got[j] = i
			}
			if want := rand.New(rand.NewSource(seed)).Perm(n); !slices.Equal(got, want) {
				t.Fatalf("seed %d, n %d: permutation differs from math/rand's", seed, n)
			}
		}
		src, ref := newHourSource(), rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for k := range 3 * rngLen {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: output %d = %#x, want %#x", seed, k, got, want)
			}
		}
	}
	for hour := range 48 {
		hourOrder(rng, 23, hour, order[:184])
		if want := rand.New(rand.NewSource(hourSeed(23, hour))).Perm(184); !slices.Equal(order[:184], want) {
			t.Fatalf("hourOrder(23, %d) differs from math/rand's Perm", hour)
		}
	}
}
