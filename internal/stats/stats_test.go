package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentileBasic(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2.5, 1e-9) {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty sample: got %v, want ErrEmpty", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("p=-1: want error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("p=101: want error")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestCDF(t *testing.T) {
	pts, err := CDF([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// values 1,2,2,3 → points (1,0.25) (2,0.75) (3,1.0)
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(pts) != len(want) {
		t.Fatalf("CDF len = %d, want %d (%v)", len(pts), len(want), pts)
	}
	for i := range want {
		if !almostEqual(pts[i].X, want[i].X, 1e-9) || !almostEqual(pts[i].P, want[i].P, 1e-9) {
			t.Errorf("CDF[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
}

func TestElbowOnKneeCurve(t *testing.T) {
	// y = 1/x style curve has a clear knee.
	xs := make([]float64, 0, 50)
	ys := make([]float64, 0, 50)
	for i := 1; i <= 50; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 50/x)
	}
	idx, err := Elbow(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 3 || idx > 15 {
		t.Errorf("Elbow index = %d, want a small-x knee", idx)
	}
}

func TestElbowErrors(t *testing.T) {
	if _, err := Elbow([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := Elbow([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("too few points: want error")
	}
	if _, err := Elbow([]float64{1, 1, 1}, []float64{2, 2, 2}); err == nil {
		t.Error("coincident endpoints: want error")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		min, max := slices.Min(xs), slices.Max(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(xs, p)
			if err != nil {
				return false
			}
			if v < prev || v < min-1e-9 || v > max+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CDF is monotone non-decreasing and ends at 1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pts, err := CDF(xs)
		if err != nil {
			return false
		}
		if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
			return false
		}
		prev := 0.0
		for _, p := range pts {
			if p.P < prev {
				return false
			}
			prev = p.P
		}
		return almostEqual(pts[len(pts)-1].P, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentileInPlaceMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ps := []float64{0, 5, 25, 50, 75, 95, 100}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			if trial%3 == 0 {
				// Quantized values force ties through the selection paths.
				xs[i] = float64(rng.Intn(8))
			} else {
				xs[i] = rng.NormFloat64() * 100
			}
		}
		p := ps[trial%len(ps)]
		if trial%7 == 0 {
			p = rng.Float64() * 100
		}
		want, err := Percentile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		work := append([]float64(nil), xs...)
		got, err := PercentileInPlace(work, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d (n=%d, p=%v): in-place %v != sorted %v", trial, n, p, got, want)
		}
		// Selection only permutes: same multiset afterwards.
		sort.Float64s(work)
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		for i := range ref {
			if work[i] != ref[i] {
				t.Fatalf("trial %d: element multiset changed at %d", trial, i)
			}
		}
	}
}

func TestPercentileInPlaceErrors(t *testing.T) {
	if _, err := PercentileInPlace(nil, 50); err != ErrEmpty {
		t.Errorf("empty: err = %v", err)
	}
	if _, err := PercentileInPlace([]float64{1, 2}, 101); err == nil {
		t.Error("p=101: no error")
	}
	if _, err := PercentileInPlace([]float64{1, 2}, -1); err == nil {
		t.Error("p=-1: no error")
	}
}
