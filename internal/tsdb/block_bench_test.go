package tsdb

import (
	"math/rand"
	"testing"
	"time"
)

// benchBlockPoints synthesises one seal-threshold's worth of campaign-shaped
// points: hourly timestamps and the three speedtest fields, with the loss
// column mostly the simulator's clean-path constant — the data profile the
// compression numbers are honest against.
func benchBlockPoints(n int) []Point {
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	pts := make([]Point, n)
	for i := range pts {
		loss := 3e-7
		if rng.Intn(20) == 0 {
			loss = rng.Float64() * 0.05
		}
		pts[i] = Point{
			Time: base.Add(time.Duration(i) * time.Hour),
			Fields: map[string]float64{
				"mbps":   250 + 60*rng.Float64(),
				"rtt_ms": 20 + 10*rng.Float64(),
				"loss":   loss,
			},
		}
	}
	return pts
}

// BenchmarkBlockEncode seals one default-threshold tail and reports the
// encoded footprint per sample (a sample is one point: timestamp + three
// fields, 32 B in the columnar tail, 88 B as an analysis.Measurement).
func BenchmarkBlockEncode(b *testing.B) {
	var sr series
	for _, p := range benchBlockPoints(DefaultSealThreshold) {
		sr.insertFields(p.Time.UnixNano(), p.Fields, 0)
	}
	b.ResetTimer()
	b.ReportAllocs()
	var blk *block
	for i := 0; i < b.N; i++ {
		blk = encodeColumns(&sr.tail)
	}
	b.ReportMetric(float64(len(blk.data))/float64(blk.n), "bytes/sample")
}

// BenchmarkBlockDecode is the read side: one sealed block decoded back into
// caller-owned, reused columns — what reopening a series and serialising a
// store do. Materialising Point values with their Fields maps is Query's
// own cost on top, one map per point returned.
func BenchmarkBlockDecode(b *testing.B) {
	blk := encodeBlock(benchBlockPoints(DefaultSealThreshold))
	var dst columns
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.reset()
		if err := blk.decodeInto(&dst); err != nil {
			b.Fatal(err)
		}
		if dst.len() != blk.n {
			b.Fatalf("decoded %d points, want %d", dst.len(), blk.n)
		}
	}
}
