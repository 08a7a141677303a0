package tsdb

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// benchTagSets mirrors a campaign's series population: one series per
// (server, tier, dir), inserted round-robin the way StoreSink sees records.
func benchTagSets(n int) []Tags {
	out := make([]Tags, 0, n*4)
	for i := 0; i < n; i++ {
		for _, tier := range []string{"premium", "standard"} {
			for _, dir := range []string{"download", "upload"} {
				out = append(out, Tags{
					"server": fmt.Sprintf("%d", i),
					"region": "us-east1",
					"tier":   tier,
					"dir":    dir,
				})
			}
		}
	}
	return out
}

// BenchmarkInsert measures concurrent tagged inserts across many series:
// the orchestrator's ingest shape at parallelism >= 4.
func BenchmarkInsert(b *testing.B) {
	s := NewStore()
	tagSets := benchTagSets(16)
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	var next atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			tags := tagSets[int(i)%len(tagSets)]
			err := s.Insert("speedtest", tags, base.Add(time.Duration(i)*time.Second),
				map[string]float64{"mbps": float64(i), "rtt_ms": 12, "loss": 0})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
