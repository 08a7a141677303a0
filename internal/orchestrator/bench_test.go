package orchestrator

import (
	"testing"

	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// BenchmarkStoreSinkRecord is the index's ingest path as a campaign drives
// it: one StoreSink, records arriving round-robin over 64 series (32 servers
// x 2 directions) hour by hour, sealing at the store's default threshold.
func BenchmarkStoreSinkRecord(b *testing.B) {
	recs := campaignRecords(32, 24*30)
	sink := &StoreSink{Store: tsdb.NewStore()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(recs) == 0 {
			// A fresh store per pass keeps every insert in time order, as a
			// campaign's are.
			sink = &StoreSink{Store: tsdb.NewStore()}
		}
		sink.Record(recs[i%len(recs)])
	}
}
