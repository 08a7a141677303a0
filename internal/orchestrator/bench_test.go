package orchestrator

import (
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
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

// BenchmarkStoreSinkIndex is the index as the engine builds it: one
// campaign's finished log — 54 servers x 2 directions over 12 days, the
// report_all benchmark's series length — indexed in bulk into a fresh store
// per op. ns/record is the figure to hold against StoreSinkRecord's ns/op.
func BenchmarkStoreSinkIndex(b *testing.B) {
	log := analysis.NewRecordLog()
	for _, m := range campaignRecords(54, 24*12) {
		log.Append(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(&StoreSink{Store: tsdb.NewStore()}).Index(log)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*log.Len()), "ns/record")
}

// BenchmarkCampaignRound is one hour of a simulated campaign — plan, execute
// and commit into the campaign's record log — at 32 servers over both tiers (128
// tests on 8 VMs), hours following one another through days as a campaign's
// do. ns/test is the figure to hold against netsim's BenchmarkMeasureFlow:
// the difference is the round loop's own cost. Allocations are the day
// records, one per flow every 24th round (128/24 ≈ 5 allocs/op), and the
// log's block sealed every 32nd (4096 records, ≈ 3 KB/op);
// TestSteadyRoundAllocs pins the rounds in between at zero.
func BenchmarkCampaignRound(b *testing.B) {
	f := setup(b)
	c := newTestCampaign(b, f, Config{
		Region: "us-east1", Servers: f.topo.Servers()[:32], Seed: 5,
		Tiers: []bgp.Tier{bgp.Premium, bgp.Standard}, Days: b.N/24 + 1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.plan()
		if err := c.execute(); err != nil {
			b.Fatal(err)
		}
		if err := c.commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.Report.Tests), "ns/test")
}
