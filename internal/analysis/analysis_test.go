package analysis

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func mkMeasure(server int, hour int, tier bgp.Tier, dir netsim.Direction, mbps, rtt, loss float64) Measurement {
	return Measurement{
		ServerID: server, Region: "us-east1", Tier: tier, Dir: dir,
		Time: t0.Add(time.Duration(hour) * time.Hour), Mbps: mbps, RTTms: rtt, Loss: loss,
	}
}

func TestGroupSeries(t *testing.T) {
	var ms []Measurement
	for h := 0; h < 48; h++ {
		ms = append(ms, mkMeasure(1, h, bgp.Premium, netsim.Download, 300, 30, 0))
		ms = append(ms, mkMeasure(2, h, bgp.Premium, netsim.Download, 200, 40, 0))
		ms = append(ms, mkMeasure(1, h, bgp.Premium, netsim.Upload, 95, 30, 0))
		ms = append(ms, mkMeasure(1, h, bgp.Standard, netsim.Download, 320, 35, 0))
	}
	series := groupSeries(NewSliceCursor(ms), netsim.Download, bgp.Premium)
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	for _, s := range series {
		if len(s.Samples) != 48 {
			t.Errorf("series %s has %d samples", s.PairID, len(s.Samples))
		}
		for i := 1; i < len(s.Samples); i++ {
			if s.Samples[i].Unix < s.Samples[i-1].Unix {
				t.Error("samples not time-ordered")
			}
		}
	}
}

func TestPerfPoints(t *testing.T) {
	var ms []Measurement
	// Two months of hourly data for one server.
	for d := 0; d < 60; d++ {
		for h := 0; h < 24; h += 6 {
			m := mkMeasure(7, d*24+h, bgp.Premium, netsim.Download, 300+float64(h), 40-float64(h)/10, 0)
			ms = append(ms, m)
		}
	}
	pts := PerfPointsCursor(NewSliceCursor(ms))
	if len(pts) != 3 { // May, June, and the tail day in July
		// 60 days from May 1: May (31), June (29) -> 2 months.
		if len(pts) != 2 {
			t.Fatalf("points = %d, want 2", len(pts))
		}
	}
	for _, p := range pts {
		// p95 of 300..318 is near 318; p5 of 38.2..40 is near 38.2.
		if p.P95Down < 315 || p.P95Down > 318.1 {
			t.Errorf("p95 = %v", p.P95Down)
		}
		if p.P5LatMs < 38 || p.P5LatMs > 39 {
			t.Errorf("p5 latency = %v", p.P5LatMs)
		}
		if p.N == 0 || p.ServerID != 7 {
			t.Errorf("point fields: %+v", p)
		}
	}
	// Uploads are excluded.
	up := []Measurement{mkMeasure(1, 0, bgp.Premium, netsim.Upload, 95, 10, 0)}
	if len(PerfPointsCursor(NewSliceCursor(up))) != 0 {
		t.Error("upload produced perf points")
	}
}

func TestTierDeltas(t *testing.T) {
	var ms []Measurement
	for h := 0; h < 24; h++ {
		ms = append(ms, mkMeasure(1, h, bgp.Premium, netsim.Download, 250, 30, 0))
		ms = append(ms, mkMeasure(1, h, bgp.Standard, netsim.Download, 300, 45, 0))
		ms = append(ms, mkMeasure(1, h, bgp.Premium, netsim.Upload, 90, 30, 0))
		ms = append(ms, mkMeasure(1, h, bgp.Standard, netsim.Upload, 95, 45, 0))
	}
	down := tierDeltasOf(NewSliceCursor(ms), "us-east1", MetricDownload)
	if len(down) != 24 {
		t.Fatalf("download deltas = %d", len(down))
	}
	want := (250.0 - 300.0) / 300.0
	for _, d := range down {
		if math.Abs(d.Delta-want) > 1e-9 {
			t.Errorf("delta = %v, want %v", d.Delta, want)
		}
	}
	up := tierDeltasOf(NewSliceCursor(ms), "us-east1", MetricUpload)
	if len(up) != 24 || math.Abs(up[0].Delta-(90.0-95.0)/95.0) > 1e-9 {
		t.Errorf("upload deltas wrong: %v", up[:1])
	}
	lat := tierDeltasOf(NewSliceCursor(ms), "us-east1", MetricLatency)
	if len(lat) != 24 || math.Abs(lat[0].Delta-(30.0-45.0)/45.0) > 1e-9 {
		t.Errorf("latency deltas wrong: %v", lat[:1])
	}
	// Different region: nothing.
	if len(tierDeltasOf(NewSliceCursor(ms), "europe-west1", MetricDownload)) != 0 {
		t.Error("wrong region matched")
	}
}

func TestTierDeltasUnpaired(t *testing.T) {
	ms := []Measurement{mkMeasure(1, 0, bgp.Premium, netsim.Download, 250, 30, 0)}
	if len(tierDeltasOf(NewSliceCursor(ms), "us-east1", MetricDownload)) != 0 {
		t.Error("unpaired measurement produced a delta")
	}
}

func TestDeltaHelpers(t *testing.T) {
	deltas := []TierDelta{{Delta: -0.2}, {Delta: -0.1}, {Delta: 0.3}, {Delta: -0.6}}
	if f := FractionStandardHigher(deltas); math.Abs(f-0.75) > 1e-9 {
		t.Errorf("FractionStandardHigher = %v", f)
	}
	if f := FractionWithin(deltas); math.Abs(f-0.75) > 1e-9 {
		t.Errorf("FractionWithin = %v", f)
	}
	if FractionStandardHigher(nil) != 0 || FractionWithin(nil) != 0 {
		t.Error("empty delta helpers should be 0")
	}
	cdf, err := DeltaCDF(deltas)
	if err != nil || len(cdf) == 0 {
		t.Errorf("DeltaCDF: %v", err)
	}
}

func TestPremiumLossTargets(t *testing.T) {
	var ms []Measurement
	for h := 0; h < 10; h++ {
		ms = append(ms, mkMeasure(1, h, bgp.Premium, netsim.Download, 10, 50, 0.12))
		ms = append(ms, mkMeasure(2, h, bgp.Premium, netsim.Download, 300, 50, 0.001))
		ms = append(ms, mkMeasure(3, h, bgp.Standard, netsim.Download, 300, 50, 0.2))
		// Ties: equal mean loss (certain under a constant loss model) must
		// order by server ID, not by map iteration.
		for _, id := range []int{9, 7, 8, 6} {
			ms = append(ms, mkMeasure(id, h, bgp.Premium, netsim.Download, 10, 50, 0.12))
		}
		ms = append(ms, mkMeasure(5, h, bgp.Premium, netsim.Download, 10, 50, 0.3))
	}
	lossy := PremiumLossTargetsCursor(NewSliceCursor(ms), "us-east1")
	var ids []int
	for _, l := range lossy {
		ids = append(ids, l.ServerID)
	}
	if want := []int{5, 1, 6, 7, 8, 9}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("lossy servers = %v, want %v (mean loss descending, ties by server ID)", ids, want)
	}
	if math.Abs(lossy[1].MeanLoss-0.12) > 1e-9 || lossy[1].N != 10 {
		t.Errorf("summary: %+v", lossy[1])
	}
}

func TestBusinessAndFig8(t *testing.T) {
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	congested := make(map[int]bool)
	for i, s := range topo.Servers() {
		ids = append(ids, s.ID)
		if i%3 == 0 {
			congested[s.ID] = true
		}
	}
	rows := Fig8Counts(topo, "us-east1", ids, congested)
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	totalCong, total := 0, 0
	for _, r := range rows {
		if r.Congested > r.Total {
			t.Errorf("row %v has more congested than total", r)
		}
		totalCong += r.Congested
		total += r.Total
	}
	if total != len(ids) || totalCong != len(congested) {
		t.Errorf("totals %d/%d, want %d/%d", totalCong, total, len(congested), len(ids))
	}
	// Unknown server resolves to BizUnknown.
	if BusinessOf(topo, 1<<30) != topology.BizUnknown {
		t.Error("unknown server business")
	}
}
