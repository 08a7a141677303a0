package orchestrator

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/cloud"
	"github.com/clasp-measurement/clasp/internal/flowstats"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// records reads a log back through its cursor.
func records(l *analysis.RecordLog) []analysis.Measurement {
	var out []analysis.Measurement
	for c := l.Cursor(); ; {
		batch := c.Next()
		if batch == nil {
			return out
		}
		out = append(out, batch...)
	}
}

type fixture struct {
	topo     *topology.Topology
	sim      *netsim.Sim
	platform *cloud.Platform
	bucket   *cloud.Bucket
	orch     *Orchestrator
}

func setup(t testing.TB) *fixture {
	t.Helper()
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, nil, netsim.Config{Seed: 31})
	platform := cloud.New(topo, cloud.Pricing{})
	bucket := platform.CreateBucket()
	return &fixture{topo: topo, sim: sim, platform: platform, bucket: bucket,
		orch: New(sim, platform, bucket)}
}

func TestPlanVMs(t *testing.T) {
	// Each server consumes two hourly test slots (download + upload), so
	// the plan is ceil(2n / 17).
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {8, 1}, {9, 2}, {17, 2}, {18, 3}, {100, 12}, {184, 22},
	}
	for _, c := range cases {
		if got := PlanVMs(c.n); got != c.want {
			t.Errorf("PlanVMs(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	testCases := []struct{ tests, want int }{
		{0, 0}, {1, 1}, {17, 1}, {18, 2}, {34, 2}, {35, 3},
	}
	for _, c := range testCases {
		if got := PlanVMsForTests(c.tests); got != c.want {
			t.Errorf("PlanVMsForTests(%d) = %d, want %d", c.tests, got, c.want)
		}
	}
}

func TestUploadSlotOffsets(t *testing.T) {
	f := setup(t)
	servers := f.topo.Servers()[:3]
	log := analysis.NewRecordLog()
	_, err := f.orch.Run(Config{Region: "us-east1", Servers: servers, Days: 1, Seed: 6}, log)
	if err != nil {
		t.Fatal(err)
	}
	// Within each hour every test occupies its own slot: the download and
	// upload of one server must not collide, and 3 servers x 2 directions
	// must spread over 6 distinct timestamps.
	byHour := make(map[int]map[int64]int)
	upAt := make(map[[2]int64]bool) // (server, hour) -> upload seen
	for _, m := range records(log) {
		h := m.Time.Hour()
		if byHour[h] == nil {
			byHour[h] = make(map[int64]int)
		}
		byHour[h][m.Time.UnixNano()]++
		if m.Dir == netsim.Upload {
			upAt[[2]int64{int64(m.ServerID), m.Time.Unix()}] = true
		}
	}
	for h, slots := range byHour {
		if len(slots) != len(servers)*TestsPerServerPerHour {
			t.Errorf("hour %d: %d distinct slots, want %d", h, len(slots), len(servers)*TestsPerServerPerHour)
		}
		for at, n := range slots {
			if n != 1 {
				t.Errorf("hour %d: %d tests share slot %d", h, n, at)
			}
		}
	}
}

func TestHourOrderGolden(t *testing.T) {
	// Pins the splitmix64-derived per-hour schedule so future changes to
	// the seed mixing are deliberate.
	golden := map[int][]int{
		0: {1, 7, 0, 2, 4, 6, 5, 3},
		1: {7, 4, 3, 2, 1, 0, 6, 5},
		2: {3, 6, 7, 0, 2, 4, 5, 1},
	}
	rng := rand.New(rand.NewSource(0))
	for hour, want := range golden {
		got := make([]int, 8)
		hourOrder(rng, 1, hour, got)
		if !slices.Equal(got, want) {
			t.Fatalf("hourOrder(1, %d) = %v, want %v", hour, got, want)
		}
	}
	// Adjacent hours must differ for small seeds (the old xor mixing
	// correlated them).
	a, b := make([]int, 16), make([]int, 16)
	for seed := int64(0); seed < 8; seed++ {
		for hour := 0; hour < 23; hour++ {
			hourOrder(rng, seed, hour, a)
			hourOrder(rng, seed, hour+1, b)
			if slices.Equal(a, b) {
				t.Errorf("seed %d: hours %d and %d share order %v", seed, hour, hour+1, a)
			}
		}
	}
}

func TestRunBasicCampaign(t *testing.T) {
	f := setup(t)
	servers := f.topo.USServers()[:20]
	log := analysis.NewRecordLog()
	rep, err := f.orch.Run(Config{
		Region:  "us-east1",
		Servers: servers,
		Days:    2,
		Seed:    1,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	// 20 servers, hourly, 2 days, 2 directions.
	want := 20 * 48 * 2
	if rep.Tests != want || log.Len() != want {
		t.Fatalf("tests = %d / records %d, want %d", rep.Tests, log.Len(), want)
	}
	if rep.VMs != 3 {
		t.Errorf("VMs = %d, want 3 (20 servers x 2 tests / 17 per VM)", rep.VMs)
	}
	if rep.MaxVMCPUUtil <= 0 {
		t.Errorf("MaxVMCPUUtil = %v, want > 0 (hourly SoMeta snapshots)", rep.MaxVMCPUUtil)
	}
	if rep.Hours != 48 {
		t.Errorf("hours = %d", rep.Hours)
	}
	// Records are sane.
	downs, ups := 0, 0
	for _, m := range records(log) {
		if m.Mbps <= 0 {
			t.Fatalf("non-positive throughput: %+v", m)
		}
		if m.Dir == netsim.Download {
			downs++
		} else {
			ups++
		}
		if m.Time.Before(time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)) {
			t.Fatalf("bad time: %+v", m)
		}
	}
	if downs != ups {
		t.Errorf("downloads %d != uploads %d", downs, ups)
	}
	// VMs were cleaned up.
	if vms := f.platform.ListVMs("us-east1"); len(vms) != 0 {
		t.Errorf("VMs left running: %d", len(vms))
	}
	// Costs accrued: compute + egress.
	c := f.platform.Costs()
	if c.ComputeUSD <= 0 || c.EgressUSD <= 0 {
		t.Errorf("costs not accrued: %+v", c)
	}
}

func TestRunErrors(t *testing.T) {
	f := setup(t)
	if _, err := f.orch.Run(Config{Region: "us-east1"}, analysis.NewRecordLog()); err == nil {
		t.Error("no servers: want error")
	}
	if _, err := f.orch.Run(Config{Region: "atlantis", Servers: f.topo.Servers()[:1]}, analysis.NewRecordLog()); err == nil {
		t.Error("unknown region: want error")
	}
	// A nil log would measure a whole campaign into nowhere.
	if _, err := f.orch.Run(Config{Region: "us-east1", Servers: f.topo.Servers()[:1]}, nil); err == nil {
		t.Error("nil log: want error")
	}
}

func TestRandomisedOrderDiffersAcrossHours(t *testing.T) {
	f := setup(t)
	servers := f.topo.USServers()[:10]
	log := analysis.NewRecordLog()
	_, err := f.orch.Run(Config{Region: "us-west1", Servers: servers, Days: 1, Seed: 7}, log)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct per-hour test order from the download records and
	// verify at least two hours ordered servers differently.
	orders := make(map[int][]int)
	for _, m := range records(log) {
		if m.Dir != netsim.Download {
			continue
		}
		h := m.Time.Hour()
		orders[h] = append(orders[h], m.ServerID)
	}
	base := orders[0]
	differs := false
	for h := 1; h < 24; h++ {
		for i := range orders[h] {
			if orders[h][i] != base[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("test order identical across all hours")
	}
}

func TestDifferentialTierPairs(t *testing.T) {
	f := setup(t)
	servers := f.topo.Servers()[:5]
	log := analysis.NewRecordLog()
	rep, err := f.orch.Run(Config{
		Region:  "europe-west1",
		Servers: servers,
		Tiers:   []bgp.Tier{bgp.Premium, bgp.Standard},
		Days:    1,
		Seed:    2,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VMs != 2 { // one VM pair (5 servers fit in one VM per tier)
		t.Errorf("VMs = %d, want 2", rep.VMs)
	}
	// Same-hour pairs must exist for the tier comparison.
	deltas := analysis.TierDeltasEach([]analysis.Cursor{analysis.NewSliceCursor(records(log))}, "europe-west1", analysis.MetricDownload)[analysis.MetricDownload]
	if len(deltas) != 5*24 {
		t.Errorf("paired deltas = %d, want %d", len(deltas), 5*24)
	}
}

func TestCapturesUploadedAndParseable(t *testing.T) {
	f := setup(t)
	servers := f.topo.Servers()[:3]
	rep, err := f.orch.Run(Config{
		Region:       "us-east1",
		Servers:      servers,
		Days:         1,
		Seed:         3,
		CaptureEvery: 10,
	}, analysis.NewRecordLog())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Captures == 0 {
		t.Fatal("no captures recorded")
	}
	keys := f.bucket.List("us-east1/pcap/")
	if len(keys) == 0 {
		t.Fatal("no captures uploaded")
	}
	// Every capture must decompress and analyse cleanly.
	data, ok := f.bucket.Get(keys[0])
	if !ok {
		t.Fatal("capture object missing")
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowstats.Analyze(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].DataSegments == 0 {
		t.Errorf("capture analysis: %+v", flows)
	}
	// SoMeta records alongside.
	if len(f.bucket.List("us-east1/someta/")) == 0 {
		t.Error("no someta records uploaded")
	}
}

func TestTraceroutesUploaded(t *testing.T) {
	f := setup(t)
	servers := f.topo.Servers()[:3]
	rep, err := f.orch.Run(Config{
		Region:          "us-east1",
		Servers:         servers,
		Days:            2,
		Seed:            4,
		TracerouteEvery: 1,
	}, analysis.NewRecordLog())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traceroutes != 6 { // 3 servers x 2 days
		t.Errorf("traceroutes = %d, want 6", rep.Traceroutes)
	}
	keys := f.bucket.List("us-east1/traceroute/")
	if len(keys) != 6 {
		t.Errorf("uploaded traceroutes = %d", len(keys))
	}
	data, _ := f.bucket.Get(keys[0])
	if !strings.Contains(string(data), "hops") {
		t.Error("traceroute JSON malformed")
	}
}

// indexByRecord is the index's oracle: every record of log, one at a
// time through StoreSink.Record, into a fresh store.
func indexByRecord(log *analysis.RecordLog) *tsdb.Store {
	store := tsdb.NewStore()
	sink := &StoreSink{Store: store}
	for _, m := range records(log) {
		sink.Record(m)
	}
	return store
}

// checkIndexMatches fails unless the two stores hold the same series and
// points, sealed into the same blocks.
func checkIndexMatches(t *testing.T, got, want *tsdb.Store) {
	t.Helper()
	if g, w := got.Dump(), want.Dump(); !reflect.DeepEqual(g, w) {
		t.Fatalf("index holds %d series, want %d, or their points or blocks differ", len(g), len(w))
	}
}

// TestStoreSinkIndexes: a campaign's finished log indexed in one pass
// equals its records indexed one at a time — over both tiers, across a seal
// (24 days is 576 points a series) and, indexed twice, into series that
// already hold a sealed block and a tail.
func TestStoreSinkIndexes(t *testing.T) {
	f := setup(t)
	log := analysis.NewRecordLog()
	_, err := f.orch.Run(Config{
		Region:          "us-west1",
		Servers:         f.topo.Servers()[:3],
		Tiers:           []bgp.Tier{bgp.Premium, bgp.Standard},
		Days:            24,
		Seed:            5,
		TestDurationSec: 1,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	store := tsdb.NewStore()
	(&StoreSink{Store: store}).Index(log)
	want := indexByRecord(log)
	checkIndexMatches(t, store, want)
	// 3 servers x 2 tiers x 2 directions = 12 series.
	if store.SeriesCount() != 12 {
		t.Errorf("series = %d, want 12", store.SeriesCount())
	}
	if blocks, _, _ := store.BlockStats(); blocks != 12 {
		t.Errorf("sealed blocks = %d, want one a series", blocks)
	}
	(&StoreSink{Store: store}).Index(log)
	sink := &StoreSink{Store: want}
	for _, m := range records(log) {
		sink.Record(m)
	}
	checkIndexMatches(t, store, want)

	// Server IDs no topology assigns — negative, past the dense table —
	// interleaved with ones it does, and two regions in one log.
	odd := analysis.NewRecordLog()
	for i, m := range campaignRecords(6, 40) {
		switch m.ServerID {
		case 1:
			m.ServerID = -7
		case 2:
			m.ServerID = indexDense
		case 3:
			m.ServerID = 1 << 40
		}
		if i%3 == 0 {
			m.Region = "europe-west1"
		}
		odd.Append(m)
	}
	store = tsdb.NewStore()
	(&StoreSink{Store: store}).Index(odd)
	checkIndexMatches(t, store, indexByRecord(odd))
}

func TestDeterministicCampaign(t *testing.T) {
	f1 := setup(t)
	f2 := setup(t)
	cfg := Config{Region: "us-east1", Servers: nil, Days: 1, Seed: 11}
	cfg.Servers = f1.topo.Servers()[:5]
	s1 := analysis.NewRecordLog()
	if _, err := f1.orch.Run(cfg, s1); err != nil {
		t.Fatal(err)
	}
	cfg.Servers = f2.topo.Servers()[:5]
	s2 := analysis.NewRecordLog()
	if _, err := f2.orch.Run(cfg, s2); err != nil {
		t.Fatal(err)
	}
	r1, r2 := records(s1), records(s2)
	if len(r1) != len(r2) {
		t.Fatal("campaign lengths differ")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestFixedOrderAblation(t *testing.T) {
	f := setup(t)
	servers := f.topo.Servers()[:6]
	run := func(fixed bool) []int {
		log := analysis.NewRecordLog()
		_, err := f.orch.Run(Config{Region: "us-west1", Servers: servers, Days: 1, Seed: 9, FixedOrder: fixed}, log)
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		for _, m := range records(log) {
			if m.Dir == netsim.Download && m.Time.Hour() <= 1 {
				order = append(order, m.ServerID)
			}
		}
		return order
	}
	fixed := run(true)
	// Fixed order: hour 0 and hour 1 have identical server sequences.
	half := len(fixed) / 2
	for i := 0; i < half; i++ {
		if fixed[i] != fixed[half+i] {
			t.Fatalf("fixed order differs across hours at %d", i)
		}
	}
	random := run(false)
	same := true
	for i := 0; i < half; i++ {
		if random[i] != random[half+i] {
			same = false
			break
		}
	}
	if same {
		t.Error("randomised order identical across hours")
	}
}
