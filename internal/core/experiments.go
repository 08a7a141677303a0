package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/selection"
	"github.com/clasp-measurement/clasp/internal/stats"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// --- Multi-region campaigns ----------------------------------------------------

// RunTopologyCampaigns runs the topology-based campaign in several regions
// concurrently — the deployment shape of the paper, where all regions
// measured in parallel for the whole window. The engine's command
// scheduler (NewCommandScheduler, NewResumeScheduler) plans and runs them:
// planning (server selection, checkpoint attachment) walks the regions in
// order, registering command-wide progress and, on resume, loading
// finished checkpointed campaigns instead of re-running them; the planned
// campaigns then fan out one goroutine per region over the shared,
// thread-safe platform, bucket and store, with the engine's worker pool
// capping their combined VM concurrency at Opts.Parallelism — the global
// budget, not a per-campaign one. Each region's records are identical to
// running its campaign alone with the same seed. The runs leave the
// VM-hours and egress billed to the platform and, under
// Opts.CheckpointDir, each campaign's checkpoint.
func (c *CLASP) RunTopologyCampaigns(regions []string, days int) error {
	s := c.sched
	if s == nil {
		return fmt.Errorf("core: multi-region campaigns need a command scheduler")
	}
	plans := make([]*PlannedCampaign, 0, len(regions))
	for _, region := range regions {
		p, err := s.Plan(CampaignRef{Kind: "topology", Region: region, Days: days})
		if err != nil {
			return err
		}
		plans = append(plans, p)
	}
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Run(plans[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- Table 1 -------------------------------------------------------------------

// Table1Row reproduces one row of Table 1: interdomain-link coverage of the
// topology-based selection.
type Table1Row struct {
	Region      string
	PilotLinks  int     // links bdrmap found in the pilot scan
	ServerLinks int     // links traversed by traceroutes to all US servers
	Measured    int     // servers measured by CLASP (one per covered link)
	CoveragePct float64 // Measured / ServerLinks * 100
	SharedPct   float64 // servers sharing a link with others
}

// Table1 runs the topology-based selection in each region and reports the
// coverage summary.
func (c *CLASP) Table1(regions []string) ([]Table1Row, error) {
	var rows []Table1Row
	for _, region := range regions {
		sel, err := c.SelectTopologyServers(region)
		if err != nil {
			return nil, fmt.Errorf("core: table 1 for %s: %w", region, err)
		}
		rows = append(rows, Table1Row{
			Region:      region,
			PilotLinks:  sel.PilotLinks.LinkCount(),
			ServerLinks: sel.ServerLinkCount,
			Measured:    len(sel.Selected),
			CoveragePct: sel.Coverage() * 100,
			SharedPct:   sel.SharedFraction * 100,
		})
	}
	return rows, nil
}

// --- Fig. 2 --------------------------------------------------------------------

// Fig2Series is one region's threshold sweep for congested pair-days
// (Fig. 2a) and pair-hours (Fig. 2b).
type Fig2Series struct {
	Region string
	Days   []congestion.SweepPoint
	Hours  []congestion.SweepPoint
	// ElbowH is the knee of the day sweep (the paper chose H = 0.5).
	ElbowH float64
}

// DefaultThresholdGrid is the H grid used for the Fig. 2 sweeps.
func DefaultThresholdGrid() []float64 {
	hs := make([]float64, 0, 21)
	for i := 0; i <= 20; i++ {
		hs = append(hs, float64(i)/20)
	}
	return hs
}

// Fig2 computes the threshold sweeps from per-region campaign records
// (download direction, premium tier — the ingress measurements of §3.3).
// Regions fan out across `parallelism` workers; each writes its sweep to
// its own index in region-sorted order, so the output is identical to the
// serial loop at any parallelism. Each region's series are partitioned
// into days once and both sweeps reuse the cached partition.
func Fig2(results map[string]*CampaignResult, hs []float64, parallelism int) []Fig2Series {
	if hs == nil {
		hs = DefaultThresholdGrid()
	}
	regions := make([]string, 0, len(results))
	for r := range results {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	out := make([]Fig2Series, len(regions))
	analysis.ParallelFor(parallelism, len(regions), func(i int) {
		region := regions[i]
		_, parts := results[region].SeriesAndPartitions(bgp.Premium)
		s := Fig2Series{
			Region: region,
			Days:   congestion.SweepDaysPartitioned(parts, hs, 0),
			Hours:  congestion.SweepHoursPartitioned(parts, hs, 0),
		}
		if h, err := congestion.ElbowThreshold(s.Days); err == nil {
			s.ElbowH = h
		}
		out[i] = s
	})
	return out
}

// --- Fig. 3 --------------------------------------------------------------------

// Fig3Data is the two-day annotated time series of one pair: download
// throughput, its normalised intra-day difference, and the congested hours.
type Fig3Data struct {
	PairID  string
	Samples []congestion.Sample
	VH      []float64
	Events  []time.Time // the congested hours
}

// Fig3 extracts the paper's example series: the Cox (Las Vegas) server
// measured from us-west1, over the first two-day window containing at
// least one congestion event.
func (c *CLASP) Fig3(result *CampaignResult) (*Fig3Data, error) {
	var cox *topology.Server
	for _, s := range c.Topo.Servers() {
		if s.ASN == 22773 && s.City == "Las Vegas" {
			cox = s
			break
		}
	}
	if cox == nil {
		return nil, fmt.Errorf("core: no Cox Las Vegas server in the topology")
	}
	var coxSeries *congestion.Series
	series, _ := result.SeriesAndPartitions(bgp.Premium)
	for i := range series {
		if series[i].ServerID == cox.ID && series[i].Region == result.Region {
			coxSeries = &series[i].Series
			break
		}
	}
	if coxSeries == nil {
		// The pair was not part of the selection (the paper hand-picked
		// it); measure it directly over the campaign window.
		days := 30
		if result.NumRecords() > 0 {
			first := result.FirstRecord().Time
			last := result.LastRecord().Time
			if d := int(last.Sub(first).Hours()/24) + 1; d > 0 {
				days = d
			}
		}
		sr := congestion.Series{PairID: fmt.Sprintf("%s/%d/premium/download", result.Region, cox.ID)}
		for h := 0; h < days*24; h++ {
			at := CampaignStart.Add(time.Duration(h) * time.Hour)
			res, err := c.Sim.Measure(netsim.TestSpec{
				Region: result.Region, Server: cox, Tier: bgp.Premium,
				Dir: netsim.Download, Time: at,
			})
			if err != nil {
				return nil, fmt.Errorf("core: measuring Cox pair directly: %w", err)
			}
			sr.Samples = append(sr.Samples, congestion.Sample{Unix: at.UnixNano(), Mbps: res.ThroughputMbps})
		}
		coxSeries = &sr
	}
	det := congestion.NewDetector()
	events := det.Events(*coxSeries)

	// Find a two-day window with events; fall back to the first two days.
	startIdx := 0
	if len(events) > 0 {
		evDay := events[0].Truncate(24 * 3600e9)
		for i, s := range coxSeries.Samples {
			if s.Unix >= evDay.UnixNano() {
				startIdx = i
				break
			}
		}
	}
	endIdx := startIdx + 48
	if endIdx > len(coxSeries.Samples) {
		endIdx = len(coxSeries.Samples)
	}
	window := congestion.Series{PairID: coxSeries.PairID, Samples: coxSeries.Samples[startIdx:endIdx]}
	wEvents := det.Events(window)

	// VH per sample within the window.
	vh := make([]float64, len(window.Samples))
	dayMax := make(map[int]float64)
	for _, s := range window.Samples {
		d := congestion.DayOf(s.Unix)
		if s.Mbps > dayMax[d] {
			dayMax[d] = s.Mbps
		}
	}
	for i, s := range window.Samples {
		if m := dayMax[congestion.DayOf(s.Unix)]; m > 0 {
			vh[i] = (m - s.Mbps) / m
		}
	}
	return &Fig3Data{PairID: window.PairID, Samples: window.Samples, VH: vh, Events: wEvents}, nil
}

// --- Fig. 4 --------------------------------------------------------------------

// Fig4Data is one panel of Fig. 4: per-(server, month) p95 download vs p5
// latency points.
type Fig4Data struct {
	Region string
	Tier   bgp.Tier
	Points []analysis.PerfPoint
}

// Fig4 builds a panel for one tier from the points of the campaign's
// download view of that tier, whose series carry each download's latency.
func Fig4(result *CampaignResult, tier bgp.Tier) (*Fig4Data, error) {
	points := result.view(tier).perfPoints()
	if len(points) == 0 {
		return nil, fmt.Errorf("core: no perf points for %s/%s", result.Region, tier)
	}
	return &Fig4Data{Region: result.Region, Tier: tier, Points: points}, nil
}

// --- Fig. 5 --------------------------------------------------------------------

// Fig5Curve is one CDF of relative tier difference, for one metric and one
// preliminary-latency class.
type Fig5Curve struct {
	Metric analysis.Metric
	Class  selection.DiffClass
	CDF    []stats.CDFPoint
	N      int
}

// Fig5Summary carries the curves plus the headline fractions of §4.1.
type Fig5Summary struct {
	Region string
	Curves []Fig5Curve
	// StdHigherDownload is the fraction of download deltas with the
	// standard tier faster (paper: standard generally higher).
	StdHigherDownload float64
	// Within50 is the fraction of download deltas with |Δ| < 0.5
	// (paper: > 92 %).
	Within50 float64
}

// Fig5 computes the tier-difference CDFs from a differential campaign,
// grouping servers by their preliminary-scan class.
func Fig5(result *CampaignResult, selected []selection.DiffSelected) (*Fig5Summary, error) {
	classOf := make(map[int]selection.DiffClass, len(selected))
	for _, s := range selected {
		classOf[s.Server.ID] = s.Class
	}
	out := &Fig5Summary{Region: result.Region}
	metrics := []analysis.Metric{analysis.MetricDownload, analysis.MetricUpload, analysis.MetricLatency}
	each := analysis.TierDeltasEach(result.ranges(), result.Region, metrics...)
	for _, metric := range metrics {
		deltas := each[metric]
		if metric == analysis.MetricDownload {
			out.StdHigherDownload = analysis.FractionStandardHigher(deltas)
			out.Within50 = analysis.FractionWithin(deltas)
		}
		byClass := make(map[selection.DiffClass][]analysis.TierDelta)
		for _, d := range deltas {
			cl, ok := classOf[d.ServerID]
			if !ok {
				continue
			}
			byClass[cl] = append(byClass[cl], d)
		}
		for _, cl := range []selection.DiffClass{selection.Comparable, selection.PremiumLower, selection.StandardLower} {
			ds := byClass[cl]
			if len(ds) == 0 {
				continue
			}
			cdf, err := analysis.DeltaCDF(ds)
			if err != nil {
				continue
			}
			out.Curves = append(out.Curves, Fig5Curve{Metric: metric, Class: cl, CDF: cdf, N: len(ds)})
		}
	}
	if len(out.Curves) == 0 {
		return nil, fmt.Errorf("core: no tier-delta curves for %s", result.Region)
	}
	return out, nil
}

// --- Fig. 6 --------------------------------------------------------------------

// Fig6Line is the hourly congestion probability of one pair, labelled
// <Location><Network> as in the figure.
type Fig6Line struct {
	Label  string
	Tier   bgp.Tier
	Events int
	Probs  [24]float64 // indexed by server-local hour
}

// Fig6 returns the hourly congestion probability of the top-n most
// congested pairs in a campaign, per tier, in server-local time.
func (c *CLASP) Fig6(result *CampaignResult, tier bgp.Tier, topN int) []Fig6Line {
	if topN <= 0 {
		topN = 10
	}
	det := congestion.NewDetector()
	series, parts := result.SeriesAndPartitions(tier)
	var lines []Fig6Line
	for i, sw := range series {
		v := parts[i].Verdict(det.H)
		if v.Events == 0 {
			continue
		}
		srv := c.Topo.Server(sw.ServerID)
		if srv == nil {
			continue
		}
		city, ok := c.Topo.CityOf(srv.City)
		if !ok {
			continue
		}
		as := c.Topo.AS(srv.ASN)
		lines = append(lines, Fig6Line{
			Label:  fmt.Sprintf("<%s><%s AS%d>", srv.City, as.Name, srv.ASN),
			Tier:   tier,
			Events: v.Events,
			Probs:  congestion.HourlyProbability(v, city.UTCOffset),
		})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Events != lines[j].Events {
			return lines[i].Events > lines[j].Events
		}
		return lines[i].Label < lines[j].Label
	})
	if len(lines) > topN {
		lines = lines[:topN]
	}
	return lines
}

// --- Fig. 7 --------------------------------------------------------------------

// Fig7Point is one map marker: a cloud region or a selected server.
type Fig7Point struct {
	Region string // owning region panel
	Kind   string // "region", "topology", "differential"
	Label  string
	Lat    float64
	Lon    float64
}

// Fig7 returns the map markers for a region's selections.
func (c *CLASP) Fig7(region string, topo *selection.TopoResult, diff []selection.DiffSelected) []Fig7Point {
	var out []Fig7Point
	if r, ok := c.Topo.Region(region); ok {
		if coord, ok := c.Topo.CityCoord(r.City); ok {
			out = append(out, Fig7Point{Region: region, Kind: "region", Label: r.City, Lat: coord.Lat, Lon: coord.Lon})
		}
	}
	if topo != nil {
		for _, s := range topo.Selected {
			out = append(out, Fig7Point{Region: region, Kind: "topology", Label: s.Server.Host, Lat: s.Server.Lat, Lon: s.Server.Lon})
		}
	}
	for _, s := range diff {
		out = append(out, Fig7Point{Region: region, Kind: "differential", Label: s.Server.Host, Lat: s.Server.Lat, Lon: s.Server.Lon})
	}
	return out
}

// --- Fig. 8 --------------------------------------------------------------------

// Fig8 labels each measured server as congested (>10 % of days with an
// event) and groups by business type.
func (c *CLASP) Fig8(result *CampaignResult, tier bgp.Tier) []analysis.Fig8Row {
	det := congestion.NewDetector()
	series, parts := result.SeriesAndPartitions(tier)
	congested := make(map[int]bool)
	var ids []int
	for i, sw := range series {
		ids = append(ids, sw.ServerID)
		if congestion.CongestedPairIn(parts[i], det) {
			congested[sw.ServerID] = true
		}
	}
	return analysis.Fig8Counts(c.Topo, result.Region, ids, congested)
}

// --- Headline findings -----------------------------------------------------------

// Headlines are the paper's four main quantitative findings (§1).
type Headlines struct {
	// CongestedHourFrac: fraction of pair-hours with a >50 % drop from
	// the daily peak (paper: 1.3-3 %).
	CongestedHourFrac float64
	// CongestedISPFrac: fraction of measured ISPs with events on >10 % of
	// days (paper: 30-70 %).
	CongestedISPFrac float64
	// P95DownIn200600: fraction of topology-selected servers whose p95
	// download falls in 200-600 Mbps (paper: ~80 %).
	P95DownIn200600 float64
	// StdTierHigherFrac: fraction of download deltas where the standard
	// tier was faster.
	StdTierHigherFrac float64
}

// ComputeHeadlines derives the findings from topology-campaign results and
// an optional differential campaign. Every per-region tally — congested
// hours, congested ISP pairs and the p95 share of Fig. 4's points — reads
// the region's one Premium download view, Fig. 4's points included: topology
// campaigns measure only the Premium tier, so that view holds every
// download they made. Per-region analysis fans out across Opts.Parallelism
// workers; every fold below is an integer tally summed in region-sorted
// index order, so the headlines are identical at any parallelism.
func (c *CLASP) ComputeHeadlines(topoResults map[string]*CampaignResult, diff *CampaignResult) Headlines {
	var h Headlines
	regions := make([]string, 0, len(topoResults))
	for r := range topoResults {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	type regionTally struct {
		hourEvents, hourTotal    int
		ispPairs, ispCongested   int
		perfIn200600, perfPoints int
	}
	tallies := make([]regionTally, len(regions))
	det := congestion.NewDetector()
	analysis.ParallelFor(c.Opts.Parallelism, len(regions), func(i int) {
		res := topoResults[regions[i]]
		t := &tallies[i]
		view := res.view(bgp.Premium)
		for j, sw := range view.series {
			v := view.parts[j].Verdict(det.H)
			t.hourEvents += v.Events
			t.hourTotal += v.Hours
			if analysis.BusinessOf(c.Topo, sw.ServerID) == topology.BizISP {
				t.ispPairs++
				if congestion.CongestedPairIn(view.parts[j], det) {
					t.ispCongested++
				}
			}
		}
		for _, p := range view.perfPoints() {
			t.perfPoints++
			if p.P95Down >= 200 && p.P95Down <= 600 {
				t.perfIn200600++
			}
		}
	})
	var sum regionTally
	for i := range tallies {
		sum.hourEvents += tallies[i].hourEvents
		sum.hourTotal += tallies[i].hourTotal
		sum.ispPairs += tallies[i].ispPairs
		sum.ispCongested += tallies[i].ispCongested
		sum.perfIn200600 += tallies[i].perfIn200600
		sum.perfPoints += tallies[i].perfPoints
	}
	if sum.hourTotal > 0 {
		h.CongestedHourFrac = float64(sum.hourEvents) / float64(sum.hourTotal)
	}
	if sum.ispPairs > 0 {
		h.CongestedISPFrac = float64(sum.ispCongested) / float64(sum.ispPairs)
	}
	if sum.perfPoints > 0 {
		h.P95DownIn200600 = float64(sum.perfIn200600) / float64(sum.perfPoints)
	}
	if diff != nil {
		deltas := analysis.TierDeltasEach(diff.ranges(), diff.Region, analysis.MetricDownload)
		h.StdTierHigherFrac = analysis.FractionStandardHigher(deltas[analysis.MetricDownload])
	}
	return h
}
