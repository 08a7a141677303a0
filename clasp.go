// Package clasp is the public API of CLASP, the CLoud-based Applications
// Speed Platform from "Measuring the network performance of Google Cloud
// Platform" (Mok et al., ACM IMC 2021).
//
// CLASP measures the network performance between cloud regions and the
// wider Internet by orchestrating measurement VMs that run speed tests
// against widely deployed test servers (Ookla, M-Lab ndt7, Comcast
// Xfinity-style). It selects representative servers with two methods — a
// topology-based method built on bdrmap border inference, and a
// differential method built on premium/standard tier latency deltas — runs
// longitudinal hourly campaigns, and detects diurnal congestion from
// throughput variability.
//
// This implementation is offline-complete: every substrate the paper used
// (the Internet's AS topology, BGP tier routing, GCP's control plane,
// Speedchecker, tcpdump, bdrmap, InfluxDB, ...) is implemented in this
// module, and the speed test client/server protocols run over real TCP
// sockets. See DESIGN.md for the substitution map and EXPERIMENTS.md for
// paper-vs-measured results.
//
// Quickstart:
//
//	p, err := clasp.New(clasp.Options{Seed: 1, Scale: 0.1})
//	if err != nil { ... }
//	res, err := p.RunTopologyCampaign("us-west1", 30)
//	rep, err := p.CongestionReport(res)
package clasp

import (
	"fmt"
	"io"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/obs"
)

// Options configures a Platform: seed, topology scale, parallelism, fault
// profile, capture/traceroute cadence, memory budget and checkpointing.
// core.Options is the one declaration of these knobs — fields, defaults
// (Seed 1, Scale 0.25) and constraints are documented there — and the CLI
// flags and scenario spec keys fill in the same struct.
type Options = core.Options

// Platform is a fully wired CLASP instance over the simulated Internet and
// cloud substrate.
type Platform struct {
	engine *core.CLASP
}

// New creates a platform, defaulting and validating opts (core.New).
func New(opts Options) (*Platform, error) {
	eng, err := core.New(opts)
	if err != nil {
		return nil, fmt.Errorf("clasp: %w", err)
	}
	return &Platform{engine: eng}, nil
}

// NewFromCore wraps an already-built engine in a Platform. The scenario
// runner uses it to construct engines with a shared substrate (see
// core.Options.Substrate); the platform takes ownership of the engine.
func NewFromCore(eng *core.CLASP) *Platform { return &Platform{engine: eng} }

// Engine exposes the underlying engine for advanced use (experiment
// generators, raw topology access). The returned value is owned by the
// platform.
func (p *Platform) Engine() *core.CLASP { return p.engine }

// Regions returns the cloud regions available for campaigns.
func (p *Platform) Regions() []string {
	var out []string
	for _, r := range p.engine.Topo.Regions {
		out = append(out, r.Name)
	}
	return out
}

// CampaignResult is the outcome of one measurement campaign.
type CampaignResult = core.CampaignResult

// RunTopologyCampaign selects servers with the topology-based method
// (§3.1) and measures each hourly over the premium tier for `days` days of
// virtual time.
func (p *Platform) RunTopologyCampaign(region string, days int) (*CampaignResult, error) {
	res, _, err := p.engine.RunTopologyCampaign(region, days)
	return res, err
}

// RunTopologyCampaigns runs the topology-based campaign in several regions
// concurrently, one goroutine per region over the shared substrate — the
// paper's actual deployment shape. Per-region results are identical to
// running each campaign alone with the same seed. The engine must have a
// command scheduler attached (core.CLASP.NewCommandScheduler).
func (p *Platform) RunTopologyCampaigns(regions []string, days int) (map[string]*CampaignResult, error) {
	res, _, err := p.engine.RunTopologyCampaigns(regions, days)
	return res, err
}

// PairSummary describes one measured VM-server pair in a congestion report.
type PairSummary struct {
	PairID        string
	ServerID      int
	Days          int
	CongestedDays int
	Events        int
	// PeakHourLocal is the modal local hour of the pair's events (-1
	// when the pair saw none).
	PeakHourLocal int
}

// CongestionReport summarises congestion across a campaign at H = 0.5.
type CongestionReport struct {
	Region string
	// HourFraction is the fraction of pair-hours with VH > 0.5
	// (paper: 1.3-3 %).
	HourFraction float64
	// DayFraction is the fraction of pair-days with V > 0.5
	// (paper: 11-30 %).
	DayFraction float64
	// Pairs lists the per-pair summaries, most congested first.
	Pairs []PairSummary
}

// CongestionReport runs the §3.3 detector over a campaign's download
// measurements (premium tier). Per-series detection fans out across
// Options.Parallelism workers; each worker builds one memoized day
// partition per series, writes its tallies to its own index, and the
// merge reads them back in index order — so the report is bit-identical
// at any parallelism (pinned by TestCongestionReportGolden).
func (p *Platform) CongestionReport(res *CampaignResult) (*CongestionReport, error) {
	if res == nil || res.NumRecords() == 0 {
		return nil, fmt.Errorf("clasp: empty campaign result")
	}
	sp := obs.Trace("congestion_report").With("region", res.Region).WithInt("records", res.NumRecords())
	defer sp.End()
	det := congestion.NewDetector()
	withServer, parts := res.SeriesAndPartitions(bgp.Premium)
	if len(withServer) == 0 {
		return nil, fmt.Errorf("clasp: no premium download series in result")
	}
	type pairTally struct {
		summary             PairSummary
		days, congestedDays int // qualifying days; V > H days
		hours, events       int // samples on qualifying days; VH > H
	}
	tallies := make([]pairTally, len(withServer))
	dsp := sp.Child("detect").WithInt("series", len(withServer)).WithInt("parallelism", p.engine.Opts.Parallelism)
	analysis.ParallelFor(p.engine.Opts.Parallelism, len(withServer), func(i int) {
		sw := withServer[i]
		part := parts[i]
		days := part.Days(congestion.MinDaySamples)
		events := det.EventsIn(part)
		congDays := make(map[int]bool)
		var hourCount [24]int
		srv := p.engine.Topo.Server(sw.ServerID) // read-only lookups, safe across workers
		for _, e := range events {
			congDays[congestion.DayOf(e.Time.UnixNano())] = true
			if srv != nil {
				if city, ok := p.engine.Topo.CityOf(srv.City); ok {
					hourCount[city.LocalHour(e.Time.Hour())]++
				}
			}
		}
		peak := -1
		best := 0
		for h, n := range hourCount {
			if n > best {
				best, peak = n, h
			}
		}
		t := &tallies[i]
		t.summary = PairSummary{
			PairID:        sw.Series.PairID,
			ServerID:      sw.ServerID,
			Days:          len(days),
			CongestedDays: len(congDays),
			Events:        len(events),
			PeakHourLocal: peak,
		}
		t.congestedDays, t.days = part.DayTally(det.H, congestion.MinDaySamples)
		t.events, t.hours = part.HourTally(det.H, congestion.MinDaySamples)
	})
	dsp.End()
	rep := &CongestionReport{Region: res.Region, Pairs: make([]PairSummary, 0, len(tallies))}
	// Campaign-wide fractions fold the per-series integer tallies, in index
	// order, and divide once — order-independent, so identical to the
	// serial reference in golden_test.go.
	var dTot, dCong, hTot, hCong int
	for i := range tallies {
		t := &tallies[i]
		rep.Pairs = append(rep.Pairs, t.summary)
		dTot += t.days
		dCong += t.congestedDays
		hTot += t.hours
		hCong += t.events
	}
	if hTot > 0 {
		rep.HourFraction = float64(hCong) / float64(hTot)
	}
	if dTot > 0 {
		rep.DayFraction = float64(dCong) / float64(dTot)
	}
	sortPairs(rep.Pairs)
	return rep, nil
}

func sortPairs(pairs []PairSummary) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && (pairs[j].Events > pairs[j-1].Events ||
			(pairs[j].Events == pairs[j-1].Events && pairs[j].PairID < pairs[j-1].PairID)); j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
}

// WriteReport renders a congestion report as text.
func WriteReport(w io.Writer, rep *CongestionReport) {
	fmt.Fprintf(w, "Congestion report for %s (H = %.1f)\n", rep.Region, congestion.DefaultThreshold)
	fmt.Fprintf(w, "  congested pair-hours: %.2f%%\n", rep.HourFraction*100)
	fmt.Fprintf(w, "  congested pair-days:  %.1f%%\n", rep.DayFraction*100)
	fmt.Fprintf(w, "  %-40s %6s %10s %8s %10s\n", "pair", "days", "cong.days", "events", "peak hour")
	for _, p := range rep.Pairs {
		if p.Events == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-40s %6d %10d %8d %10d\n", p.PairID, p.Days, p.CongestedDays, p.Events, p.PeakHourLocal)
	}
}

// WriteCampaignSummary renders a campaign's orchestration report — the one
// rendering `clasp campaign`, `clasp resume` and the scenario runner share:
// the totals, and the resilience line when anything degraded.
func WriteCampaignSummary(w io.Writer, res *CampaignResult) {
	r := res.Report
	fmt.Fprintf(w, "Campaign: %d tests over %d hours with %d VMs\n", r.Tests, r.Hours, r.VMs)
	if r.Failed+r.Dropped+r.Retried+r.Preemptions+r.VMCreateRetries > 0 {
		fmt.Fprintf(w, "Resilience: %d failed, %d retried, %d dropped, %d preemptions, %d create retries, %d breaker-open rounds\n",
			r.Failed, r.Retried, r.Dropped, r.Preemptions, r.VMCreateRetries, r.BreakerOpenRounds)
	}
}

// TierComparison is the §4.1 premium-vs-standard summary of a differential
// campaign.
type TierComparison struct {
	Region string
	// StdFasterDownload / StdFasterUpload are the fractions of paired
	// tests where the standard tier's throughput was higher.
	StdFasterDownload float64
	StdFasterUpload   float64
	// Within50 is the fraction of download deltas with |Δ| < 0.5.
	Within50 float64
	// MedianDownloadDelta is the median (prem-std)/std download delta.
	MedianDownloadDelta float64
	// PairedTests is the number of same-hour tier pairs compared.
	PairedTests int
}

// CompareTiers computes the §4.1 comparison from a differential campaign.
func (p *Platform) CompareTiers(res *CampaignResult) (*TierComparison, error) {
	if res == nil {
		return nil, fmt.Errorf("clasp: nil campaign result")
	}
	down := analysis.TierDeltasCursor(res.Cursor(), res.Region, analysis.MetricDownload)
	if len(down) == 0 {
		return nil, fmt.Errorf("clasp: no paired tier measurements (run a differential campaign)")
	}
	up := analysis.TierDeltasCursor(res.Cursor(), res.Region, analysis.MetricUpload)
	cdf, err := analysis.DeltaCDF(down)
	if err != nil {
		return nil, err
	}
	median := 0.0
	for _, pt := range cdf {
		if pt.P >= 0.5 {
			median = pt.X
			break
		}
	}
	return &TierComparison{
		Region:              res.Region,
		StdFasterDownload:   analysis.FractionStandardHigher(down),
		StdFasterUpload:     analysis.FractionStandardHigher(up),
		Within50:            analysis.FractionWithin(down, 0.5),
		MedianDownloadDelta: median,
		PairedTests:         len(down),
	}, nil
}

// WriteTierComparison renders the §4.1 premium-vs-standard summary as text.
func WriteTierComparison(w io.Writer, tc *TierComparison) {
	fmt.Fprintf(w, "Tier comparison for %s over %d paired tests\n", tc.Region, tc.PairedTests)
	fmt.Fprintf(w, "  standard faster: %.1f%% of downloads, %.1f%% of uploads\n",
		tc.StdFasterDownload*100, tc.StdFasterUpload*100)
	fmt.Fprintf(w, "  downloads within 50%%: %.1f%%   median download delta: %+.3f\n",
		tc.Within50*100, tc.MedianDownloadDelta)
}

// Costs reports the accrued simulated cloud bill (egress, storage,
// compute), the constraint that shaped the paper's deployment (§5: over
// USD 6k per month).
func (p *Platform) Costs() (egressUSD, storageUSD, computeUSD float64) {
	c := p.engine.Cloud.Costs()
	return c.EgressUSD, c.StorageUSD, c.ComputeUSD
}
