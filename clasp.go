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
//	plan, err := p.Engine().PlanTopologyCampaign("us-west1", 30)
//	res, err := p.Engine().RunPlanned(plan)
//	rep, err := p.CongestionReport(res)
package clasp

import (
	"cmp"
	"fmt"
	"io"
	"slices"

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

// New creates a platform, defaulting and validating opts; its error is
// core.New's.
func New(opts Options) (*Platform, error) {
	eng, err := core.New(opts)
	if err != nil {
		return nil, err
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

// RunTopologyCampaigns runs the topology-based campaign in several regions
// concurrently, one goroutine per region over the shared substrate — the
// paper's actual deployment shape — for what the runs leave behind: the
// VM-hours billed to the platform, and the checkpoints under
// Options.CheckpointDir. Each region's records are identical to running its
// campaign alone with the same seed. The engine must have a command
// scheduler attached (core.CLASP.NewCommandScheduler).
func (p *Platform) RunTopologyCampaigns(regions []string, days int) error {
	return p.engine.RunTopologyCampaigns(regions, days)
}

// PairSummary describes one measured VM-server pair in a congestion report.
type PairSummary struct {
	PairID        string
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
// measurements (premium tier). Each series' day partition is shared by
// every renderer of the campaign and holds its verdict, built in one pass
// on first use and cached, so the report reads integer tallies and folds
// them in series order — bit-identical at any parallelism (pinned by
// TestCongestionReportGolden).
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
	rep := &CongestionReport{Region: res.Region, Pairs: make([]PairSummary, 0, len(withServer))}
	// Campaign-wide fractions fold the per-series integer tallies and divide
	// once, so they are identical to the serial reference in golden_test.go.
	var dTot, dCong, hTot, hCong int
	for i, part := range parts {
		v := part.Verdict(det.H)
		var hourCount [24]int
		if srv := p.engine.Topo.Server(withServer[i].ServerID); srv != nil {
			if city, ok := p.engine.Topo.CityOf(srv.City); ok {
				for h, n := range v.HourEvents {
					hourCount[city.LocalHour(h)] += n
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
		rep.Pairs = append(rep.Pairs, PairSummary{
			PairID:        withServer[i].Series.PairID,
			Days:          v.Days,
			CongestedDays: v.EventDays,
			Events:        v.Events,
			PeakHourLocal: peak,
		})
		dTot += v.Days
		dCong += v.CongestedDays
		hTot += v.Hours
		hCong += v.Events
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

// sortPairs orders a report's pairs by events, most first, then by pair
// ID; a pair ID is unique within a report, so the order is total.
func sortPairs(pairs []PairSummary) {
	slices.SortFunc(pairs, func(a, b PairSummary) int {
		return cmp.Or(cmp.Compare(b.Events, a.Events), cmp.Compare(a.PairID, b.PairID))
	})
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
	each := analysis.TierDeltasEach(res.Log.Cursors(p.engine.Opts.Parallelism), res.Region, analysis.MetricDownload, analysis.MetricUpload)
	down, up := each[analysis.MetricDownload], each[analysis.MetricUpload]
	if len(down) == 0 {
		return nil, fmt.Errorf("clasp: no paired tier measurements (run a differential campaign)")
	}
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
		Within50:            analysis.FractionWithin(down),
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
