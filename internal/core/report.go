package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/selection"
	"github.com/clasp-measurement/clasp/internal/stats"
)

// Rendering helpers: each Write* function prints one paper artifact as
// aligned text, the form consumed by EXPERIMENTS.md and the CLI's `report`
// subcommand.

// WriteTable1 renders Table 1.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: coverage of topology-based server selection\n")
	fmt.Fprintf(w, "%-14s %12s %18s %12s %10s %10s\n",
		"Region", "pilot links", "US-server links", "measured", "coverage", "shared")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12d %18d %12d %9.1f%% %9.1f%%\n",
			r.Region, r.PilotLinks, r.ServerLinks, r.Measured, r.CoveragePct, r.SharedPct)
	}
}

// WriteFig2 renders the Fig. 2a/2b sweeps as one row per threshold.
func WriteFig2(w io.Writer, series []Fig2Series) {
	fmt.Fprintf(w, "Fig 2: fraction of congested pair-days (a) and pair-hours (b) vs threshold H\n")
	for _, s := range series {
		fmt.Fprintf(w, "region %s (elbow H=%.2f)\n", s.Region, s.ElbowH)
		fmt.Fprintf(w, "  %6s %12s %12s\n", "H", "days", "hours")
		for i := range s.Days {
			fmt.Fprintf(w, "  %6.2f %11.1f%% %11.2f%%\n",
				s.Days[i].H, s.Days[i].Fraction*100, s.Hours[i].Fraction*100)
		}
	}
}

// WriteFig3 renders the annotated two-day series.
func WriteFig3(w io.Writer, d *Fig3Data) {
	fmt.Fprintf(w, "Fig 3: two-day download series %s (congested hours marked *)\n", d.PairID)
	fmt.Fprintf(w, "%-18s %10s %8s\n", "time (UTC)", "Mbps", "VH")
	events := make(map[int64]bool, len(d.Events))
	for _, e := range d.Events {
		events[e.Unix()] = true
	}
	for i, s := range d.Samples {
		at, mark := s.T(), " "
		if events[at.Unix()] {
			mark = "*"
		}
		fmt.Fprintf(w, "%-18s %10.1f %8.2f %s\n", at.Format("01-02 15:04"), s.Mbps, d.VH[i], mark)
	}
}

// WriteFig4 renders one Fig. 4 panel: scatter points plus KDE summaries.
func WriteFig4(w io.Writer, d *Fig4Data) {
	fmt.Fprintf(w, "Fig 4 (%s, %s tier): p95 download vs p5 latency per server-month\n", d.Region, d.Tier)
	fmt.Fprintf(w, "%-8s %-6s %12s %12s %6s\n", "server", "month", "p95 Mbps", "p5 ms", "n")
	for _, p := range d.Points {
		fmt.Fprintf(w, "%-8d %-6s %12.1f %12.1f %6d\n", p.ServerID, p.Month.String()[:3], p.P95Down, p.P5LatMs, p.N)
	}
	var down, lat []float64
	for _, p := range d.Points {
		down = append(down, p.P95Down)
		lat = append(lat, p.P5LatMs)
	}
	dm, _ := stats.PercentileInPlace(down, 50)
	lm, _ := stats.PercentileInPlace(lat, 50)
	fmt.Fprintf(w, "medians: download %.1f Mbps, latency %.1f ms; %d points\n", dm, lm, len(d.Points))
}

// WriteFig5 renders the tier-difference CDFs at decile resolution.
func WriteFig5(w io.Writer, s *Fig5Summary) {
	fmt.Fprintf(w, "Fig 5 (%s): CDFs of relative tier difference (premium - standard)/standard\n", s.Region)
	fmt.Fprintf(w, "standard tier faster in %.1f%% of download pairs; |delta|<0.5 in %.1f%%\n",
		s.StdHigherDownload*100, s.Within50*100)
	for _, c := range s.Curves {
		fmt.Fprintf(w, "  metric=%s class=%s n=%d:", c.Metric, c.Class, c.N)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			fmt.Fprintf(w, "  p%.0f=%+.2f", q*100, quantileOfCDF(c.CDF, q))
		}
		fmt.Fprintln(w)
	}
}

// quantileOfCDF inverts an empirical CDF at probability q.
func quantileOfCDF(cdf []stats.CDFPoint, q float64) float64 {
	for _, p := range cdf {
		if p.P >= q {
			return p.X
		}
	}
	if len(cdf) == 0 {
		return 0
	}
	return cdf[len(cdf)-1].X
}

// WriteFig6 renders hourly congestion probabilities.
func WriteFig6(w io.Writer, title string, lines []Fig6Line) {
	fmt.Fprintf(w, "Fig 6 (%s): hourly congestion probability, server-local time\n", title)
	for _, l := range lines {
		fmt.Fprintf(w, "%-44s (%s, %d events)\n   ", l.Label, l.Tier, l.Events)
		for h := 0; h < 24; h++ {
			fmt.Fprintf(w, "%4.2f ", l.Probs[h])
		}
		fmt.Fprintln(w)
	}
}

// WriteFig7 renders map markers.
func WriteFig7(w io.Writer, pts []Fig7Point) {
	fmt.Fprintf(w, "Fig 7: locations of cloud regions and selected servers\n")
	fmt.Fprintf(w, "%-14s %-13s %8s %9s  %s\n", "region", "kind", "lat", "lon", "label")
	for _, p := range pts {
		fmt.Fprintf(w, "%-14s %-13s %8.2f %9.2f  %s\n", p.Region, p.Kind, p.Lat, p.Lon, p.Label)
	}
}

// WriteFig8 renders business-type congestion counts.
func WriteFig8(w io.Writer, region string, rows []analysis.Fig8Row) {
	fmt.Fprintf(w, "Fig 8 (%s): congested / total servers by business type\n", region)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %3d congested / %3d total\n", r.Type, r.Congested, r.Total)
	}
}

// WriteHeadlines renders the four §1 findings with the paper's bands.
func WriteHeadlines(w io.Writer, h Headlines) {
	fmt.Fprintf(w, "Headline findings (paper band in parentheses):\n")
	fmt.Fprintf(w, "  congested pair-hours at H=0.5:   %5.2f%%  (paper 1.3-3%%)\n", h.CongestedHourFrac*100)
	fmt.Fprintf(w, "  ISPs congested >10%% of days:     %5.1f%%  (paper 30-70%%)\n", h.CongestedISPFrac*100)
	fmt.Fprintf(w, "  p95 download in 200-600 Mbps:    %5.1f%%  (paper ~80%%)\n", h.P95DownIn200600*100)
	fmt.Fprintf(w, "  standard tier faster (download): %5.1f%%  (paper: generally higher)\n", h.StdTierHigherFrac*100)
}

// WriteDifferentialSelection renders the chosen differential servers.
func WriteDifferentialSelection(w io.Writer, region string, sel []selection.DiffSelected) {
	fmt.Fprintf(w, "Differential-based selection (%s): %d servers\n", region, len(sel))
	sorted := append([]selection.DiffSelected(nil), sel...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Server.ID < sorted[j].Server.ID })
	for _, s := range sorted {
		fmt.Fprintf(w, "  %-38s %-16s class=%-14s delta=%+.0fms\n",
			s.Server.Host, s.Server.City+"/"+s.Server.Country, s.Class, s.DeltaMs)
	}
}

// Separator prints a section divider for multi-artifact reports.
func Separator(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
