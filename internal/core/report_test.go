package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/selection"
	"github.com/clasp-measurement/clasp/internal/stats"
	"github.com/clasp-measurement/clasp/internal/topology"
)

func TestWriteTable1(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf, []Table1Row{
		{Region: "us-west1", PilotLinks: 6132, ServerLinks: 434, Measured: 106, CoveragePct: 24.4, SharedPct: 84.6},
	})
	out := buf.String()
	for _, want := range []string{"us-west1", "6132", "434", "106", "24.4%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFig2(t *testing.T) {
	var buf bytes.Buffer
	WriteFig2(&buf, []Fig2Series{{
		Region: "us-east1",
		ElbowH: 0.45,
		Days:   []congestion.SweepPoint{{H: 0.25, Fraction: 0.8}, {H: 0.5, Fraction: 0.2}},
		Hours:  []congestion.SweepPoint{{H: 0.25, Fraction: 0.1}, {H: 0.5, Fraction: 0.02}},
	}})
	out := buf.String()
	if !strings.Contains(out, "us-east1") || !strings.Contains(out, "0.45") {
		t.Errorf("fig2 rendering:\n%s", out)
	}
	if !strings.Contains(out, "80.0%") || !strings.Contains(out, "2.00%") {
		t.Errorf("fig2 fractions missing:\n%s", out)
	}
}

func TestWriteFig3MarksEvents(t *testing.T) {
	t0 := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	d := &Fig3Data{
		PairID: "pair",
		Samples: []congestion.Sample{
			{Unix: t0.UnixNano(), Mbps: 400},
			{Unix: t0.Add(time.Hour).UnixNano(), Mbps: 50},
		},
		VH:     []float64{0, 0.875},
		Events: []time.Time{t0.Add(time.Hour)},
	}
	var buf bytes.Buffer
	WriteFig3(&buf, d)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, "*") {
		t.Errorf("congested hour not starred: %q", last)
	}
	if strings.HasSuffix(lines[len(lines)-2], "*") {
		t.Errorf("clean hour starred: %q", lines[len(lines)-2])
	}
}

func TestWriteFig4(t *testing.T) {
	var buf bytes.Buffer
	WriteFig4(&buf, &Fig4Data{
		Region: "us-west1", Tier: bgp.Premium,
		Points: []analysis.PerfPoint{{ServerID: 3, Month: time.May, P95Down: 312.5, P5LatMs: 41.2, N: 700}},
	})
	out := buf.String()
	if !strings.Contains(out, "312.5") || !strings.Contains(out, "41.2") || !strings.Contains(out, "May") {
		t.Errorf("fig4 rendering:\n%s", out)
	}
}

func TestWriteFig5AndQuantile(t *testing.T) {
	cdf := []stats.CDFPoint{{X: -0.4, P: 0.25}, {X: -0.1, P: 0.5}, {X: 0.2, P: 1}}
	if q := quantileOfCDF(cdf, 0.5); q != -0.1 {
		t.Errorf("quantile = %v", q)
	}
	if q := quantileOfCDF(cdf, 0.99); q != 0.2 {
		t.Errorf("tail quantile = %v", q)
	}
	if q := quantileOfCDF(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	var buf bytes.Buffer
	WriteFig5(&buf, &Fig5Summary{
		Region:            "europe-west1",
		StdHigherDownload: 0.8,
		Within50:          0.9,
		Curves:            []Fig5Curve{{Metric: analysis.MetricDownload, Class: selection.Comparable, CDF: cdf, N: 3}},
	})
	out := buf.String()
	if !strings.Contains(out, "80.0%") || !strings.Contains(out, "comparable") {
		t.Errorf("fig5 rendering:\n%s", out)
	}
}

func TestWriteFig6(t *testing.T) {
	var probs [24]float64
	probs[21] = 0.12
	var buf bytes.Buffer
	WriteFig6(&buf, "us-west1", []Fig6Line{{Label: "<Las Vegas><Cox AS22773>", Tier: bgp.Premium, Events: 40, Probs: probs}})
	out := buf.String()
	if !strings.Contains(out, "Cox") || !strings.Contains(out, "0.12") {
		t.Errorf("fig6 rendering:\n%s", out)
	}
}

func TestWriteFig7AndFig8(t *testing.T) {
	var buf bytes.Buffer
	WriteFig7(&buf, []Fig7Point{{Region: "us-west1", Kind: "region", Label: "The Dalles", Lat: 45.59, Lon: -121.18}})
	if !strings.Contains(buf.String(), "The Dalles") {
		t.Errorf("fig7 rendering:\n%s", buf.String())
	}
	buf.Reset()
	WriteFig8(&buf, "us-east1", []analysis.Fig8Row{{Region: "us-east1", Type: topology.BizISP, Congested: 5, Total: 10}})
	if !strings.Contains(buf.String(), "ISP") || !strings.Contains(buf.String(), "5 congested") {
		t.Errorf("fig8 rendering:\n%s", buf.String())
	}
}

func TestWriteHeadlinesAndSeparator(t *testing.T) {
	var buf bytes.Buffer
	WriteHeadlines(&buf, Headlines{
		CongestedHourFrac: 0.02, CongestedISPFrac: 0.5,
		P95DownIn200600: 0.8, StdTierHigherFrac: 0.7,
	})
	out := buf.String()
	if !strings.Contains(out, "2.00%") || !strings.Contains(out, "50.0%") {
		t.Errorf("headlines rendering:\n%s", out)
	}
	buf.Reset()
	Separator(&buf, "fig2")
	if !strings.Contains(buf.String(), "====") {
		t.Errorf("separator rendering:\n%s", buf.String())
	}
}
