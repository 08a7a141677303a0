// Congestion walks through the §3.3 detection pipeline on a single ISP:
// the Cox (Las Vegas) server the paper highlights in Fig. 3. It measures
// the pair hourly for 30 days, sweeps the variability threshold H
// (Fig. 2), locates the elbow, and prints the annotated two-day series
// with congested hours highlighted.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"

	clasp "github.com/clasp-measurement/clasp"
)

func main() {
	p, err := clasp.New(clasp.Options{Seed: 11, Scale: 0.15})
	if err != nil {
		log.Fatal(err)
	}
	eng := p.Engine()

	// Find the paper's example pair: Cox in Las Vegas, measured from
	// us-west1.
	var cox *topology.Server
	for _, s := range eng.Topo.Servers() {
		if s.ASN == 22773 && s.City == "Las Vegas" {
			cox = s
			break
		}
	}
	if cox == nil {
		log.Fatal("no Cox Las Vegas server in this topology")
	}
	fmt.Printf("measuring %s (AS%d, %s) from us-west1, hourly for 30 days\n\n",
		cox.Host, cox.ASN, cox.City)

	// Measure directly through the simulator (the orchestrator wraps
	// this; here we drive the pair by hand to show the lower-level API).
	series := congestion.Series{PairID: "us-west1/" + cox.Host}
	start := core.CampaignStart
	for h := 0; h < 30*24; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		res, err := eng.Sim.Measure(netsim.TestSpec{
			Region: "us-west1", Server: cox, Tier: bgp.Premium,
			Dir: netsim.Download, Time: at,
		})
		if err != nil {
			log.Fatal(err)
		}
		series.Samples = append(series.Samples, congestion.Sample{Unix: at.UnixNano(), Mbps: res.ThroughputMbps})
	}

	// Fig. 2-style sweep over this single pair.
	hs := core.DefaultThresholdGrid()
	daySweep := congestion.SweepDaysPartitioned(congestion.Partitions([]congestion.Series{series}), hs, 0)
	fmt.Println("threshold sweep (fraction of congested days):")
	for _, pt := range daySweep {
		bar := ""
		for i := 0; i < int(pt.Fraction*40); i++ {
			bar += "#"
		}
		fmt.Printf("  H=%.2f %6.1f%% %s\n", pt.H, pt.Fraction*100, bar)
	}
	if elbow, err := congestion.ElbowThreshold(daySweep); err == nil {
		fmt.Printf("elbow of the curve: H = %.2f (the paper chose 0.5)\n\n", elbow)
	}

	// Label events at H = 0.5 and show the first congested two-day window
	// (the Fig. 3 view).
	det := congestion.NewDetector()
	events := det.Events(series)
	fmt.Printf("events at H=0.5: %d congested hours over %d days\n", len(events), 30)
	if len(events) == 0 {
		fmt.Println("no events — try another seed")
		return
	}
	firstDay := events[0].Truncate(24 * time.Hour)
	window := congestion.Series{PairID: series.PairID}
	var vh []float64
	dayMax := map[int]float64{}
	for _, s := range series.Samples {
		if t := s.T(); t.Before(firstDay) || !t.Before(firstDay.Add(48*time.Hour)) {
			continue
		}
		window.Samples = append(window.Samples, s)
	}
	for _, s := range window.Samples {
		d := congestion.DayOf(s.Unix)
		if s.Mbps > dayMax[d] {
			dayMax[d] = s.Mbps
		}
	}
	for _, s := range window.Samples {
		d := congestion.DayOf(s.Unix)
		vh = append(vh, (dayMax[d]-s.Mbps)/dayMax[d])
	}
	core.WriteFig3(os.Stdout, &core.Fig3Data{
		PairID:  window.PairID,
		Samples: window.Samples,
		VH:      vh,
		Events:  det.Events(window),
	})
}
