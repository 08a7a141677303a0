// Quickstart: bring up a reduced-scale CLASP platform, run a two-week
// topology-based campaign from us-west1, and print the congestion report —
// the minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"log"
	"os"

	clasp "github.com/clasp-measurement/clasp"
)

func main() {
	// A quarter-scale synthetic Internet keeps the quickstart fast while
	// preserving the structure of the full platform (~1.5k interdomain
	// links per region, ~350 US test servers). Parallelism fans each
	// hourly round across 4 concurrent VM workers; the results are
	// bit-identical to a sequential run with the same seed.
	p, err := clasp.New(clasp.Options{Seed: 42, Scale: 0.25, Parallelism: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regions: %v\n", p.Regions())

	// Select servers with the topology-based method (the plan), then
	// measure each one hourly for 14 virtual days over the premium tier.
	eng := p.Engine()
	plan, err := eng.PlanTopologyCampaign("us-west1", 14)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunPlanned(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d servers, %d tests, %d measurement VMs\n",
		len(res.Selected), res.Report.Tests, res.Report.VMs)

	// Detect diurnal congestion with the paper's V > 0.5 threshold.
	rep, err := p.CongestionReport(res)
	if err != nil {
		log.Fatal(err)
	}
	clasp.WriteReport(os.Stdout, rep)

	egress, storage, compute := p.Costs()
	fmt.Printf("\nsimulated bill: egress $%.2f, storage $%.2f, compute $%.2f\n",
		egress, storage, compute)
}
