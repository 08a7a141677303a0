// Tiercompare reproduces the paper's §4.1 premium-vs-standard experiment:
// a differential-based server selection for europe-west1, a two-tier
// campaign with paired same-hour tests, and the relative-difference
// analysis behind Fig. 5 — including identification of the lossy
// premium-tier targets.
package main

import (
	"fmt"
	"log"
	"os"

	clasp "github.com/clasp-measurement/clasp"
	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/core"
)

func main() {
	p, err := clasp.New(clasp.Options{Seed: 7, Scale: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	eng := p.Engine()

	// The preliminary Speedchecker-style scan and the differential
	// selection. The tuple-sample threshold scales with the platform
	// (the paper's >=100 rule assumes the full VP population).
	const minSamples = 25
	region := "europe-west1"
	plan, err := eng.PlanDifferentialCampaign(region, 21, minSamples)
	if err != nil {
		log.Fatal(err)
	}
	selected := plan.DiffSel
	res, err := eng.RunPlanned(plan)
	if err != nil {
		log.Fatal(err)
	}
	core.WriteDifferentialSelection(os.Stdout, region, selected)

	// Fig. 5: CDFs of relative difference per metric and latency class.
	fig5, err := core.Fig5(res, selected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	core.WriteFig5(os.Stdout, fig5)

	// The paper's headline: the standard tier is generally faster but
	// noisier, traced to loss on premium egress interconnects.
	cmp, err := p.CompareTiers(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstandard tier faster: %.0f%% of download pairs, %.0f%% of upload pairs\n",
		cmp.StdFasterDownload*100, cmp.StdFasterUpload*100)
	fmt.Printf("median download delta (prem-std)/std: %+.2f; |delta|<0.5 in %.0f%%\n",
		cmp.MedianDownloadDelta, cmp.Within50*100)

	lossy := analysis.PremiumLossTargetsCursor(res.Cursor(), region)
	fmt.Printf("\npremium-tier targets with persistent loss (> 2%% mean):\n")
	for _, l := range lossy {
		srv := eng.Topo.Server(l.ServerID)
		fmt.Printf("  %-38s mean loss %.1f%% over %d tests\n", srv.Host, l.MeanLoss*100, l.N)
	}
	if len(lossy) == 0 {
		fmt.Println("  (none at this scale/seed)")
	}
}
