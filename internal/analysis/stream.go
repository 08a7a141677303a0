package analysis

import (
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// CampaignPrep is the emit-side feeder of the grouping kernel: fed one
// Measurement at a time while a campaign runs, it stages every download
// sample into one grouper per tier, so slot resolution overlaps measurement
// and Finish is left with the scatter and the day split. The views it then
// holds are what GroupSeriesWithServerCursor and congestion.NewPartition
// produce over the finished record stream — same kernel, same values — with
// each sample stored once (a partition references its series' samples).
// Uploads are not grouped: no analysis reads upload series, and a caller
// that does ask takes the record-log path.
//
// Record is called from one goroutine (the emit phase is serial per
// campaign); after Finish, Views is read-only and safe to call from
// concurrent artifact renderers. Record implements the orchestrator sink
// contract, so a prep can be appended to a campaign's sink list and is
// equally fed by a checkpoint replay.
type CampaignPrep struct {
	tiers    []prepTier
	finished bool
}

type prepTier struct {
	tier    bgp.Tier
	staging *grouper // nil once finished: the staged copy is garbage
	series  []SeriesWithServer
	parts   []*congestion.Partition // index-aligned with series
}

// NewCampaignPrep returns an empty prep.
func NewCampaignPrep() *CampaignPrep { return &CampaignPrep{} }

func (p *CampaignPrep) tier(tier bgp.Tier) *prepTier {
	for i := range p.tiers {
		if p.tiers[i].tier == tier {
			return &p.tiers[i]
		}
	}
	return nil
}

// Record stages one measurement into its tier's grouper; anything but a
// download is dropped.
func (p *CampaignPrep) Record(m Measurement) {
	if m.Dir != netsim.Download {
		return
	}
	t := p.tier(m.Tier)
	if t == nil {
		p.tiers = append(p.tiers, prepTier{tier: m.Tier, staging: &grouper{dir: netsim.Download, tier: m.Tier}})
		t = &p.tiers[len(p.tiers)-1]
	}
	t.staging.stage(&m)
}

// Finish builds every tier's series and day partitions from what was
// staged and drops the staging buffers. Idempotent; Record must not be
// called afterwards.
func (p *CampaignPrep) Finish() {
	if p.finished {
		return
	}
	p.finished = true
	for i := range p.tiers {
		t := &p.tiers[i]
		t.series = t.staging.finish()
		t.parts = Partitions(t.series)
		t.staging = nil
	}
}

// Views returns the prepared per-pair series and their index-aligned day
// partitions for a (direction, tier). ok is false when the prep cannot
// answer — it is nil (an over-budget campaign), not finished, or asked for
// a direction it does not group — and the caller runs the same kernel over
// the record log instead. A download tier that saw no record is answered
// (empty), not deferred.
func (p *CampaignPrep) Views(dir netsim.Direction, tier bgp.Tier) (series []SeriesWithServer, parts []*congestion.Partition, ok bool) {
	if p == nil || !p.finished || dir != netsim.Download {
		return nil, nil, false
	}
	if t := p.tier(tier); t != nil {
		return t.series, t.parts, true
	}
	return nil, nil, true
}

// Partitions splits every series into its day partition, index-aligned.
func Partitions(series []SeriesWithServer) []*congestion.Partition {
	parts := make([]*congestion.Partition, len(series))
	for i := range series {
		parts[i] = congestion.NewPartition(series[i].Series)
	}
	return parts
}
