// Package cloud is the GCP-like substrate CLASP orchestrates: regions and
// zones, VM lifecycle with machine types and network tiers, object-storage
// buckets, and egress/storage/VM billing. The paper's deployment decisions
// (asymmetric tc caps, per-region VM counts, one storage bucket colocated
// with the analysis VM) are all driven by the cost model this package
// implements.
//
// Platform and Bucket are safe for concurrent use: VM lifecycle, bucket
// operations, and the egress/compute/storage accounting are all guarded by
// internal mutexes, so concurrent regional campaigns can share one
// Platform and one artifact Bucket.
package cloud

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// Billing telemetry (see DESIGN.md §8): egress bytes metered per network
// tier, mirroring the asymmetric premium/standard billing the paper's
// deployment budget is built around.
var obsEgressBytes = map[bgp.Tier]*obs.Counter{
	bgp.Premium:  obs.Default().Counter("cloud_egress_bytes_total", "tier", "premium"),
	bgp.Standard: obs.Default().Counter("cloud_egress_bytes_total", "tier", "standard"),
}

// Fault telemetry: injected control-plane rejections and VM preemptions.
var (
	obsCreateFaults = obs.Default().Counter("cloud_vm_create_faults_total")
	obsPreemptions  = obs.Default().Counter("cloud_vm_preemptions_total")
)

// VMFaults injects control-plane failures into the platform. The campaign
// fault injector (internal/faults) implements it; decisions must be
// deterministic in (name, attempt). A nil injector disables the fault path
// entirely.
type VMFaults interface {
	FailVMCreate(name string, attempt int) error
}

// MachineType describes a VM shape.
type MachineType struct {
	Name       string
	VCPUs      int
	MemGB      float64
	EgressGbps float64 // NIC egress cap before tc shaping
	HourlyUSD  float64
}

// N1Standard2 is the machine type the paper used (§3.2).
var N1Standard2 = MachineType{Name: "n1-standard-2", VCPUs: 2, MemGB: 7.5, EgressGbps: 10, HourlyUSD: 0.095}

// VMState is a VM lifecycle state.
type VMState int

// VM lifecycle states.
const (
	VMRunning VMState = iota
	VMTerminated
)

// VMSpec is a VM creation request.
type VMSpec struct {
	Name   string
	Region string
	Zone   string // empty picks a zone round-robin
	Type   MachineType
	Tier   bgp.Tier
	Labels map[string]string
}

// VM is a provisioned instance.
type VM struct {
	VMSpec
	IP      netip.Addr
	Created time.Time
	State   VMState
}

// Pricing is the billing rate card (USD).
type Pricing struct {
	EgressPremiumPerGB  float64
	EgressStandardPerGB float64
	StoragePerGBMonth   float64
}

// DefaultPricing approximates GCP's 2020 rate card.
func DefaultPricing() Pricing {
	return Pricing{
		EgressPremiumPerGB:  0.11,
		EgressStandardPerGB: 0.085,
		StoragePerGBMonth:   0.020,
	}
}

// Platform is the cloud control plane.
type Platform struct {
	topo    *topology.Topology
	sim     *netsim.Sim
	pricing Pricing

	mu             sync.Mutex
	vms            map[string]*VM
	buckets        map[string]*Bucket
	zoneNext       map[string]int
	egressGB       map[bgp.Tier]float64
	computeUSD     float64
	vmFaults       VMFaults
	createAttempts map[string]int
}

// New creates a platform over the topology and simulator.
func New(topo *topology.Topology, sim *netsim.Sim, pricing Pricing) *Platform {
	if pricing == (Pricing{}) {
		pricing = DefaultPricing()
	}
	return &Platform{
		topo:           topo,
		sim:            sim,
		pricing:        pricing,
		vms:            make(map[string]*VM),
		buckets:        make(map[string]*Bucket),
		zoneNext:       make(map[string]int),
		egressGB:       make(map[bgp.Tier]float64),
		createAttempts: make(map[string]int),
	}
}

// SetVMFaults installs (or, with nil, removes) a control-plane fault
// injector. Campaigns sharing one Platform must install the same injector
// — the orchestrator does this from the campaign profile, and core gives
// every campaign of a platform the same profile and seed, so concurrent
// installs are idempotent.
func (p *Platform) SetVMFaults(f VMFaults) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.vmFaults = f
}

// CreateVM provisions a VM, spreading unspecified zones across the region
// round-robin (the paper balanced measurement VMs across zones).
func (p *Platform) CreateVM(spec VMSpec, at time.Time) (*VM, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("cloud: VM name required")
	}
	region, ok := p.topo.Region(spec.Region)
	if !ok {
		return nil, fmt.Errorf("cloud: unknown region %q", spec.Region)
	}
	if spec.Type.Name == "" {
		spec.Type = N1Standard2
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.vms[spec.Name]; dup {
		return nil, fmt.Errorf("cloud: VM %q already exists", spec.Name)
	}
	// Injected control-plane rejection. Checked before the zone pick so a
	// failed attempt consumes no round-robin slot; attempts are counted per
	// name (sequential per caller retry loop) and reset on success, keeping
	// the fault sequence deterministic for a given seed.
	if p.vmFaults != nil {
		attempt := p.createAttempts[spec.Name]
		p.createAttempts[spec.Name] = attempt + 1
		if err := p.vmFaults.FailVMCreate(spec.Name, attempt); err != nil {
			obsCreateFaults.Inc()
			return nil, fmt.Errorf("cloud: creating VM %q: %w", spec.Name, err)
		}
		delete(p.createAttempts, spec.Name)
	}
	zoneIdx := 0
	if spec.Zone == "" {
		zoneIdx = p.zoneNext[spec.Region] % len(region.Zones)
		p.zoneNext[spec.Region]++
		spec.Zone = region.Zones[zoneIdx]
	} else {
		found := false
		for i, z := range region.Zones {
			if z == spec.Zone {
				zoneIdx, found = i, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cloud: zone %q not in region %q", spec.Zone, spec.Region)
		}
	}
	vm := &VM{
		VMSpec:  spec,
		IP:      p.sim.VMAddr(spec.Region, zoneIdx, len(p.vms)),
		Created: at,
		State:   VMRunning,
	}
	p.vms[spec.Name] = vm
	return vm, nil
}

// DeleteVM terminates and removes a VM, accruing its runtime hours.
func (p *Platform) DeleteVM(name string, at time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	vm, ok := p.vms[name]
	if !ok {
		return fmt.Errorf("cloud: VM %q not found", name)
	}
	if vm.State == VMRunning {
		if hours := at.Sub(vm.Created).Hours(); hours > 0 {
			p.computeUSD += hours * vm.Type.HourlyUSD
		}
	}
	vm.State = VMTerminated
	delete(p.vms, name)
	return nil
}

// Preempt terminates a running VM out from under its owner — the simulated
// equivalent of a GCP preemption or host maintenance event. Like DeleteVM
// it accrues the VM's runtime cost and frees the name for re-creation, but
// it also counts the event so resilience accounting can distinguish
// planned teardown from failure.
func (p *Platform) Preempt(name string, at time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	vm, ok := p.vms[name]
	if !ok {
		return fmt.Errorf("cloud: VM %q not found", name)
	}
	if hours := at.Sub(vm.Created).Hours(); hours > 0 {
		p.computeUSD += hours * vm.Type.HourlyUSD
	}
	vm.State = VMTerminated
	delete(p.vms, name)
	obsPreemptions.Inc()
	return nil
}

// CreateAttempts returns a copy of the per-name CreateVM attempt counters.
// The counters are the only fault-injection state the control plane keeps
// (FailVMCreate keys on (name, attempt), and a failed creation leaves its
// counter behind for the next retry), so the campaign checkpoint persists
// them: a resumed run restores the counters and every post-resume creation
// draws the same injected decision the uninterrupted run would have.
func (p *Platform) CreateAttempts() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.createAttempts) == 0 {
		return nil
	}
	out := make(map[string]int, len(p.createAttempts))
	for k, v := range p.createAttempts {
		out[k] = v
	}
	return out
}

// RestoreCreateAttempts replaces the per-name CreateVM attempt counters
// with a snapshot taken by CreateAttempts — the resume half of the
// checkpoint contract.
func (p *Platform) RestoreCreateAttempts(m map[string]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.createAttempts = make(map[string]int, len(m))
	for k, v := range m {
		p.createAttempts[k] = v
	}
}

// ListVMs returns VMs, optionally filtered by region, sorted by name.
func (p *Platform) ListVMs(region string) []*VM {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*VM
	for _, vm := range p.vms {
		if region == "" || vm.Region == region {
			out = append(out, vm)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RecordEgress meters bytes leaving the cloud from a VM (uploads and test
// traffic toward the Internet). GCP charges egress only (§3.2's rationale
// for the asymmetric caps).
func (p *Platform) RecordEgress(tier bgp.Tier, bytes int64) {
	if c := obsEgressBytes[tier]; c != nil && bytes > 0 {
		c.Add(uint64(bytes))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.egressGB[tier] += float64(bytes) / 1e9
}

// AccrueVMHours adds running-time cost for a set of VMs over a duration
// (used by the orchestrator's virtual clock instead of wall time).
func (p *Platform) AccrueVMHours(vmCount int, d time.Duration, t MachineType) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.computeUSD += float64(vmCount) * d.Hours() * t.HourlyUSD
}

// Costs summarises accrued spend.
type Costs struct {
	EgressUSD  float64
	StorageUSD float64
	ComputeUSD float64
}

// Costs returns the current bill.
func (p *Platform) Costs() Costs {
	p.mu.Lock()
	defer p.mu.Unlock()
	var c Costs
	c.EgressUSD = p.egressGB[bgp.Premium]*p.pricing.EgressPremiumPerGB +
		p.egressGB[bgp.Standard]*p.pricing.EgressStandardPerGB
	var storageGB float64
	for _, b := range p.buckets {
		storageGB += float64(b.Size()) / 1e9
	}
	c.StorageUSD = storageGB * p.pricing.StoragePerGBMonth
	c.ComputeUSD = p.computeUSD
	return c
}

// --- Object storage -----------------------------------------------------------

// Object is one stored blob with metadata.
type Object struct {
	Key     string
	Data    []byte
	Updated time.Time
}

// Bucket is an object-storage bucket pinned to a region.
type Bucket struct {
	Name   string
	Region string

	mu      sync.Mutex
	objects map[string]Object
}

// CreateBucket makes a bucket in a region.
func (p *Platform) CreateBucket(name, region string) (*Bucket, error) {
	if _, ok := p.topo.Region(region); !ok {
		return nil, fmt.Errorf("cloud: unknown region %q", region)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.buckets[name]; dup {
		return nil, fmt.Errorf("cloud: bucket %q already exists", name)
	}
	b := &Bucket{Name: name, Region: region, objects: make(map[string]Object)}
	p.buckets[name] = b
	return b, nil
}

// Put stores an object (copying data).
func (b *Bucket) Put(key string, data []byte, at time.Time) error {
	if key == "" {
		return fmt.Errorf("cloud: empty object key")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.objects[key] = Object{Key: key, Data: cp, Updated: at}
	return nil
}

// Get fetches an object's data.
func (b *Bucket) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.objects[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(o.Data))
	copy(cp, o.Data)
	return cp, true
}

// List returns object keys with the given prefix, sorted.
func (b *Bucket) List(prefix string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Size returns the total stored bytes.
func (b *Bucket) Size() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sizeLocked()
}

func (b *Bucket) sizeLocked() int64 {
	var n int64
	for _, o := range b.objects {
		n += int64(len(o.Data))
	}
	return n
}
