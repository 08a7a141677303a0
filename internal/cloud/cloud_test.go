package cloud

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
)

func setup(t *testing.T) *Platform {
	t.Helper()
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, nil, netsim.Config{Seed: 2})
	return New(topo, sim, Pricing{})
}

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func TestVMLifecycle(t *testing.T) {
	p := setup(t)
	vm, err := p.CreateVM(VMSpec{Name: "meas-1", Region: "us-west1", Tier: bgp.Premium}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Type.Name != "n1-standard-2" {
		t.Errorf("default machine type = %q", vm.Type.Name)
	}
	if !vm.IP.IsValid() {
		t.Error("VM has no IP")
	}
	if vm.Zone == "" {
		t.Error("zone not assigned")
	}
	if got := p.ListVMs(""); len(got) != 1 || got[0] != vm {
		t.Error("created VM not listed")
	}
	if err := p.DeleteVM("meas-1", t0.Add(48*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(p.ListVMs("")) != 0 {
		t.Error("deleted VM still present")
	}
	// Two days of n1-standard-2 accrued.
	c := p.Costs()
	want := 48 * N1Standard2.HourlyUSD
	if c.ComputeUSD < want*0.99 || c.ComputeUSD > want*1.01 {
		t.Errorf("compute cost = %v, want ~%v", c.ComputeUSD, want)
	}
}

func TestVMZoneSpreading(t *testing.T) {
	p := setup(t)
	zones := make(map[string]int)
	for i := 0; i < 6; i++ {
		vm, err := p.CreateVM(VMSpec{Name: string(rune('a' + i)), Region: "us-east1"}, t0)
		if err != nil {
			t.Fatal(err)
		}
		zones[vm.Zone]++
	}
	if len(zones) != 3 {
		t.Errorf("VMs spread over %d zones, want 3", len(zones))
	}
	for z, n := range zones {
		if n != 2 {
			t.Errorf("zone %s has %d VMs, want 2", z, n)
		}
	}
}

func TestVMErrors(t *testing.T) {
	p := setup(t)
	if _, err := p.CreateVM(VMSpec{Region: "us-west1"}, t0); err == nil {
		t.Error("nameless VM created")
	}
	if _, err := p.CreateVM(VMSpec{Name: "x", Region: "atlantis"}, t0); err == nil {
		t.Error("unknown region accepted")
	}
	if _, err := p.CreateVM(VMSpec{Name: "x", Region: "us-west1", Zone: "us-east1-a"}, t0); err == nil {
		t.Error("foreign zone accepted")
	}
	if _, err := p.CreateVM(VMSpec{Name: "dup", Region: "us-west1"}, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateVM(VMSpec{Name: "dup", Region: "us-west1"}, t0); err == nil {
		t.Error("duplicate VM accepted")
	}
	if err := p.DeleteVM("ghost", t0); err == nil {
		t.Error("deleting missing VM succeeded")
	}
}

func TestListVMs(t *testing.T) {
	p := setup(t)
	p.CreateVM(VMSpec{Name: "b", Region: "us-west1"}, t0)
	p.CreateVM(VMSpec{Name: "a", Region: "us-west1"}, t0)
	p.CreateVM(VMSpec{Name: "c", Region: "us-east1"}, t0)
	west := p.ListVMs("us-west1")
	if len(west) != 2 || west[0].Name != "a" || west[1].Name != "b" {
		t.Errorf("ListVMs(us-west1) = %v", west)
	}
	if len(p.ListVMs("")) != 3 {
		t.Error("ListVMs all broken")
	}
}

func TestBucketOperations(t *testing.T) {
	p := setup(t)
	b, err := p.CreateBucket("clasp-data", "us-east1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateBucket("clasp-data", "us-east1"); err == nil {
		t.Error("duplicate bucket accepted")
	}
	if _, err := p.CreateBucket("x", "atlantis"); err == nil {
		t.Error("bucket in unknown region accepted")
	}
	if err := b.Put("", []byte("x"), t0); err == nil {
		t.Error("empty key accepted")
	}
	data := []byte("pcap bytes")
	if err := b.Put("us-east1/2020-05-01/test1.pcap", data, t0); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // must not affect the stored copy
	got, ok := b.Get("us-east1/2020-05-01/test1.pcap")
	if !ok || string(got) != "pcap bytes" {
		t.Errorf("Get = %q ok=%v", got, ok)
	}
	got[1] = 'Y'
	again, _ := b.Get("us-east1/2020-05-01/test1.pcap")
	if string(again) != "pcap bytes" {
		t.Error("Get exposes internal buffer")
	}
	b.Put("us-east1/2020-05-02/test2.pcap", []byte("more"), t0)
	b.Put("us-west1/other", []byte("x"), t0)
	keys := b.List("us-east1/")
	if len(keys) != 2 || keys[0] > keys[1] {
		t.Errorf("List = %v", keys)
	}
	if b.Size() != int64(len("pcap bytes")+len("more")+1) {
		t.Errorf("Size = %d", b.Size())
	}
}

func TestEgressBilling(t *testing.T) {
	p := setup(t)
	// 100 GB premium + 100 GB standard.
	p.RecordEgress(bgp.Premium, 100e9)
	p.RecordEgress(bgp.Standard, 100e9)
	c := p.Costs()
	want := 100*0.11 + 100*0.085
	if c.EgressUSD < want-0.01 || c.EgressUSD > want+0.01 {
		t.Errorf("egress cost = %v, want %v", c.EgressUSD, want)
	}
}

func TestAccrueVMHours(t *testing.T) {
	p := setup(t)
	p.AccrueVMHours(10, 24*time.Hour, N1Standard2)
	c := p.Costs()
	want := 10 * 24 * N1Standard2.HourlyUSD
	if c.ComputeUSD < want*0.99 || c.ComputeUSD > want*1.01 {
		t.Errorf("compute = %v, want %v", c.ComputeUSD, want)
	}
}

// TestConcurrentAccounting exercises the billing and bucket paths from many
// goroutines at once; -race verifies the locking, the final sums verify no
// update was dropped.
func TestConcurrentAccounting(t *testing.T) {
	p := setup(t)
	b, err := p.CreateBucket("data", "us-east1")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, ops = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				p.RecordEgress(bgp.Premium, 1e9)
				p.AccrueVMHours(1, time.Hour, N1Standard2)
				key := fmt.Sprintf("g%d/obj%d", g, i)
				b.Put(key, []byte("x"), t0)
				b.Get(key)
				p.Costs()
			}
		}(g)
	}
	wg.Wait()
	c := p.Costs()
	wantEgress := float64(goroutines*ops) * 0.11 // 1 GB premium per op
	if c.EgressUSD < wantEgress*0.999 || c.EgressUSD > wantEgress*1.001 {
		t.Errorf("egress = %v, want ~%v", c.EgressUSD, wantEgress)
	}
	wantCompute := float64(goroutines*ops) * N1Standard2.HourlyUSD
	if c.ComputeUSD < wantCompute*0.999 || c.ComputeUSD > wantCompute*1.001 {
		t.Errorf("compute = %v, want ~%v", c.ComputeUSD, wantCompute)
	}
	if got := len(b.List("")); got != goroutines*ops {
		t.Errorf("bucket objects = %d, want %d", got, goroutines*ops)
	}
}

func TestStorageBilling(t *testing.T) {
	p := setup(t)
	b, _ := p.CreateBucket("data", "us-east1")
	blob := make([]byte, 1e6)
	for i := 0; i < 100; i++ {
		b.Put(time.Duration(i).String(), blob, t0)
	}
	c := p.Costs()
	want := 0.1 * 0.020 // 0.1 GB at $0.02/GB-month
	if c.StorageUSD < want*0.9 || c.StorageUSD > want*1.1 {
		t.Errorf("storage cost = %v, want ~%v", c.StorageUSD, want)
	}
}
