package cloud

import (
	"errors"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/faults"
)

// stubVMFaults rejects the first failFirst create attempts of every VM name.
type stubVMFaults struct{ failFirst int }

func (s stubVMFaults) FailVMCreate(name string, attempt int) error {
	if attempt < s.failFirst {
		return &faults.Error{Kind: faults.KindVMCreate, Site: name}
	}
	return nil
}

func TestCreateVMFaultPath(t *testing.T) {
	p := setup(t)
	p.SetVMFaults(stubVMFaults{failFirst: 2})

	spec := VMSpec{Name: "flaky-1", Region: "us-west1"}
	for attempt := 0; attempt < 2; attempt++ {
		_, err := p.CreateVM(spec, t0)
		var fe *faults.Error
		if !errors.As(err, &fe) || fe.Kind != faults.KindVMCreate {
			t.Fatalf("attempt %d: err = %v, want an injected vm-create fault", attempt, err)
		}
		if len(p.ListVMs("")) != 0 {
			t.Fatal("failed create left a VM behind")
		}
	}
	vm, err := p.CreateVM(spec, t0)
	if err != nil {
		t.Fatalf("attempt 2 should succeed: %v", err)
	}

	// Success resets the per-name attempt counter: after deletion the next
	// create sequence starts at attempt 0 and fails again.
	if err := p.DeleteVM(vm.Name, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateVM(spec, t0.Add(time.Hour)); err == nil {
		t.Fatal("attempt counter did not reset after a successful create")
	}

	// Removing the injector restores the fault-free control plane.
	p.SetVMFaults(nil)
	if _, err := p.CreateVM(spec, t0.Add(2*time.Hour)); err != nil {
		t.Fatalf("create with injector removed: %v", err)
	}
}

func TestCreateVMFaultConsumesNoZoneSlot(t *testing.T) {
	p := setup(t)
	p.SetVMFaults(stubVMFaults{failFirst: 3})
	create := func(name string) *VM {
		spec := VMSpec{Name: name, Region: "us-west1"}
		for i := 0; i < 3; i++ {
			if _, err := p.CreateVM(spec, t0); err == nil {
				t.Fatalf("%s attempt %d unexpectedly succeeded", name, i)
			}
		}
		vm, err := p.CreateVM(spec, t0)
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	a := create("zoned-1")
	b := create("zoned-2")
	// Three rejected attempts must not advance the round-robin: the two
	// provisioned VMs land in the region's first two zones.
	region, _ := p.topo.Region("us-west1")
	if a.Zone != region.Zones[0] || b.Zone != region.Zones[1] {
		t.Errorf("zones = %s, %s; want %s, %s (failed attempts consumed slots)",
			a.Zone, b.Zone, region.Zones[0], region.Zones[1])
	}
}

func TestPreempt(t *testing.T) {
	p := setup(t)
	vm, err := p.CreateVM(VMSpec{Name: "doomed-1", Region: "us-west1"}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Preempt(vm.Name, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(p.ListVMs("")) != 0 {
		t.Error("preempted VM still listed")
	}
	if c := p.Costs(); c.ComputeUSD <= 0 {
		t.Error("preemption accrued no compute cost for the VM's runtime")
	}
	// The name is free for the replacement instance.
	if _, err := p.CreateVM(vm.VMSpec, t0.Add(2*time.Hour)); err != nil {
		t.Errorf("re-creating preempted VM: %v", err)
	}
	if err := p.Preempt("never-existed", t0); err == nil {
		t.Error("preempting an unknown VM did not error")
	}
}
