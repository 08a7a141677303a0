package someta

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2020, 5, 1, 12, 0, 0, 0, time.UTC)

func TestLocalProbeSnapshot(t *testing.T) {
	// runtime/metrics reads heap bytes from per-P statistics that a process
	// only a few allocations old may not have flushed yet (about one run in
	// a hundred read 0 here); a collection flushes them.
	runtime.GC()
	c := NewCollector("vm-test", nil)
	c.Snap(t0)
	s, _ := c.Latest()
	if s.Hostname != "vm-test" {
		t.Errorf("hostname = %q", s.Hostname)
	}
	if s.CPUUtil < 0 || s.CPUUtil > 1 {
		t.Errorf("cpu = %v", s.CPUUtil)
	}
	if s.MemUsedMB <= 0 {
		t.Errorf("mem = %v", s.MemUsedMB)
	}
	if s.Goroutines <= 0 || !strings.HasPrefix(s.GoVersion, "go") {
		t.Errorf("runtime fields: %+v", s)
	}
	// One reading of the goroutine count feeds both fields.
	if want := ClampUtil(float64(s.Goroutines) / float64(runtime.NumCPU()*8)); s.CPUUtil != want {
		t.Errorf("cpu = %v, but %d goroutines make %v", s.CPUUtil, s.Goroutines, want)
	}
	if !s.Timestamp.Equal(t0) {
		t.Errorf("timestamp = %v", s.Timestamp)
	}
}

// FuncProbe adapts a function to the Probe interface: the fake these tests
// substitute for LocalProbe.
type FuncProbe func() (cpuUtil, memUsedMB float64, netIn, netOut int64)

func (f FuncProbe) Sample() (float64, float64, int64, int64) { return f() }

func TestFuncProbe(t *testing.T) {
	c := NewCollector("sim-vm", FuncProbe(func() (float64, float64, int64, int64) {
		return 0.42, 1024, 7, 9
	}))
	c.Snap(t0)
	s, _ := c.Latest()
	if s.CPUUtil != 0.42 || s.MemUsedMB != 1024 || s.NetBytesIn != 7 || s.NetBytesOut != 9 {
		t.Errorf("probe values lost: %+v", s)
	}
}

func TestClampUtil(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-0.5, 0}, {0, 0}, {0.42, 0.42}, {1, 1}, {1.7, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := ClampUtil(c.in); got != c.want {
			t.Errorf("ClampUtil(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSnapClampsProbeCPU(t *testing.T) {
	// Probes may return raw proxies >1; the collector clamps once, centrally.
	c := NewCollector("vm", FuncProbe(func() (float64, float64, int64, int64) {
		return 1.7, 1, 0, 0
	}))
	c.Snap(t0)
	if s, _ := c.Latest(); s.CPUUtil != 1 {
		t.Errorf("CPUUtil = %v, want clamped to 1", s.CPUUtil)
	}
	if got := c.MaxCPU(); got != 1 {
		t.Errorf("MaxCPU = %v, want 1", got)
	}
}

// TestCollectorLatest covers what the capture path relies on: the newest
// snapshot, and a clean "none" on an empty collector.
func TestCollectorLatest(t *testing.T) {
	c := NewCollector("vm", FuncProbe(func() (float64, float64, int64, int64) { return 0.5, 1, 0, 0 }))
	if s, ok := c.Latest(); ok {
		t.Errorf("Latest on an empty collector = %+v, want none", s)
	}
	for i := 0; i < 3; i++ {
		c.Snap(t0.Add(time.Duration(i) * time.Minute))
	}
	s, ok := c.Latest()
	if !ok || !s.Timestamp.Equal(t0.Add(2*time.Minute)) {
		t.Errorf("Latest = %+v, %v, want the third snapshot", s, ok)
	}
}

func TestMaxCPU(t *testing.T) {
	vals := []float64{0.1, 0.9, 0.4}
	i := 0
	c := NewCollector("vm", FuncProbe(func() (float64, float64, int64, int64) {
		v := vals[i%len(vals)]
		i++
		return v, 1, 0, 0
	}))
	if c.MaxCPU() != 0 {
		t.Error("MaxCPU on empty collector")
	}
	for range vals {
		c.Snap(t0)
	}
	if c.MaxCPU() != 0.9 {
		t.Errorf("MaxCPU = %v", c.MaxCPU())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := NewCollector("vm", FuncProbe(func() (float64, float64, int64, int64) { return 0.3, 500, 1000, 2000 }))
	var snaps []Snapshot
	for i := 0; i < 3; i++ {
		c.Snap(t0.Add(time.Duration(i) * time.Second))
		s, _ := c.Latest()
		snaps = append(snaps, s)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	var got []Snapshot
	for dec := json.NewDecoder(&buf); dec.More(); {
		var s Snapshot
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 3 {
		t.Fatalf("round trip count = %d", len(got))
	}
	for i, s := range got {
		orig := snaps[i]
		if !s.Timestamp.Equal(orig.Timestamp) || s.CPUUtil != orig.CPUUtil || s.NetBytesOut != orig.NetBytesOut {
			t.Errorf("snapshot %d mismatch: %+v vs %+v", i, s, orig)
		}
	}
}
