// Package someta records measurement metadata alongside each experiment,
// after SoMeta (Sommers, Durairajan, Barford, IMC 2017): periodic snapshots
// of host state (CPU, memory, network counters, clock) that let the
// analysis verify a test was not confounded by resource exhaustion — the
// paper checked that its n1-standard-2 VMs never depleted CPU during tests
// (§3.2).
package someta

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
)

// Metadata telemetry (see DESIGN.md §8).
var (
	obsSnapshots    = obs.Default().Counter("someta_snapshots_total")
	obsLastSnapUnix = obs.Default().Gauge("someta_last_snapshot_unix_seconds")
)

// ClampUtil bounds a utilisation value to [0, 1]. Probe implementations are
// free to return raw proxies (the LocalProbe goroutine-pressure heuristic
// can exceed 1 on oversubscribed hosts); every snapshot passes through this
// single clamp so downstream consumers — MaxCPU filtering, the analysis'
// CPU-exhaustion check — never see out-of-range utilisation.
func ClampUtil(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Snapshot is one metadata record.
type Snapshot struct {
	Timestamp   time.Time `json:"timestamp"`
	Hostname    string    `json:"hostname"`
	CPUUtil     float64   `json:"cpu_util"` // 0..1
	MemUsedMB   float64   `json:"mem_used_mb"`
	NetBytesIn  int64     `json:"net_bytes_in"`
	NetBytesOut int64     `json:"net_bytes_out"`
	Goroutines  int       `json:"goroutines"`
	GoVersion   string    `json:"go_version"`
}

// Probe supplies host counters for a snapshot. LocalProbe samples the local
// process; tests substitute their own.
type Probe interface {
	Sample() (cpuUtil float64, memUsedMB float64, netIn, netOut int64)
}

// heapObjectsMetric is the runtime/metrics name of the bytes held by live
// and not-yet-swept heap objects — the same quantity as MemStats.Alloc.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// LocalProbe samples the current process: heap bytes from runtime/metrics
// and a CPU proxy from goroutine pressure. It has no source of network
// counters and reports them as zero.
//
// Sampling never stops the world: campaigns snapshot once per VM-hour, and
// runtime.ReadMemStats — a stop-the-world per call — made every snapshot a
// global pause that cost little on one core and a third of the wall clock
// on two busy ones. TestCampaignPathNeverStopsTheWorld pins the property.
type LocalProbe struct {
	mu   sync.Mutex
	heap [1]metrics.Sample // reused across samples; guarded by mu
}

// Sample implements Probe.
func (p *LocalProbe) Sample() (float64, float64, int64, int64) {
	return p.sample(runtime.NumGoroutine())
}

// sample is Sample with the goroutine count taken by the caller, so a
// snapshot's CPU proxy and its Goroutines field come from one reading.
func (p *LocalProbe) sample(goroutines int) (float64, float64, int64, int64) {
	cpu := ClampUtil(float64(goroutines) / float64(runtime.NumCPU()*8))
	p.mu.Lock()
	p.heap[0].Name = heapObjectsMetric
	metrics.Read(p.heap[:])
	var heapBytes uint64
	if p.heap[0].Value.Kind() == metrics.KindUint64 {
		heapBytes = p.heap[0].Value.Uint64()
	}
	p.mu.Unlock()
	return cpu, float64(heapBytes) / (1 << 20), 0, 0
}

// Collector takes snapshots from a probe.
type Collector struct {
	Hostname string
	Probe    Probe

	mu      sync.Mutex
	latest  Snapshot // the newest snapshot, once snapped
	snapped bool
	maxCPU  float64 // running maximum of snapshots' CPUUtil
}

// NewCollector creates a collector. A nil probe uses LocalProbe.
func NewCollector(hostname string, probe Probe) *Collector {
	if probe == nil {
		probe = &LocalProbe{}
	}
	return &Collector{Hostname: hostname, Probe: probe}
}

// goVersion is the toolchain every snapshot of this process reports.
var goVersion = runtime.Version()

// Snap records one snapshot at the given (possibly virtual) time. The
// goroutine count is read once: the local probe derives its CPU proxy from
// the same reading the snapshot records.
func (c *Collector) Snap(at time.Time) Snapshot {
	goroutines := runtime.NumGoroutine()
	var cpu, mem float64
	var in, out int64
	if local, ok := c.Probe.(*LocalProbe); ok {
		cpu, mem, in, out = local.sample(goroutines)
	} else {
		cpu, mem, in, out = c.Probe.Sample()
	}
	s := Snapshot{
		Timestamp:   at,
		Hostname:    c.Hostname,
		CPUUtil:     ClampUtil(cpu),
		MemUsedMB:   mem,
		NetBytesIn:  in,
		NetBytesOut: out,
		Goroutines:  goroutines,
		GoVersion:   goVersion,
	}
	c.mu.Lock()
	c.latest, c.snapped = s, true
	if s.CPUUtil > c.maxCPU {
		c.maxCPU = s.CPUUtil
	}
	c.mu.Unlock()
	obsSnapshots.Inc()
	obsLastSnapUnix.Set(float64(at.Unix()))
	return s
}

// Latest returns the newest snapshot; ok is false when none has been
// recorded.
func (c *Collector) Latest() (s Snapshot, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latest, c.snapped
}

// MaxCPU returns the highest CPU utilisation observed (0 when empty). The
// analysis uses it to discard tests run on a starved VM.
func (c *Collector) MaxCPU() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxCPU
}

// WriteJSON streams snapshots as JSON lines.
func WriteJSON(w io.Writer, snaps []Snapshot) error {
	enc := json.NewEncoder(w)
	for i := range snaps {
		if err := enc.Encode(&snaps[i]); err != nil {
			return fmt.Errorf("someta: encoding snapshot: %w", err)
		}
	}
	return nil
}
