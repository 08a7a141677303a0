package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// childResult is what one child process reports to the harness on its
// standard output: one execution of one workload.
type childResult struct {
	Procs     int     `json:"procs"`
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Work      float64 `json:"work"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`

	OutputSHA256 string   `json:"output_sha256"`
	OutputBytes  int      `json:"output_bytes"`
	Problems     []string `json:"problems,omitempty"`

	// Layers holds per-layer metrics by registry name: the runtime counters
	// in every child, everything else only in the traced child.
	Layers map[string]float64 `json:"layers"`

	traced bool // set by the harness: this was the traced run
}

// childMain runs one execution of a workload in this process and prints
// its childResult. With traceOut set it is the traced run: the same
// end-to-end call as the root span, then the staged pipeline and replay
// probes, with the spans written to traceOut.
func childMain(name string, seed int64, procs int, tmpBase, traceOut string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(procs)
	tmp, err := os.MkdirTemp(tmpBase, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	r := &run{w: w, seed: seed, procs: procs, tmp: tmp}
	var res *childResult
	if traceOut == "" {
		res, err = execute(r, nil)
	} else {
		res, err = executeTraced(r, traceOut)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// execute runs set-up and the timed section once, measuring the timed
// section from outside: wall clock, CPU and allocation deltas, peak RSS.
// With a tracer the two together are its root span.
func execute(r *run, tr *tracer) (*childResult, error) {
	var out bytes.Buffer
	var setup, wall time.Duration
	var before, after usage
	_, err := tr.do("root", func() error {
		var err error
		if setup, err = tr.do("setup", func() error { return r.w.setup(r) }); err != nil {
			return fmt.Errorf("%s set-up: %w", r.w.name, err)
		}
		before = readUsage()
		if wall, err = tr.do("timed", func() error { return r.w.timed(r, &out) }); err != nil {
			return fmt.Errorf("%s: %w", r.w.name, err)
		}
		after = readUsage()
		return nil
	})
	if err != nil {
		return nil, err
	}

	if r.w.verify != nil {
		if err := r.w.verify(r, out.Bytes()); err != nil {
			return nil, fmt.Errorf("%s verify: %w", r.w.name, err)
		}
	}
	sum := sha256.Sum256(out.Bytes())
	cpu := after.cpu - before.cpu
	res := &childResult{
		Procs:        r.procs,
		SetupS:       setup.Seconds(),
		WallS:        wall.Seconds(),
		CPUS:         cpu.Seconds(),
		PeakRSSMB:    after.maxRSSMB,
		Work:         r.work,
		Attempted:    r.attempted,
		Failed:       r.failed,
		OutputSHA256: hex.EncodeToString(sum[:]),
		OutputBytes:  out.Len(),
		Problems:     r.problems,
		Layers: map[string]float64{
			"runtime.alloc_gb":  float64(after.allocBytes-before.allocBytes) / 1e9,
			"runtime.mallocs_m": float64(after.mallocs-before.mallocs) / 1e6,
			"runtime.gc_cycles": float64(after.gcCycles - before.gcCycles),
		},
	}
	if cpu > 0 {
		res.Layers["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu.Seconds()
	}
	return res, nil
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu        time.Duration // user + system
	maxRSSMB   float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPU      float64 // seconds
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	u := usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSMB:   float64(ru.Maxrss) / 1024, // Linux reports KiB
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gc[0].Value.Float64()
	}
	return u
}
