package analysis

import (
	"sync"
	"sync/atomic"

	"github.com/clasp-measurement/clasp/internal/obs"
)

var (
	obsGroupCalls = obs.Default().Counter("analysis_group_calls_total")
	// obsRecordsScanned counts the records cursors deliver column-wise
	// (NextColumns), so every kernel's scan of a stream moves it.
	obsRecordsScanned = obs.Default().Counter("analysis_records_scanned_total")
	obsGroupSeries    = obs.Default().Counter("analysis_series_grouped_total")
	obsParTasks       = obs.Default().Counter("analysis_parallel_tasks_total")
	obsSpilledBytes   = obs.Default().Counter("analysis_log_spilled_bytes_total")
)

// ParallelFor runs fn(i) for every i in [0, n) across up to parallelism
// workers, the analysis engine's only fan-out primitive. Work is handed
// out by an atomic counter, so goroutines self-balance across uneven
// per-index costs (series differ wildly in sample count).
//
// Determinism contract: fn must write its result to index i of a
// pre-sized output slice and read nothing another index writes. The merge
// is then by index — the same order a serial loop produces — so anything
// derived from the output is bit-identical at any parallelism. Sums
// folded after the loop must be integer tallies (event counts, day
// counts), not floats, so the fold is order-independent too.
//
// parallelism <= 1 (the default Options.Parallelism) runs inline with no
// goroutines at all.
func ParallelFor(parallelism, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	obsParTasks.Add(uint64(n))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
