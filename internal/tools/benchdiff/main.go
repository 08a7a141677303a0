// Command benchdiff is the CI performance gate: it parses a fresh
// `go test -bench -benchmem` run from stdin and compares every benchmark
// that also appears in the committed BENCH_*.json records (-against,
// repeatable). A benchmark fails the gate when its ns/op exceeds the
// committed number by more than -max-ns-frac (default 0.25, i.e. +25%),
// or when its allocs/op rises by more than -max-allocs-frac (default
// 0.002). Allocation counts on serial micro-benchmarks are deterministic,
// and 0.2% of a small count rounds to zero — any increase still fails;
// the slack only absorbs the scheduling jitter of concurrent
// macro-benchmarks like the report-all pipeline, whose per-op counts in
// the hundreds of thousands wobble by tens between runs. Timings get
// +25% for machine noise. A committed entry the fresh run has no line for
// is itself a failure — the benchmark was deleted or the bench regex
// drifted, and the gate would silently stop measuring it — and so is one
// benchmark name in two records: two committed answers to one question.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// record is one committed benchmark entry (a subset of benchjson's output
// fields; unknown JSON keys are ignored).
type record struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchFile is one committed BENCH_*.json record and where it was read from.
type benchFile struct {
	path       string
	Benchmarks []record `json:"benchmarks"`
}

func main() {
	var against []string
	flag.Func("against", "committed BENCH_*.json record to compare with (repeatable)", func(s string) error {
		against = append(against, s)
		return nil
	})
	maxNsFrac := flag.Float64("max-ns-frac", 0.25,
		"allowed fractional ns/op increase over the committed number")
	maxAllocsFrac := flag.Float64("max-allocs-frac", 0.002,
		"allowed fractional allocs/op increase over the committed number")
	flag.Parse()
	if len(against) == 0 {
		fatal(fmt.Errorf("no -against files given"))
	}

	fresh, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(fresh) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}

	var records []benchFile
	for _, path := range against {
		raw, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		bf := benchFile{path: path}
		if err := json.Unmarshal(raw, &bf); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		records = append(records, bf)
	}
	fails, compared := compare(fresh, records, *maxNsFrac, *maxAllocsFrac)
	for _, f := range fails {
		fmt.Println("benchdiff: FAIL", f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchdiff: OK (%d comparisons across %d committed records, all within budget)\n",
		compared, len(against))
}

// compare holds every committed entry against the fresh run and returns one
// line per failure, plus the number of entries compared. An entry fails when
// its ns/op or allocs/op is over budget, when the fresh run has no line for
// it, or when an earlier record already holds its name.
func compare(fresh map[string]record, records []benchFile, maxNsFrac, maxAllocsFrac float64) (fails []string, compared int) {
	owner := map[string]string{} // benchmark name -> the record holding it
	for _, r := range records {
		for _, c := range r.Benchmarks {
			if prev, dup := owner[c.Name]; dup {
				fails = append(fails, fmt.Sprintf("%s: recorded in both %s and %s (keep it in one)", c.Name, prev, r.path))
				continue
			}
			owner[c.Name] = r.path
			f, ok := fresh[c.Name]
			if !ok {
				fails = append(fails, fmt.Sprintf("%s: committed in %s but absent from the fresh run (benchmark deleted or bench regex drift?)", c.Name, r.path))
				continue
			}
			compared++
			if c.NsPerOp > 0 && f.NsPerOp > c.NsPerOp*(1+maxNsFrac) {
				fails = append(fails, fmt.Sprintf("%s: %.4g ns/op vs committed %.4g (+%.0f%%, budget +%.0f%%) [%s]",
					c.Name, f.NsPerOp, c.NsPerOp, (f.NsPerOp/c.NsPerOp-1)*100, maxNsFrac*100, r.path))
			}
			if f.AllocsPerOp > c.AllocsPerOp*(1+maxAllocsFrac) {
				fails = append(fails, fmt.Sprintf("%s: %.0f allocs/op vs committed %.0f (budget +%.1f%%) [%s]",
					c.Name, f.AllocsPerOp, c.AllocsPerOp, maxAllocsFrac*100, r.path))
			}
		}
	}
	return fails, compared
}

// parseBench extracts Benchmark lines from `go test -bench` output, the
// same format benchjson records: the Benchmark prefix and the trailing -N
// GOMAXPROCS suffix are stripped so names join against the JSON entries.
// With -count=N the same name appears N times; the minimum ns/op and
// allocs/op are kept — the minimum is the most repeatable timing
// estimator on a noisy machine, and the gate only looks for regressions.
func parseBench(r io.Reader) (map[string]record, error) {
	out := map[string]record{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		res := record{Name: name}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if prev, ok := out[res.Name]; ok {
			if prev.NsPerOp < res.NsPerOp {
				res.NsPerOp = prev.NsPerOp
			}
			if prev.AllocsPerOp < res.AllocsPerOp {
				res.AllocsPerOp = prev.AllocsPerOp
			}
		}
		out[res.Name] = res
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
