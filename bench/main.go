// Command bench is the repository's benchmark: five workloads over the
// CLASP pipeline, end-to-end metrics measured from outside in one child
// process per repetition, and per-layer metrics from a separate traced run.
// See README.md for the workloads, the metrics and how to read the output,
// and ../BENCHMARK.json for the contract the driver runs it under.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind: latest.json, the span files
// and, while a run lasts, the children's scratch directories.
const outDir = "out"

// minBudgetReps is how many repetitions a -seconds run makes at least,
// however slow the host.
const minBudgetReps = 2

type config struct {
	workloads   []string
	seed        int64
	reps        int
	seconds     float64
	trace       bool
	jsonPath    string
	repeatCheck bool
	procs       int    // P: cores the unpinned workloads use
	tmp         string // scratch base for the children
}

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var names stringList
	fs.Var(&names, "workload", "workload to run (repeatable; default: all)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the only input to workload generation")
	fs.IntVar(&cfg.reps, "reps", 5, "repetitions per workload; a metric is their best (timings) or their median")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "measure each workload for this long instead of -reps times, and print the driver's result line last")
	fs.BoolVar(&cfg.trace, "trace", false, "add one traced run per workload and report the per-layer metrics")
	fs.StringVar(&cfg.jsonPath, "json", "", "also write the full result to this file")
	fs.BoolVar(&cfg.repeatCheck, "repeat-check", false, "run two full sets and fail if a metric differs between them by more than its bound")
	child := fs.Bool("child", false, "internal: run one execution in this process")
	procs := fs.Int("procs", 0, "internal: GOMAXPROCS and Parallelism of a child")
	tmp := fs.String("tmp", "", "internal: scratch base of a child")
	traceOut := fs.String("trace-out", "", "internal: make the child the traced run and write its spans here")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *child {
		if len(names) != 1 {
			return errors.New("-child takes exactly one -workload")
		}
		return childMain(names[0], cfg.seed, *procs, *tmp, *traceOut)
	}

	for _, n := range names {
		if findWorkload(n) == nil {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	cfg.workloads = names
	if cfg.seed == 0 {
		cfg.seed = 1 // as the engine reads it; the staged pipeline must build the same topology
	}
	cfg.procs = min(runtime.NumCPU(), 4)
	if cfg.seconds > 0 && len(names) != 1 {
		return errors.New("-seconds takes exactly one -workload")
	}
	if cfg.reps < 1 {
		return errors.New("-reps must be at least 1")
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var err error
	if cfg.tmp, err = os.MkdirTemp(outDir, "tmp-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.tmp)

	if cfg.repeatCheck {
		return repeatCheck(cfg)
	}
	rep, err := runSet(cfg)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if err := rep.write(filepath.Join(outDir, "latest.json")); err != nil {
		return err
	}
	if cfg.jsonPath != "" {
		if err := rep.write(cfg.jsonPath); err != nil {
			return err
		}
	}
	if cfg.seconds > 0 {
		if err := rep.Workloads[0].printDriverLine(os.Stdout, cfg.trace); err != nil {
			return err
		}
	}
	if !rep.correct() {
		return errors.New("output checks failed")
	}
	return nil
}

// joinTraceValue lets -trace take the driver's separate 0/1 argument
// ("--trace 1") as well as the usual boolean forms.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

// --- results -------------------------------------------------------------------

// summary is one metric over the repetitions of a workload. Value is the
// metric's reported value: the best repetition for a metricDef with best
// set, the median otherwise.
type summary struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(m metricDef, vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{Unit: m.Unit}
	}
	sum := summary{Unit: m.Unit, Median: s[n/2], Min: s[0], Max: s[n-1], N: n}
	if n%2 == 0 {
		sum.Median = (s[n/2-1] + s[n/2]) / 2
	}
	switch {
	case !m.best:
		sum.Value = sum.Median
	case m.Better == "higher":
		sum.Value = sum.Max
	default:
		sum.Value = sum.Min
	}
	return sum
}

// workloadResult is everything measured for one workload in one set.
type workloadResult struct {
	Name         string             `json:"name"`
	WorkUnit     string             `json:"work_unit"`
	Procs        int                `json:"procs"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	FailFrac     float64            `json:"fail_frac"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	OutputSHA256 string             `json:"output_sha256"`
	Problems     []string           `json:"problems,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
}

type envBlock struct {
	NProc     int    `json:"nproc"`
	Procs     int    `json:"procs"` // GOMAXPROCS and Parallelism of the unpinned workloads
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Commit    string `json:"git_commit"`
	Seed      int64  `json:"seed"`
}

type report struct {
	Env       envBlock          `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if len(w.Problems) > 0 {
			return false
		}
	}
	return true
}

func (r *report) write(path string) error {
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func (r *report) print(w *os.File) {
	e := r.Env
	fmt.Fprintf(w, "env: nproc=%d procs=%d %s %s/%s commit=%s seed=%d\n",
		e.NProc, e.Procs, e.GoVersion, e.GOOS, e.GOARCH, e.Commit, e.Seed)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n%s (procs %d, work unit %s)\n", wr.Name, wr.Procs, wr.WorkUnit)
		fmt.Fprintf(w, "  %-24s %14s %14s %14s %14s %3s  %s\n", "metric", "value", "median", "min", "max", "n", "bound")
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.Name]
			sign := "+"
			if m.Better == "higher" {
				sign = "-"
			}
			fmt.Fprintf(w, "  %-24s %14.4f %14.4f %14.4f %14.4f %3d  %s%.0f%%\n",
				m.Name+" ["+m.Unit+"]", s.Value, s.Median, s.Min, s.Max, s.N, sign, m.Bound*100)
		}
		fmt.Fprintf(w, "  %-24s %14.4f  (%d failed of %d attempted)\n", "fail_frac [ratio]", wr.FailFrac, wr.Failed, wr.Attempted)
		fmt.Fprintf(w, "  output_sha256 %s\n", wr.OutputSHA256)
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
		}
		if wr.PerLayer != nil {
			for _, m := range perLayer {
				fmt.Fprintf(w, "  %-32s %14.6g\n", m.Name+" ["+m.Unit+"]", wr.PerLayer[m.Name])
			}
		}
	}
}

// printDriverLine prints the one-line result the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func (wr *workloadResult) printDriverLine(w *os.File, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value)
	if traced {
		for _, m := range perLayer {
			ms[m.Name] = value{wr.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			ms[m.Name] = value{wr.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(wr.Problems) == 0, wr.Attempted, wr.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// --- running -------------------------------------------------------------------

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// runSet measures every configured workload once: the repetitions, then
// the traced run when asked for.
func runSet(cfg config) (*report, error) {
	rep := &report{Env: envBlock{
		NProc:     runtime.NumCPU(),
		Procs:     cfg.procs,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Commit:    gitCommit(),
		Seed:      cfg.seed,
	}}
	byName := make(map[string]*workloadResult)
	for _, name := range cfg.workloads {
		wr, err := measure(cfg, findWorkload(name))
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, wr)
		byName[name] = wr
	}
	// Parallelism invariance: the pinned twin renders the same bytes.
	if a, b := byName["report_all"], byName["report_all_1core"]; a != nil && b != nil && a.OutputSHA256 != b.OutputSHA256 {
		b.fail("output differs from report_all: %s vs %s", b.OutputSHA256, a.OutputSHA256)
	}
	return rep, nil
}

// fail records a failed output check: the whole run counts as failed.
func (wr *workloadResult) fail(format string, args ...any) {
	wr.Problems = append(wr.Problems, fmt.Sprintf(format, args...))
	wr.Failed, wr.FailFrac = wr.Attempted, 1
}

// measure runs one workload's repetitions, one child at a time, then the
// runs the per-layer metrics need when tracing, and summarises them.
func measure(cfg config, w *workload) (*workloadResult, error) {
	procs := cfg.procs
	if w.oneCore {
		procs = 1
	}
	wr := &workloadResult{Name: w.name, WorkUnit: w.workUnit, Procs: procs}
	start := time.Now()
	done := func(reps int) bool {
		switch {
		case cfg.seconds > 0 && cfg.trace:
			return true // a traced driver run reports no end-to-end metric
		case cfg.seconds > 0:
			return reps >= minBudgetReps && time.Since(start).Seconds() >= cfg.seconds
		}
		return reps >= cfg.reps
	}
	var runs []*childResult
	for i := 0; !done(i); i++ {
		fmt.Fprintf(os.Stderr, "bench: %s rep %d\n", w.name, i+1)
		res, err := runChild(cfg, w, procs, "")
		if err != nil {
			return nil, err
		}
		runs = append(runs, res)
	}
	if cfg.trace {
		layers, extra, err := traceWorkload(cfg, w, procs, runs)
		if err != nil {
			return nil, err
		}
		wr.PerLayer = layers
		runs = append(runs, extra...)
	}
	wr.summarize(runs)
	return wr, nil
}

// summarize folds the children of one workload into its result and applies
// the checks that span runs: every run rendered the same bytes.
func (wr *workloadResult) summarize(runs []*childResult) {
	wr.EndToEnd = make(map[string]summary)
	for _, m := range endToEnd {
		var vals []float64
		for _, r := range runs {
			if r.Procs == wr.Procs && !r.traced {
				vals = append(vals, m.of(r))
			}
		}
		wr.EndToEnd[m.Name] = summarize(m, vals)
	}
	first := runs[0]
	wr.OutputSHA256, wr.Attempted = first.OutputSHA256, first.Attempted
	for _, r := range runs {
		wr.Failed = max(wr.Failed, r.Failed)
	}
	if wr.Attempted > 0 {
		wr.FailFrac = float64(wr.Failed) / float64(wr.Attempted)
	}
	for _, r := range runs {
		for _, p := range r.Problems {
			wr.fail("%s", p)
		}
		if r.OutputSHA256 != first.OutputSHA256 {
			wr.fail("output differs between runs: %s (procs %d) vs %s (procs %d)",
				first.OutputSHA256, first.Procs, r.OutputSHA256, r.Procs)
		}
	}
}

// runChild re-executes this binary for one execution of w and decodes its
// result. One child runs at a time, so its CPU, wall clock and peak RSS are
// its own.
func runChild(cfg config, w *workload, procs int, traceOut string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-procs", strconv.Itoa(procs), "-tmp", cfg.tmp}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(exe, args...)
	// Anything the program under test puts in the default temp directory
	// stays inside the checkout too.
	cmd.Env = append(os.Environ(), "TMPDIR="+cfg.tmp)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	res := &childResult{traced: traceOut != ""}
	if err := json.Unmarshal(stdout.Bytes(), res); err != nil {
		return nil, fmt.Errorf("%s child result: %w", w.name, err)
	}
	return res, nil
}

// --- repeat check ----------------------------------------------------------------

// repeatCheck runs two full sets back to back and compares their values:
// the evidence that the bounds in BENCHMARK.json are wider than the
// benchmark's own noise.
func repeatCheck(cfg config) error {
	var sets [2]*report
	for i := range sets {
		fmt.Fprintf(os.Stderr, "bench: repeat-check set %d\n", i+1)
		rep, err := runSet(cfg)
		if err != nil {
			return err
		}
		if !rep.correct() {
			rep.print(os.Stdout)
			return errors.New("output checks failed")
		}
		sets[i] = rep
	}
	fmt.Printf("%-18s %-12s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	bad := 0
	for i, a := range sets[0].Workloads {
		b := sets[1].Workloads[i]
		for _, m := range endToEnd {
			x, y := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			diff := (y - x) / x
			verdict := ""
			if diff > m.Bound || diff < -m.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-18s %-12s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", a.Name, m.Name, x, y, diff*100, m.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) differ between two sets of the same code by more than their bound", bad)
	}
	return nil
}
