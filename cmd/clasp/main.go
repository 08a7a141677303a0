// Command clasp runs CLASP campaigns and regenerates the paper's tables
// and figures against the built-in simulated Internet.
//
// Usage:
//
//	clasp report <artifact> [flags]   regenerate a paper artifact:
//	                                  table1, fig2, fig3, fig4a, fig4b, fig4c,
//	                                  fig5, fig6a, fig6b, fig6c, fig7, fig8,
//	                                  headlines, all
//	clasp select <region> [flags]     run both selection methods for a region
//	clasp campaign <region> [flags]   run a topology campaign and print the
//	                                  congestion report
//	clasp costs [flags]               show the simulated cloud bill after a
//	                                  one-week all-region campaign
//	clasp run <scenario.json>         run one declarative scenario spec
//	                                  (see examples/scenarios/)
//	clasp fleet <dir>                 run every scenario spec in a directory
//	                                  concurrently over one shared topology;
//	                                  output is byte-identical to running
//	                                  each scenario alone
//	clasp resume <checkpoint-dir>     continue a killed campaign, report or
//	                                  costs run from the directory its
//	                                  -checkpoint-dir named; the finished
//	                                  run's output is byte-identical to a
//	                                  never-killed run
//
// Flags follow the subcommand and its positional arguments; `clasp <command>
// -h` lists them with their defaults. run and fleet read everything from
// the spec instead (and reject the flags that shape a run), and resume
// takes the run's identity and shape from the command's manifest and only
// the runtime flags (-parallelism, -max-memory, -spill-dir) from the command
// line.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/faults"
	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/scenario"
	"github.com/clasp-measurement/clasp/internal/telemetry"

	clasp "github.com/clasp-measurement/clasp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "clasp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: clasp <report|select|campaign|costs|run|fleet|resume> ... (see -h)")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var opts core.Options
	bindOptions(fs, &opts)
	days := fs.Int("days", 30, "campaign length in virtual days")
	samples := fs.Int("samples", 0, "differential-scan minimum tuple samples (default scales with the topology)")
	metricsOut := fs.String("metrics-out", "", "enable metrics and write Prometheus text to this file (JSON snapshot beside it as <file>.json)")
	debugAddr := fs.String("debug-addr", "", "enable metrics and serve live introspection (/metrics, /progress, /debug/pprof/) on this address while the command runs")
	tracelog := fs.String("tracelog", "", "enable tracing and write span events as JSON lines to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")

	// Subcommand positional arguments come before flags.
	var positional []string
	for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		positional = append(positional, rest[0])
		rest = rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	// A flag a command takes from elsewhere used to parse here and be
	// silently ignored.
	var misplaced error
	fs.Visit(func(f *flag.Flag) {
		if why := refusal(cmd, f.Name); why != "" && misplaced == nil {
			misplaced = fmt.Errorf("-%s: %s", f.Name, why)
		}
	})
	if misplaced != nil {
		return misplaced
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // flush up-to-date allocation stats
			_ = pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}
	if *days < 1 {
		return fmt.Errorf("-days: must be at least 1, got %d", *days)
	}
	if *samples < 0 {
		return fmt.Errorf("-samples: must be non-negative, got %d", *samples)
	}
	minSamples := *samples
	if minSamples == 0 {
		minSamples = core.DefaultMinSamples(opts.Scale)
	}

	// Telemetry: any of these flags turns the obs registry on; campaign
	// results are bit-identical with it on or off. The metrics dump is
	// written after the command finishes (even a failed one — a partial
	// campaign's telemetry is exactly what a failure investigation wants).
	if *metricsOut != "" || *tracelog != "" || *debugAddr != "" {
		obs.SetEnabled(true)
	}
	if *debugAddr != "" {
		// Live introspection while the command runs: the orchestrator
		// publishes per-region progress/ETA gauges the /progress endpoint
		// renders, a pure observer of the registry.
		dbg, err := telemetry.StartDebug(*debugAddr, telemetry.Introspection{Progress: true})
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "clasp: introspection on http://%s (/metrics /progress /debug/pprof/)\n", dbg.Addr())
		defer dbg.Close()
	}
	if *tracelog != "" {
		f, err := os.Create(*tracelog)
		if err != nil {
			return fmt.Errorf("tracelog: %w", err)
		}
		bw := bufio.NewWriter(f)
		obs.SetTraceWriter(bw)
		defer func() {
			obs.SetTraceWriter(nil)
			_ = bw.Flush()
			f.Close()
		}()
	}

	// Scenario commands build their own platforms from the spec; the flag
	// set above configures only the classic subcommands.
	var cmdErr error
	switch cmd {
	case "run", "fleet":
		cmdErr = scenarioCmd(cmd, positional, out)
	case "resume":
		cmdErr = resumeCmd(positional, out, opts)
	default:
		p, err := clasp.New(opts)
		if err != nil {
			return err
		}
		cmdErr = dispatch(cmd, positional, p, out, *days, minSamples)
	}
	if *metricsOut != "" {
		if err := writeMetricsDump(*metricsOut); err != nil {
			if cmdErr != nil {
				return fmt.Errorf("%w (also: %v)", cmdErr, err)
			}
			return err
		}
	}
	return cmdErr
}

// bindOptions registers the engine flags straight onto o — the one place a
// core.Options field gets its flag name, CLI default and usage text.
func bindOptions(fs *flag.FlagSet, o *core.Options) {
	fs.Int64Var(&o.Seed, "seed", 1, "simulation seed")
	fs.Float64Var(&o.Scale, "scale", 0.25, "topology scale (1.0 = paper scale)")
	fs.IntVar(&o.Parallelism, "parallelism", 1, "concurrent VM workers per campaign round, workers per server selection and analysis workers per report; output is identical at any value for the same seed")
	fs.StringVar(&o.FaultProfile, "fault-profile", "none",
		fmt.Sprintf("fault-injection profile (%s); campaigns retry, degrade and account for the injected failures deterministically per seed", strings.Join(faults.Names(), ", ")))
	fs.IntVar(&o.MaxMemoryMB, "max-memory", 0, "memory budget in MB (0 = none); half of it decides which campaigns spill their compressed record log to disk, and half caps the grouped analysis views kept for reuse; reports are byte-identical at any value")
	fs.StringVar(&o.SpillDir, "spill-dir", "", "`dir` for spilled record logs (default: the system temp dir); spill files are unlinked at creation")
	fs.StringVar(&o.CheckpointDir, "checkpoint-dir", "", "enable campaign checkpointing: commit progress and records under this `dir` by atomic rename; continue a killed run with clasp resume <dir>")
	fs.IntVar(&o.CheckpointEvery, "checkpoint-every", 0, "checkpoint every N campaign rounds (default every round; needs -checkpoint-dir)")
}

// specKeys maps each flag that shapes a run — bindOptions', -days and
// -samples — to the scenario-spec key that sets the same knob, "" for the
// checkpoint flags: scenarios do not checkpoint.
var specKeys = map[string]string{
	"seed": "seed", "scale": "topology.scale", "parallelism": "parallelism", "fault-profile": "faultProfile",
	"max-memory": "maxMemoryMB", "spill-dir": "spillDir", "checkpoint-dir": "", "checkpoint-every": "",
	"days": "days", "samples": "minSamples",
}

// resumeFlags are the flags of specKeys that resume takes from its command
// line: the runtime knobs no output byte depends on.
var resumeFlags = []string{"parallelism", "max-memory", "spill-dir"}

// refusal says why cmd refuses a flag it was given, or "" when it takes
// it: run and fleet read every knob from the spec, and resume reads the
// run's identity and shape from the command's manifest.
func refusal(cmd, name string) string {
	key, shapes := specKeys[name]
	switch {
	case shapes && cmd == "resume" && !slices.Contains(resumeFlags, name):
		return "clasp resume reads it from " + checkpoint.ManifestFile + ", not the command line"
	case !shapes || cmd != "run" && cmd != "fleet":
		return ""
	case key == "":
		return "scenarios do not checkpoint"
	}
	return fmt.Sprintf("clasp %s reads it from the spec, not the command line: set %q there", cmd, key)
}

// costsDays is the campaign length of the `costs` command's all-region
// deployment, matching the paper's one-week bill.
const costsDays = 7

// command is a checkpointing command — campaign, report or costs — as its
// manifest records it: what a fresh run and its resume both run.
type command struct {
	name, artifact   string
	refs             []core.CampaignRef // the campaigns it plans, in plan order
	days, minSamples int
}

// run runs the command on p's engine and prints its output. A fresh run
// attaches a command scheduler, which writes the manifest (under
// -checkpoint-dir) before any campaign starts; a resume attaches a resume
// scheduler, which loads each campaign's checkpoint as it plans it and says
// which ones had finished. Nothing else differs, so a resumed command
// prints what the uninterrupted one would have.
func (c command) run(out io.Writer, p *clasp.Platform, resume bool) error {
	label, eng := strings.TrimSuffix(c.name+"-"+c.artifact, "-"), p.Engine()
	var sched *core.CommandScheduler
	if resume {
		sched = eng.NewResumeScheduler(label)
		sched.OnSkip = func(camp checkpoint.Campaign) {
			fmt.Fprintf(os.Stderr, "clasp: skipping finished campaign %s\n", checkpoint.CampaignDir(camp))
		}
	} else {
		sched = eng.NewCommandScheduler(label)
		if err := sched.WriteManifest(c.name, c.artifact, c.refs, c.days, c.minSamples); err != nil {
			return err
		}
	}
	switch c.name {
	case "campaign":
		plan, err := sched.Plan(c.refs[0])
		if err != nil {
			return err
		}
		res, err := sched.Run(plan)
		if err != nil {
			return err
		}
		clasp.WriteCampaignSummary(out, res)
		rep, err := p.CongestionReport(res)
		if err != nil {
			return err
		}
		clasp.WriteReport(out, rep)
		return nil
	case "costs":
		// All regions measure concurrently, like the real deployment.
		regions := make([]string, len(c.refs))
		for i, ref := range c.refs {
			regions[i] = ref.Region
		}
		if err := p.RunTopologyCampaigns(regions, c.days); err != nil {
			return err
		}
		egress, storage, compute := p.Costs()
		fmt.Fprintf(out, "Simulated 7-day all-region bill:\n")
		fmt.Fprintf(out, "  egress:  $%8.2f\n  storage: $%8.2f\n  compute: $%8.2f\n  total:   $%8.2f\n",
			egress, storage, compute, egress+storage+compute)
		fmt.Fprintf(out, "(the paper's real deployment exceeded USD 6k/month)\n")
		return nil
	case "report":
		cache := scenario.NewArtifactCache()
		cache.UseScheduler(sched)
		return scenario.RenderArtifact(out, p, cache, c.artifact, c.days, c.minSamples)
	default:
		return fmt.Errorf("unknown command %q", c.name)
	}
}

// resumeCmd re-enters a killed command from the manifest in its checkpoint
// directory: the engine is rebuilt from the recorded identity, with the
// runtime knobs from this invocation's flags, and the command runs again
// under a resume scheduler — finished campaigns load from their
// checkpoints, partial ones resume from their watermark, never-started ones
// run fresh — printing what the uninterrupted command would have.
func resumeCmd(positional []string, out io.Writer, flags core.Options) error {
	if len(positional) != 1 {
		return fmt.Errorf("usage: clasp resume <checkpoint-dir>")
	}
	dir := positional[0]
	man, err := checkpoint.LoadManifest(dir)
	if err != nil {
		return err
	}
	opts := core.ResumeOptions(man.Identity)
	opts.Parallelism, opts.MaxMemoryMB, opts.SpillDir, opts.CheckpointDir = flags.Parallelism, flags.MaxMemoryMB, flags.SpillDir, dir
	p, err := clasp.New(opts)
	if err != nil {
		return err
	}
	c := command{name: man.Command, artifact: man.Artifact, days: man.Days, minSamples: man.MinSamples}
	for _, camp := range man.Campaigns {
		c.refs = append(c.refs, core.CampaignRef{Kind: camp.Kind, Region: camp.Region, Days: camp.Days, MinSamples: camp.MinSamples})
	}
	return c.run(out, p, true)
}

// scenarioCmd runs the declarative-scenario subcommands.
func scenarioCmd(cmd string, positional []string, out io.Writer) error {
	if len(positional) != 1 {
		return fmt.Errorf("usage: clasp %s <%s>", cmd, map[string]string{"run": "scenario.json", "fleet": "dir"}[cmd])
	}
	r := scenario.NewRunner()
	if cmd == "fleet" {
		return r.FleetDir(out, positional[0])
	}
	spec, err := scenario.LoadFile(positional[0])
	if err != nil {
		return err
	}
	return r.Run(out, spec)
}

// dispatch runs one classic subcommand against an initialised platform.
func dispatch(cmd string, positional []string, p *clasp.Platform, out io.Writer, days, minSamples int) error {
	if cmd == "select" {
		if len(positional) != 1 {
			return fmt.Errorf("usage: clasp select <region>")
		}
		region, eng := positional[0], p.Engine()
		sel, err := eng.SelectTopologyServers(region)
		if err != nil {
			return err
		}
		// Router IDs run from 0 in the order alias resolution found them.
		routers, viaNext := 0, 0
		for _, id := range sel.PilotLinks.Routers() {
			routers = max(routers, id+1)
		}
		for _, l := range sel.PilotLinks.Links {
			if l.ViaNextHop {
				viaNext++
			}
		}
		fmt.Fprintf(out, "Topology-based selection (%s): pilot links %d (%d routers, %d owned via next hop), server links %d, selected %d (coverage %.1f%%)\n",
			region, sel.PilotLinks.LinkCount(), routers, viaNext, sel.ServerLinkCount, len(sel.Selected), sel.Coverage()*100)
		for _, s := range sel.Selected {
			fmt.Fprintf(out, "  %-38s %-18s AS%-10d hops=%d rtt=%.1fms far=%s\n",
				s.Server.Host, s.Server.City, s.Server.ASN, s.ASHops, s.RTTms, s.FarIP)
		}
		diff, _, err := eng.SelectDifferentialServers(region, minSamples)
		if err != nil {
			return err
		}
		core.WriteDifferentialSelection(out, region, diff)
		return nil
	}
	c, err := newCommand(cmd, positional, days, minSamples)
	if err != nil {
		return err
	}
	return c.run(out, p, false)
}

// newCommand reads a campaign, report or costs invocation.
func newCommand(name string, positional []string, days, minSamples int) (command, error) {
	c := command{name: name, days: days}
	switch name {
	case "campaign":
		if len(positional) != 1 {
			return c, fmt.Errorf("usage: clasp campaign <region>")
		}
		c.refs = []core.CampaignRef{{Kind: "topology", Region: positional[0], Days: days}}
	case "costs":
		c.days = costsDays
		for _, region := range core.TopologyRegions {
			c.refs = append(c.refs, core.CampaignRef{Kind: "topology", Region: region, Days: costsDays})
		}
	case "report":
		if len(positional) != 1 {
			return c, fmt.Errorf("usage: clasp report <table1|fig2|...|all>")
		}
		c.artifact, c.minSamples = positional[0], minSamples
		c.refs = scenario.CampaignRefs([]string{c.artifact}, days, minSamples)
	default:
		return c, fmt.Errorf("unknown command %q", name)
	}
	return c, nil
}

// writeMetricsDump writes the end-of-run telemetry: Prometheus text
// exposition to path and the structured JSON snapshot to path.json.
func writeMetricsDump(path string) error {
	var buf strings.Builder
	if err := obs.Default().WriteProm(&buf); err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	js, err := json.MarshalIndent(obs.Default().Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := os.WriteFile(path+".json", append(js, '\n'), 0o644); err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	return nil
}
