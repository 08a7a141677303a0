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
//	clasp resume <checkpoint>         continue a campaign from a checkpoint
//	                                  directory written by -checkpoint-dir;
//	                                  the finished run's output is
//	                                  byte-identical to a never-killed run
//
// Flags follow the subcommand and its positional arguments; `clasp <command>
// -h` lists them with their defaults. run and fleet read everything from
// the spec instead (and reject the flag that a spec key replaces), and resume
// takes the run's identity from the checkpoint and only the runtime flags
// (-parallelism, -max-memory, -spill-dir) from the command line.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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
	debugAddr := fs.String("debug-addr", "", "enable metrics and serve live introspection (/metrics, /progress, /debug/obs/history, /debug/pprof/) on this address while the command runs")
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
	if cmd == "run" || cmd == "fleet" {
		// A scenario takes every engine knob from its spec; these flags
		// used to parse here and be silently ignored.
		var misplaced error
		fs.Visit(func(f *flag.Flag) {
			if key, ok := specKeys[f.Name]; ok && misplaced == nil {
				misplaced = fmt.Errorf("-%s: clasp %s reads it from the spec, not the command line: set %q there", f.Name, cmd, key)
			}
		})
		if misplaced != nil {
			return misplaced
		}
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
		// renders, and a background scrape pipeline gives /debug/obs/history
		// real time-series depth. Both are pure observers of the registry.
		pipe := telemetry.NewPipeline(telemetry.PipelineConfig{})
		pipe.Start()
		defer pipe.Stop()
		dbg, err := telemetry.StartDebug(*debugAddr, telemetry.Introspection{
			History:  pipe.Store,
			Progress: true,
		})
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "clasp: introspection on http://%s (/metrics /progress /debug/obs/history /debug/pprof/)\n", dbg.Addr())
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
		cmdErr = dispatch(cmd, positional, p, p.Engine(), out, *days, minSamples)
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
	fs.IntVar(&o.MaxMemoryMB, "max-memory", 0, "campaign record memory budget in MB (0 = unbounded); larger campaigns spill their compressed record log to disk, with byte-identical reports")
	fs.StringVar(&o.SpillDir, "spill-dir", "", "`dir` for spilled record logs (default: the system temp dir); spill files are unlinked at creation")
	fs.StringVar(&o.CheckpointDir, "checkpoint-dir", "", "enable campaign checkpointing: commit progress and records under this `dir` by atomic rename; continue a killed run with clasp resume <dir>")
	fs.IntVar(&o.CheckpointEvery, "checkpoint-every", 0, "checkpoint every N campaign rounds (default every round; needs -checkpoint-dir)")
}

// specKeys maps each flag that shapes a run — bindOptions', -days and
// -samples — to the scenario-spec key that sets the same knob.
var specKeys = map[string]string{
	"seed": "seed", "scale": "topology.scale", "parallelism": "parallelism", "fault-profile": "faultProfile",
	"max-memory": "maxMemoryMB", "spill-dir": "spillDir", "checkpoint-dir": "checkpointDir", "checkpoint-every": "checkpointEvery",
	"days": "days", "samples": "minSamples",
}

// costsDays is the campaign length of the `costs` command's all-region
// deployment, matching the paper's one-week bill.
const costsDays = 7

// costsRefs is the campaign set `costs` runs, in plan order.
func costsRefs() []core.CampaignRef {
	refs := make([]core.CampaignRef, len(core.TopologyRegions))
	for i, r := range core.TopologyRegions {
		refs[i] = core.CampaignRef{Kind: "topology", Region: r, Days: costsDays}
	}
	return refs
}

// printCosts renders the simulated bill after the costs campaign set.
func printCosts(out io.Writer, p *clasp.Platform) {
	egress, storage, compute := p.Costs()
	fmt.Fprintf(out, "Simulated 7-day all-region bill:\n")
	fmt.Fprintf(out, "  egress:  $%8.2f\n  storage: $%8.2f\n  compute: $%8.2f\n  total:   $%8.2f\n",
		egress, storage, compute, egress+storage+compute)
	fmt.Fprintf(out, "(the paper's real deployment exceeded USD 6k/month)\n")
}

// resumeEngine rebuilds the engine that wrote a checkpoint or command
// manifest: the identity comes from disk, the runtime knobs from this
// invocation's flags, and ckRoot is the checkpoint directory the run keeps
// committing under.
func resumeEngine(id checkpoint.Identity, ckRoot string, flags core.Options) (*core.CLASP, error) {
	opts := core.ResumeOptions(id)
	opts.Parallelism, opts.MaxMemoryMB, opts.SpillDir = flags.Parallelism, flags.MaxMemoryMB, flags.SpillDir
	opts.CheckpointDir = ckRoot
	return core.New(opts)
}

// resumeCmd continues a checkpointed command or campaign to completion and
// prints the finished run's output — byte-identical to what the
// uninterrupted command would have printed. A directory holding a command
// manifest re-enters the multi-campaign scheduler (finished campaigns are
// skipped, partial ones resume from their watermark, never-started ones
// run fresh); a bare campaign checkpoint takes the single-campaign path.
func resumeCmd(positional []string, out io.Writer, flags core.Options) error {
	if len(positional) != 1 {
		return fmt.Errorf("usage: clasp resume <checkpoint-dir>")
	}
	man, err := checkpoint.LoadManifest(positional[0])
	if err != nil {
		return err
	}
	if man != nil {
		return resumeCommand(man, positional[0], out, flags)
	}
	ck, err := checkpoint.Load(positional[0])
	if err != nil {
		return err
	}
	eng, err := resumeEngine(ck.Meta.Campaign.Identity, filepath.Dir(ck.Dir), flags)
	if err != nil {
		return err
	}
	res, err := eng.ResumeCampaign(ck)
	if err != nil {
		return err
	}
	p := clasp.NewFromCore(eng)
	if ck.Meta.Campaign.Kind == "differential" {
		clasp.WriteCampaignSummary(out, res)
		tc, err := p.CompareTiers(res)
		if err != nil {
			return err
		}
		clasp.WriteTierComparison(out, tc)
		return nil
	}
	return printCampaign(out, p, res)
}

// resumeCommand re-enters a killed multi-campaign command from its
// manifest: the engine is rebuilt from the recorded identity, a resume
// scheduler attaches the per-campaign checkpoints, and the command's
// normal render path runs — loading finished campaigns from their
// checkpoints, resuming partial ones, and running the rest.
func resumeCommand(man *checkpoint.Manifest, dir string, out io.Writer, flags core.Options) error {
	eng, err := resumeEngine(man.Identity, dir, flags)
	if err != nil {
		return err
	}
	p := clasp.NewFromCore(eng)
	name := man.Command
	if man.Artifact != "" {
		name += "-" + man.Artifact
	}
	sched := eng.NewResumeScheduler(name)
	sched.OnSkip = func(camp checkpoint.Campaign) {
		fmt.Fprintf(os.Stderr, "clasp: skipping finished campaign %s\n", checkpoint.CampaignDir(camp))
	}
	switch man.Command {
	case "report":
		cache := scenario.NewArtifactCache()
		cache.UseScheduler(sched)
		return scenario.RenderArtifact(out, p, cache, man.Artifact, man.Days, man.MinSamples)
	case "costs":
		regions := make([]string, len(man.Campaigns))
		for i, c := range man.Campaigns {
			regions[i] = c.Region
		}
		if err := p.RunTopologyCampaigns(regions, man.Days); err != nil {
			return err
		}
		printCosts(out, p)
		return nil
	default:
		return fmt.Errorf("resume: manifest in %s has unknown command %q", dir, man.Command)
	}
}

// printCampaign renders a finished campaign exactly like `clasp campaign`:
// the orchestration summary, the resilience line when anything degraded,
// and (optionally) the congestion report.
func printCampaign(out io.Writer, p *clasp.Platform, res *core.CampaignResult) error {
	clasp.WriteCampaignSummary(out, res)
	rep, err := p.CongestionReport(res)
	if err != nil {
		return err
	}
	clasp.WriteReport(out, rep)
	return nil
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
func dispatch(cmd string, positional []string, p *clasp.Platform, eng *core.CLASP, out io.Writer, days, minSamples int) error {
	switch cmd {
	case "select":
		if len(positional) != 1 {
			return fmt.Errorf("usage: clasp select <region>")
		}
		region := positional[0]
		sel, err := eng.SelectTopologyServers(region)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Topology-based selection (%s): pilot links %d, server links %d, selected %d (coverage %.1f%%)\n",
			region, sel.PilotLinks.LinkCount(), sel.ServerLinkCount, len(sel.Selected), sel.Coverage()*100)
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

	case "campaign":
		if len(positional) != 1 {
			return fmt.Errorf("usage: clasp campaign <region>")
		}
		res, err := p.RunTopologyCampaign(positional[0], days)
		if err != nil {
			return err
		}
		return printCampaign(out, p, res)

	case "costs":
		// All regions measure concurrently, like the real deployment. The
		// command scheduler accounts whole-command progress and, with
		// -checkpoint-dir set, records the campaign set in a manifest so
		// `clasp resume` can skip whatever already finished.
		sched := eng.NewCommandScheduler("costs")
		if err := sched.WriteManifest("costs", "", costsRefs(), costsDays, 0); err != nil {
			return err
		}
		if err := p.RunTopologyCampaigns(core.TopologyRegions, costsDays); err != nil {
			return err
		}
		printCosts(out, p)
		return nil

	case "report":
		if len(positional) != 1 {
			return fmt.Errorf("usage: clasp report <table1|fig2|...|all>")
		}
		artifact := positional[0]
		sched := eng.NewCommandScheduler("report-" + artifact)
		if err := sched.WriteManifest("report", artifact, scenario.CampaignRefs([]string{artifact}, days, minSamples), days, minSamples); err != nil {
			return err
		}
		cache := scenario.NewArtifactCache()
		cache.UseScheduler(sched)
		return scenario.RenderArtifact(out, p, cache, artifact, days, minSamples)

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
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
