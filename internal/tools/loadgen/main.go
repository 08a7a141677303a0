// Command loadgen drives a speedtestd with concurrent real-protocol
// clients and prints the daemon's serving-path latency percentiles,
// reconstructed from two reads of the daemon's /debug/vars histograms, one
// before the drive and one after it.
//
// Usage:
//
//	loadgen -http HOST:PORT [-ookla HOST:PORT] [flags]   drive a running daemon
//	loadgen -boot [flags]                                boot an in-process
//	                                                     daemon on ephemeral
//	                                                     ports and drive that
//
// Flags:
//
//	-clients N       concurrent clients (default 100)
//	-per-client N    tests per client (default 2)
//	-duration D      per-phase transfer duration (default 100ms)
//	-platforms LIST  comma-separated mix: ookla,mlab,comcast (default all)
//	-json            emit the full result as JSON instead of a table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/clasp-measurement/clasp/internal/daemon"
	"github.com/clasp-measurement/clasp/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	httpAddr := flag.String("http", "", "daemon HTTP address (ndt7 + xfinity + /debug/vars)")
	ooklaAddr := flag.String("ookla", "", "daemon Ookla TCP address (omit to skip ookla)")
	boot := flag.Bool("boot", false, "boot an in-process daemon on ephemeral ports and drive it")
	clients := flag.Int("clients", 100, "concurrent clients")
	perClient := flag.Int("per-client", 2, "tests per client")
	duration := flag.Duration("duration", 100*time.Millisecond, "per-phase transfer duration")
	platforms := flag.String("platforms", "", "comma-separated platform mix (ookla,mlab,comcast)")
	asJSON := flag.Bool("json", false, "emit the full result as JSON")
	flag.Parse()

	if *boot {
		d, err := daemon.Start(daemon.Config{
			OoklaAddr:    "127.0.0.1:0",
			HTTPAddr:     "127.0.0.1:0",
			NDT7Duration: *duration,
		})
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			_ = d.Shutdown(ctx)
		}()
		*httpAddr = d.HTTPAddr().String()
		*ooklaAddr = d.OoklaAddr().String()
		fmt.Fprintf(os.Stderr, "loadgen: booted daemon http=%s ookla=%s\n", *httpAddr, *ooklaAddr)
	}
	if *httpAddr == "" {
		return fmt.Errorf("need -http HOST:PORT (or -boot)")
	}

	cfg := loadgen.Config{
		HTTPAddr:  *httpAddr,
		OoklaAddr: *ooklaAddr,
		Clients:   *clients,
		PerClient: *perClient,
		Duration:  *duration,
	}
	if *platforms != "" {
		cfg.Platforms = strings.Split(*platforms, ",")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("loadgen: %d/%d tests ok (%d failed) in %s\n",
		res.Succeeded, res.Requested, res.Failed, res.Elapsed.Round(time.Millisecond))
	plats := make([]string, 0, len(res.ByPlat))
	for p := range res.ByPlat {
		plats = append(plats, p)
	}
	sort.Strings(plats)
	for _, p := range plats {
		fmt.Printf("  %-8s %d ok\n", p, res.ByPlat[p])
	}
	for _, e := range res.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	fmt.Printf("serving-path latency (daemon-side, from /debug/vars before and after):\n")
	printQuantiles(res.HTTP)
	if len(res.Ookla) > 0 {
		fmt.Printf("ookla command latency:\n")
		printQuantiles(res.Ookla)
	}
	return nil
}

func printQuantiles(qs []loadgen.Quantiles) {
	for _, q := range qs {
		keys := make([]string, 0, len(q.Tags))
		for k := range q.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, k+"="+q.Tags[k])
		}
		fmt.Printf("  %-52s n=%-6d p50=%-10s p90=%-10s p99=%s\n",
			strings.Join(parts, " "), q.Count, ms(q.P50), ms(q.P90), ms(q.P99))
	}
}

// ms renders a nanosecond quantile as milliseconds.
func ms(ns float64) string {
	if math.IsNaN(ns) {
		return "n/a"
	}
	return fmt.Sprintf("%.3fms", ns/1e6)
}
