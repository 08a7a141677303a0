package orchestrator

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/someta"
	"github.com/clasp-measurement/clasp/internal/telemetry"
)

func TestCaptureTestUploadsLatestSnapshotOnly(t *testing.T) {
	f := setup(t)
	srv := f.topo.Servers()[0]
	at := time.Date(2020, 5, 1, 3, 0, 0, 0, time.UTC)
	collector := someta.NewCollector("vm-cap", nil)
	// Pre-load history: the meta artifact must hold only the snapshot taken
	// at capture time, not the whole campaign's history.
	collector.Snap(at.Add(-2 * time.Hour))
	collector.Snap(at.Add(-1 * time.Hour))

	res := netsim.TestResult{ThroughputMbps: 80, RTTms: 40, LossRate: 0.001}
	c := &campaign{o: f.orch, cfg: Config{Seed: 3}}
	spec := netsim.TestSpec{Region: "us-east1", Server: srv, Tier: bgp.Premium, Time: at, DurationSec: 15}
	if err := c.captureTest(spec, res, collector); err != nil {
		t.Fatal(err)
	}

	key := "us-east1/someta/2020-05-01/server-" + strconv.Itoa(srv.ID) + "-premium.json"
	data, ok := f.bucket.Get(key)
	if !ok {
		t.Fatalf("meta artifact %s not uploaded", key)
	}
	snaps := decodeSnapshots(t, data)
	if len(snaps) != 1 {
		t.Fatalf("meta artifact holds %d snapshots, want 1", len(snaps))
	}
	if !snaps[0].Timestamp.Equal(at) {
		t.Errorf("uploaded snapshot at %v, want capture time %v", snaps[0].Timestamp, at)
	}
}

// decodeSnapshots reads the JSON-lines stream someta.WriteJSON uploads.
func decodeSnapshots(t *testing.T, data []byte) []someta.Snapshot {
	t.Helper()
	var out []someta.Snapshot
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var s someta.Snapshot
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestMetricsDoNotChangeResults pins the disabled-path invariant from the
// obs package doc: a campaign produces bit-identical measurements and
// reports whether metrics and tracing are enabled or not — telemetry never
// feeds back into measurement arithmetic. A third run adds the full
// -debug-addr introspection stack (live HTTP server being polled plus a
// background scrape pipeline) and must still match byte for byte.
func TestMetricsDoNotChangeResults(t *testing.T) {
	run := func(enabled, introspect bool, trace *bytes.Buffer) ([]byte, *Report) {
		f := setup(t)
		if enabled {
			obs.SetEnabled(true)
			obs.SetTraceWriter(trace)
			defer func() {
				obs.SetTraceWriter(nil)
				obs.SetEnabled(false)
			}()
		}
		if introspect {
			// Mirror cmd/clasp -debug-addr: background scraper into a
			// self-store plus a live introspection server, polled while the
			// campaign runs to exercise the concurrent read path.
			pipe := telemetry.NewPipeline(telemetry.PipelineConfig{Interval: 5 * time.Millisecond})
			pipe.Start()
			defer pipe.Stop()
			dbg, err := telemetry.StartDebug("127.0.0.1:0", telemetry.Introspection{
				History:  pipe.Store,
				Progress: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer dbg.Close()
			base := "http://" + dbg.Addr().String()
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, p := range []string{"/metrics", "/progress"} {
						resp, err := http.Get(base + p)
						if err == nil {
							_, _ = io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
			}()
			defer func() {
				// Final poll before teardown: progress gauges must show the
				// finished campaign.
				close(stop)
				<-done
				resp, err := http.Get(base + "/progress")
				if err != nil {
					t.Fatal(err)
				}
				var pr telemetry.ProgressResponse
				if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				found := false
				for _, r := range pr.Regions {
					if r.Region == "us-east1" {
						found = true
						if r.HoursTotal != 24 || r.HoursDone != 24 {
							t.Errorf("progress hours = %v/%v, want 24/24", r.HoursDone, r.HoursTotal)
						}
						if r.ETASeconds != 0 {
							t.Errorf("finished campaign ETA = %v, want 0", r.ETASeconds)
						}
					}
				}
				if !found {
					t.Error("no us-east1 entry in /progress after campaign")
				}
			}()
		}
		log := analysis.NewRecordLog()
		rep, err := f.orch.Run(Config{
			Region:          "us-east1",
			Servers:         f.topo.USServers()[:6],
			Days:            1,
			Seed:            99,
			TestDurationSec: 0.2, // keeps the synthesized captures small
			CaptureEvery:    5,
			TracerouteEvery: 1,
			Parallelism:     2,
		}, log)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(records(log))
		if err != nil {
			t.Fatal(err)
		}
		return enc, rep
	}

	plain, repPlain := run(false, false, nil)
	var trace bytes.Buffer
	instrumented, repObs := run(true, false, &trace)
	var trace2 bytes.Buffer
	introspected, repIntro := run(true, true, &trace2)

	if !bytes.Equal(plain, instrumented) {
		t.Error("measurement stream differs with metrics enabled")
	}
	if !bytes.Equal(plain, introspected) {
		t.Error("measurement stream differs with live introspection + scraper active")
	}
	// MaxVMCPUUtil is host metadata: the someta default probe samples the
	// live goroutine count, which other tests' leftover goroutines and the
	// introspection server's own legitimately move between runs. Everything
	// derived from measurements must still match exactly.
	repPlain.MaxVMCPUUtil, repObs.MaxVMCPUUtil, repIntro.MaxVMCPUUtil = 0, 0, 0
	if !reflect.DeepEqual(repPlain, repObs) {
		t.Errorf("reports differ: %+v vs %+v", repPlain, repObs)
	}
	if !reflect.DeepEqual(repPlain, repIntro) {
		t.Errorf("reports differ under introspection: %+v vs %+v", repPlain, repIntro)
	}
	if trace.Len() == 0 {
		t.Fatal("tracing enabled but no span events written")
	}
	// Every trace line must be standalone JSON with the span fields.
	sc := bufio.NewScanner(&trace)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawCampaign, lines := false, 0
	for sc.Scan() {
		lines++
		var ev struct {
			Span  string            `json:"span"`
			ID    uint64            `json:"id"`
			DurNS int64             `json:"dur_ns"`
			Attrs map[string]string `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		if ev.Span == "campaign" && ev.Attrs["region"] == "us-east1" {
			sawCampaign = true
		}
	}
	if !sawCampaign {
		t.Errorf("no campaign root span among %d events", lines)
	}
}

// TestCampaignMetricsMatchReport cross-checks the campaign counters against
// the report the same Run returns, using deltas so earlier tests in the
// package (which share the default registry) don't interfere.
func TestCampaignMetricsMatchReport(t *testing.T) {
	f := setup(t)
	m := newCampaignMetrics("us-east1")
	before := map[string]uint64{
		"scheduled": m.scheduled.Value(),
		"completed": m.completed.Value(),
		"captures":  m.captures.Value(),
		"trs":       m.traceroutes.Value(),
		"snaps":     m.snapshots.Value(),
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	log := analysis.NewRecordLog()
	rep, err := f.orch.Run(Config{
		Region:          "us-east1",
		Servers:         f.topo.USServers()[:5],
		Days:            1,
		Seed:            7,
		TestDurationSec: 0.2, // keeps the synthesized captures small
		CaptureEvery:    4,
		TracerouteEvery: 1,
	}, log)
	if err != nil {
		t.Fatal(err)
	}

	if d := m.completed.Value() - before["completed"]; d != uint64(rep.Tests) {
		t.Errorf("completed delta = %d, want %d", d, rep.Tests)
	}
	if d := m.scheduled.Value() - before["scheduled"]; d != uint64(rep.Tests) {
		t.Errorf("scheduled delta = %d, want %d (all scheduled tests ran)", d, rep.Tests)
	}
	if d := m.captures.Value() - before["captures"]; d != uint64(rep.Captures) {
		t.Errorf("captures delta = %d, want %d", d, rep.Captures)
	}
	if d := m.traceroutes.Value() - before["trs"]; d != uint64(rep.Traceroutes) {
		t.Errorf("traceroutes delta = %d, want %d", d, rep.Traceroutes)
	}
	// One snapshot per VM-hour plus one per capture.
	wantSnaps := uint64(rep.VMs*rep.Hours + rep.Captures)
	if d := m.snapshots.Value() - before["snaps"]; d != wantSnaps {
		t.Errorf("snapshots delta = %d, want %d", d, wantSnaps)
	}
}

// TestCampaignFillsOneTree: a campaign warms the cloud's tree and the
// cloud's routes to its servers, and then — downloads, uploads and
// traceroutes alike — builds no other routing tree.
func TestCampaignFillsOneTree(t *testing.T) {
	f := setup(t) // a fresh simulator and router
	fills := obs.Default().Counter("bgp_tree_fills_total")
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	before := fills.Value()
	rep, err := f.orch.Run(Config{
		Region:          "us-east1",
		Servers:         f.topo.USServers()[:20],
		Days:            1,
		Seed:            7,
		TestDurationSec: 0.2, // keeps the synthesized captures small
		CaptureEvery:    4,
		TracerouteEvery: 1,
	}, analysis.NewRecordLog())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tests == 0 || rep.Traceroutes == 0 {
		t.Fatalf("campaign ran %d tests and %d traceroutes", rep.Tests, rep.Traceroutes)
	}
	if d := fills.Value() - before; d != 1 {
		t.Errorf("a campaign filled %d routing trees, want 1 (the cloud's)", d)
	}
}
