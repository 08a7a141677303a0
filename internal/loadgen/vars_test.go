package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadVarsAndReduce drives readVars and reduce against canned
// /debug/vars replies: the drive's series are windowed and tagged from
// their ids, an unchanged series and the harness's own /debug/vars reads
// are dropped, other families are ignored, and a reply a daemon could not
// have written is refused.
func TestReadVarsAndReduce(t *testing.T) {
	const (
		before = `{"cmdline": ["speedtestd"], "clasp_obs": {
			"speedtestd_http_request_duration_ns{route=\"/servers.json\",status=\"200\"}": {"count": 1, "sum": 3, "buckets": {"4": 1}},
			"speedtestd_http_request_duration_ns{route=\"/speedtest/latency\",status=\"200\"}": {"count": 2, "sum": 9, "buckets": {"8": 2}},
			"speedtestd_http_request_duration_ns{route=\"/debug/vars\",status=\"200\"}": {"count": 1, "sum": 5, "buckets": {"8": 1}},
			"tsdb_inserts_total{shard=\"0\"}": 12}}`
		after = `{"clasp_obs": {
			"speedtestd_http_request_duration_ns{route=\"/servers.json\",status=\"200\"}": {"count": 4, "sum": 99, "buckets": {"4": 1, "64": 4}},
			"speedtestd_http_request_duration_ns{route=\"/speedtest/latency\",status=\"200\"}": {"count": 2, "sum": 9, "buckets": {"8": 2}},
			"speedtestd_http_request_duration_ns{route=\"/debug/vars\",status=\"200\"}": {"count": 9, "sum": 45, "buckets": {"8": 9}},
			"ookla_command_duration_ns{cmd=\"PING\"}": {"count": 2, "sum": 4, "buckets": {"2": 2}},
			"tsdb_inserts_total{shard=\"0\"}": 40}}`
	)
	reply := before
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/vars" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(reply))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	ctx := context.Background()

	b, err := readVars(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 || b.total() != 3 {
		t.Fatalf("before = %+v, want the two drive series holding 3 observations", b)
	}
	reply = after
	a, err := settledVars(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reduce(b, a, "speedtestd_http_request_duration_ns")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != 3 || got[0].Tags["route"] != "/servers.json" || got[0].Tags["status"] != "200" || len(got[0].Tags) != 2 {
		t.Fatalf("http quantiles = %+v, want /servers.json alone with 3 observations", got)
	}
	if q := got[0]; !(q.P50 > 4 && q.P50 <= q.P90 && q.P90 <= q.P99 && q.P99 <= 64) {
		t.Fatalf("/servers.json p50/p90/p99 = %v/%v/%v, want ordered inside (4, 64]", q.P50, q.P90, q.P99)
	}
	if got, err := reduce(b, a, OoklaDurationFamily); err != nil || len(got) != 1 || got[0].Tags["cmd"] != "PING" || got[0].Count != 2 {
		t.Fatalf("ookla quantiles = %+v, %v", got, err)
	}

	for _, bad := range []string{
		`{"clasp_obs": {"speedtestd_http_request_duration_ns{route=\"/x\"": {"count": 1}}}`,
		`{"clasp_obs": {"ookla_command_duration_ns{cmd=\"PING\"}": 7}}`,
		`{"clasp_obs": [1, 2]}`,
	} {
		reply = bad
		if snap, err := readVars(ctx, addr); err == nil {
			t.Errorf("reply %s accepted: %+v", bad, snap)
		}
	}
	reply = `{"clasp_obs": {"ookla_command_duration_ns{cmd=\"PING\"}": {"count": 1, "buckets": {"eight": 1}}}}`
	if snap, err := readVars(ctx, addr); err != nil {
		t.Fatal(err)
	} else if _, err := reduce(nil, snap, OoklaDurationFamily); err == nil {
		t.Error("a bucket key that is no bound reduced without error")
	}
}
