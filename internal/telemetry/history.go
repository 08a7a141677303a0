package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// HistoryResponse is the JSON shape served by HistoryHandler: the windowed
// contents of one measurement in the self-telemetry store.
type HistoryResponse struct {
	Measurement string          `json:"measurement"`
	FromNs      int64           `json:"from_ns,omitempty"`
	ToNs        int64           `json:"to_ns,omitempty"`
	Series      []HistorySeries `json:"series"`
}

// HistorySeries is one tagged series in a HistoryResponse.
type HistorySeries struct {
	Tags   map[string]string `json:"tags,omitempty"`
	Points []HistoryPoint    `json:"points"`
}

// HistoryPoint is one sample: unix-nanosecond timestamp plus fields.
type HistoryPoint struct {
	TimeNs int64              `json:"t"`
	Fields map[string]float64 `json:"fields"`
}

// ToSeries converts a decoded response back into tsdb series — the form
// WindowsFromSeries consumes, letting loadgen compute percentiles from the
// daemon's own scraped history.
func (h HistoryResponse) ToSeries() []tsdb.Series {
	out := make([]tsdb.Series, 0, len(h.Series))
	for _, s := range h.Series {
		sr := tsdb.Series{Tags: tsdb.Tags(s.Tags)}
		for _, p := range s.Points {
			sr.Points = append(sr.Points, tsdb.Point{Time: time.Unix(0, p.TimeNs).UTC(), Fields: p.Fields})
		}
		out = append(out, sr)
	}
	return out
}

// HistoryHandler serves GET /debug/obs/history over a self-telemetry
// store. Query parameters:
//
//	measurement  required; the scraped series family (e.g. "tsdb_inserts_total"
//	             or "speedtestd_http_request_duration_ns_bucket")
//	from, to     optional window bounds, RFC 3339 or integer unix seconds;
//	             `to` is inclusive (the handler widens the store's
//	             exclusive upper bound by 1ns)
//	last         optional duration (e.g. "5m") meaning from = now - last;
//	             overrides `from`
//	tag.<k>=<v>  optional tag filters, all must match
//
// Responses are always JSON; errors use status 400 with {"error": ...}.
type HistoryHandler struct {
	Store *tsdb.Store
	// Now is the clock behind `last`; defaults to time.Now.
	Now func() time.Time
}

func (h *HistoryHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	q := r.URL.Query()
	measurement := q.Get("measurement")
	if measurement == "" {
		historyError(w, "missing required parameter: measurement")
		return
	}
	from, err := parseHistoryTime(q.Get("from"))
	if err != nil {
		historyError(w, "bad from: %v", err)
		return
	}
	to, err := parseHistoryTime(q.Get("to"))
	if err != nil {
		historyError(w, "bad to: %v", err)
		return
	}
	if last := q.Get("last"); last != "" {
		d, err := time.ParseDuration(last)
		if err != nil {
			historyError(w, "bad last: %v", err)
			return
		}
		now := time.Now
		if h.Now != nil {
			now = h.Now
		}
		from = now().Add(-d)
	}
	match := tsdb.Tags{}
	for k, vs := range q {
		if tag, ok := strings.CutPrefix(k, "tag."); ok && len(vs) > 0 {
			match[tag] = vs[0]
		}
	}

	var end time.Time
	if !to.IsZero() {
		end = to.Add(time.Nanosecond)
	}
	resp := HistoryResponse{Measurement: measurement, Series: []HistorySeries{}}
	if !from.IsZero() {
		resp.FromNs = from.UnixNano()
	}
	if !to.IsZero() {
		resp.ToNs = to.UnixNano()
	}
	for _, sr := range h.Store.Query(measurement, match, from, end) {
		hs := HistorySeries{Tags: sr.Tags, Points: make([]HistoryPoint, 0, len(sr.Points))}
		for _, p := range sr.Points {
			hs.Points = append(hs.Points, HistoryPoint{TimeNs: p.Time.UnixNano(), Fields: p.Fields})
		}
		resp.Series = append(resp.Series, hs)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// historyError answers a bad query: 400 and the reason as JSON.
func historyError(w http.ResponseWriter, format string, args ...any) {
	w.WriteHeader(http.StatusBadRequest)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseHistoryTime accepts RFC 3339 or integer unix seconds; "" is the
// zero time (unbounded).
func parseHistoryTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	var sec int64
	if _, err := fmt.Sscanf(s, "%d", &sec); err == nil && fmt.Sprintf("%d", sec) == s {
		return time.Unix(sec, 0).UTC(), nil
	}
	return time.Time{}, fmt.Errorf("want RFC3339 or unix seconds, got %q", s)
}
