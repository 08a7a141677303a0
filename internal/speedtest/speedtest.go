// Package speedtest defines the common vocabulary of CLASP's three speed
// test platforms — result records, server metadata, and the directory that
// serves a platform's server list — plus the Client interface each protocol
// implementation (ookla, ndt7, xfinity) satisfies.
package speedtest

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// Result is the outcome of one speed test as the web UI would report it.
type Result struct {
	Platform     string    `json:"platform"`
	Server       string    `json:"server"` // host:port or identifier
	DownloadMbps float64   `json:"download_mbps"`
	UploadMbps   float64   `json:"upload_mbps"`
	LatencyMs    float64   `json:"latency_ms"`
	Start        time.Time `json:"start"`
	Duration     float64   `json:"duration_sec"`
	BytesDown    int64     `json:"bytes_down"`
	BytesUp      int64     `json:"bytes_up"`
}

// Client runs a speed test against one server.
type Client interface {
	// Run executes latency, download and upload phases against the
	// server at addr (host:port) and returns the combined result.
	Run(ctx context.Context, addr string) (Result, error)
	// Platform names the protocol family ("ookla", "mlab", "comcast").
	Platform() string
}

// ServerInfo is the metadata a platform's server directory exposes: what
// CLASP crawls to build its candidate list (§3.1).
type ServerInfo struct {
	ID       int     `json:"id"`
	Platform string  `json:"platform"`
	Host     string  `json:"host"`
	IP       string  `json:"ip"`
	City     string  `json:"city"`
	Country  string  `json:"country"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	Sponsor  string  `json:"sponsor"` // network operating the server
	ASN      uint32  `json:"asn"`
}

// Directory serves a platform's server list as JSON, mirroring the
// endpoints the paper crawled (e.g. Ookla's server list API).
type Directory struct {
	servers []ServerInfo
}

// NewDirectory creates a directory over a fixed server list.
func NewDirectory(servers []ServerInfo) *Directory {
	cp := make([]ServerInfo, len(servers))
	copy(cp, servers)
	sort.Slice(cp, func(i, j int) bool { return cp[i].ID < cp[j].ID })
	return &Directory{servers: cp}
}

// ServeHTTP implements http.Handler: GET returns the JSON server list,
// optionally filtered by ?country=XX.
func (d *Directory) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	list := d.servers
	if cc := r.URL.Query().Get("country"); cc != "" {
		filtered := make([]ServerInfo, 0, len(list))
		for _, s := range list {
			if s.Country == cc {
				filtered = append(filtered, s)
			}
		}
		list = filtered
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(list); err != nil {
		// Too late for an HTTP error; the connection is what it is.
		return
	}
}

// Mbps converts a byte count and elapsed duration to megabits per second.
func Mbps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / elapsed.Seconds()
}
