package speedtest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func sampleServers() []ServerInfo {
	return []ServerInfo{
		{ID: 2, Platform: "ookla", Host: "b.example.net", City: "Denver", Country: "US", ASN: 7922},
		{ID: 1, Platform: "ookla", Host: "a.example.net", City: "Las Vegas", Country: "US", ASN: 22773},
		{ID: 3, Platform: "mlab", Host: "c.example.net", City: "Sydney", Country: "AU", ASN: 1221},
	}
}

// fetch serves one GET of the directory and decodes the list it returns.
func fetch(t *testing.T, d *Directory, query string) []ServerInfo {
	t.Helper()
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/"+query, nil))
	var servers []ServerInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &servers); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("GET /%s: status %d, %v", query, rec.Code, err)
	}
	return servers
}

func TestDirectorySortsAndCopies(t *testing.T) {
	in := sampleServers()
	d := NewDirectory(in)
	if got := d.servers; len(got) != 3 || got[0].ID != 1 || got[2].ID != 3 {
		t.Errorf("directory order wrong: %+v", got)
	}
	in[0].Host = "mutated"
	if d.servers[1].Host == "mutated" {
		t.Error("directory aliases the caller's slice")
	}
}

func TestCrawlRoundTrip(t *testing.T) {
	servers := fetch(t, NewDirectory(sampleServers()), "")
	if len(servers) != 3 {
		t.Fatalf("crawled %d servers", len(servers))
	}
	if servers[0].City != "Las Vegas" || servers[0].ASN != 22773 {
		t.Errorf("server metadata lost: %+v", servers[0])
	}
}

func TestCrawlCountryFilter(t *testing.T) {
	d := NewDirectory(sampleServers())
	if us := fetch(t, d, "?country=US"); len(us) != 2 {
		t.Errorf("US filter returned %d", len(us))
	}
	if none := fetch(t, d, "?country=XX"); len(none) != 0 {
		t.Errorf("XX filter returned %d", len(none))
	}
}

func TestMbps(t *testing.T) {
	if v := Mbps(1_250_000, time.Second); v != 10 {
		t.Errorf("Mbps = %v, want 10", v)
	}
	if v := Mbps(100, 0); v != 0 {
		t.Errorf("Mbps zero duration = %v", v)
	}
}
