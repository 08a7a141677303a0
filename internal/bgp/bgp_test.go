package bgp

import (
	"testing"

	"github.com/clasp-measurement/clasp/internal/geo"
	"github.com/clasp-measurement/clasp/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestEveryASReachesCloud(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	tr := r.TreeTo(topo.Cloud.ASN)
	for _, a := range topo.ASes() {
		path, ok := tr.Path(a.ASN)
		if !ok {
			t.Errorf("AS%d (%s) cannot reach the cloud", a.ASN, a.Name)
			continue
		}
		if path[0] != a.ASN || path[len(path)-1] != topo.Cloud.ASN {
			t.Errorf("path endpoints wrong: %v", path)
		}
	}
}

func TestCloudReachesEveryAS(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	for _, a := range topo.ASes() {
		if _, ok := r.Path(topo.Cloud.ASN, a.ASN); !ok {
			t.Errorf("cloud cannot reach AS%d (%s, %v)", a.ASN, a.Name, a.Type)
		}
	}
}

// valleyFree checks Gao-Rexford validity for a path: once the path stops
// climbing (customer->provider) it may take at most one peer edge and must
// then only descend (provider->customer).
func valleyFree(t *testing.T, topo *topology.Topology, path []ASN) bool {
	t.Helper()
	rel := func(a, b ASN) string {
		for _, p := range topo.Providers(a) {
			if p == b {
				return "up" // a -> its provider
			}
		}
		for _, c := range topo.Customers(a) {
			if c == b {
				return "down"
			}
		}
		for _, p := range topo.Peers(a) {
			if p == b {
				return "peer"
			}
		}
		return "none"
	}
	// Phases: 0 = climbing, 1 = after peer, 2 = descending.
	phase := 0
	for i := 0; i+1 < len(path); i++ {
		switch rel(path[i], path[i+1]) {
		case "up":
			if phase != 0 {
				return false
			}
		case "peer":
			if phase != 0 {
				return false
			}
			phase = 1
		case "down":
			phase = 2
		default:
			return false
		}
	}
	return true
}

func TestPathsAreValleyFree(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	tr := r.TreeTo(topo.Cloud.ASN)
	for _, a := range topo.ASes() {
		path, ok := tr.Path(a.ASN)
		if !ok {
			continue
		}
		if !valleyFree(t, topo, path) {
			t.Errorf("path from AS%d not valley-free: %v", a.ASN, path)
		}
		// No loops.
		seen := make(map[ASN]bool)
		for _, h := range path {
			if seen[h] {
				t.Errorf("loop in path from AS%d: %v", a.ASN, path)
				break
			}
			seen[h] = true
		}
	}
}

func TestPathsToServersValleyFree(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	for _, s := range topo.Servers() {
		path, ok := r.Path(topo.Cloud.ASN, s.ASN)
		if !ok {
			t.Errorf("no path to server %d AS%d", s.ID, s.ASN)
			continue
		}
		if !valleyFree(t, topo, path) {
			t.Errorf("path to server AS%d not valley-free: %v", s.ASN, path)
		}
	}
}

func TestDirectPeerPathLength(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	// Cox directly peers with the cloud: AS path must be exactly 1 hop.
	if p, _ := r.Path(22773, topo.Cloud.ASN); len(p) != 2 {
		t.Errorf("Cox -> cloud AS path = %v, want 1 hop", p)
	}
	if p, _ := r.Path(topo.Cloud.ASN, 22773); len(p) != 2 {
		t.Errorf("cloud -> Cox AS path = %v, want 1 hop", p)
	}
	// Self distance is zero.
	if p, _ := r.Path(topo.Cloud.ASN, topo.Cloud.ASN); len(p) != 1 {
		t.Errorf("self path = %v", p)
	}
}

func TestPathDeterminism(t *testing.T) {
	topo := testTopo(t)
	r1 := NewRouter(topo)
	r2 := NewRouter(topo)
	for _, s := range topo.Servers()[:30] {
		p1, ok1 := r1.Path(s.ASN, topo.Cloud.ASN)
		p2, ok2 := r2.Path(s.ASN, topo.Cloud.ASN)
		if ok1 != ok2 || len(p1) != len(p2) {
			t.Fatalf("nondeterministic path for AS%d", s.ASN)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("nondeterministic path for AS%d: %v vs %v", s.ASN, p1, p2)
			}
		}
	}
}

func TestEgressLinkTierPolicy(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	// Pick a server on the opposite coast from the region so premium and
	// standard anchors differ.
	var east *topology.Server
	for _, s := range topo.Servers() {
		if s.Country == "US" && s.Lon > -85 {
			east = s
			break
		}
	}
	if east == nil {
		t.Skip("no east-coast server in small topology")
	}
	prem, err := r.EgressLink("us-west1", east.ASN, east.City, Premium)
	if err != nil {
		t.Fatal(err)
	}
	std, err := r.EgressLink("us-west1", east.ASN, east.City, Standard)
	if err != nil {
		t.Fatal(err)
	}
	if prem.Link.Neighbor != std.Link.Neighbor {
		t.Errorf("tiers picked different neighbors: %d vs %d", prem.Link.Neighbor, std.Link.Neighbor)
	}
	// Premium link should be at least as close to the destination as the
	// standard one; standard at least as close to the region.
	dst, _ := topo.CityCoord(east.City)
	reg, _ := topo.CityCoord("The Dalles")
	pc, _ := topo.CityCoord(prem.Link.City)
	sc, _ := topo.CityCoord(std.Link.City)
	if distKm(pc, dst) > distKm(sc, dst)+1 {
		t.Errorf("premium egress (%s) farther from destination than standard (%s)", prem.Link.City, std.Link.City)
	}
	if distKm(sc, reg) > distKm(pc, reg)+1 {
		t.Errorf("standard egress (%s) farther from region than premium (%s)", std.Link.City, prem.Link.City)
	}
	// Both links must be visible from the region.
	if !topo.IsVisible("us-west1", prem.Link.ID) || !topo.IsVisible("us-west1", std.Link.ID) {
		t.Error("selected link not visible from region")
	}
}

func distKm(a, b geo.Coord) float64 { return geo.DistanceKm(a, b) }

func TestIngressLinkTierPolicy(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	var srv *topology.Server
	for _, s := range topo.Servers() {
		if s.ASN == 22773 && s.City == "Las Vegas" {
			srv = s
			break
		}
	}
	if srv == nil {
		t.Fatal("Cox Las Vegas server missing")
	}
	prem, err := r.IngressLink("us-east1", srv.ASN, srv.City, Premium)
	if err != nil {
		t.Fatal(err)
	}
	std, err := r.IngressLink("us-east1", srv.ASN, srv.City, Standard)
	if err != nil {
		t.Fatal(err)
	}
	// Cox peers directly: the ingress neighbor must be Cox itself.
	if prem.Link.Neighbor != 22773 || std.Link.Neighbor != 22773 {
		t.Errorf("ingress neighbors = %d/%d, want Cox 22773", prem.Link.Neighbor, std.Link.Neighbor)
	}
	// Path ends at the cloud.
	if prem.Path[len(prem.Path)-1] != topo.Cloud.ASN {
		t.Errorf("ingress path does not end at cloud: %v", prem.Path)
	}
}

func TestEgressErrors(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	if _, err := r.EgressLink("nonexistent-region", 22773, "Las Vegas", Standard); err == nil {
		t.Error("unknown region: want error")
	}
	if _, err := r.EgressLink("us-west1", 4294967295, "Las Vegas", Premium); err == nil {
		t.Error("unknown AS: want error")
	}
	if _, err := r.EgressLink("us-west1", 22773, "Nowhere", Premium); err == nil {
		t.Error("unknown city: want error")
	}
}

func TestEgressForProbe(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	region := "us-west1"
	hit := 0
	for _, l := range topo.VisibleLinks(region)[:50] {
		nb := topo.AS(l.Neighbor)
		choice, err := r.EgressForProbe(region, &ProbeDest{ASN: l.Neighbor, City: nb.Cities[0], LinkID: l.ID})
		if err != nil {
			t.Fatalf("probe to link %d: %v", l.ID, err)
		}
		if choice.Link.ID == l.ID {
			hit++
		}
	}
	if hit < 45 {
		t.Errorf("engineered probes hit their link only %d/50 times", hit)
	}
	// Fallback for non-engineered destination.
	srv := topo.Servers()[0]
	if _, err := r.EgressForProbe(region, &ProbeDest{ASN: srv.ASN, City: srv.City, LinkID: -1}); err != nil {
		t.Errorf("fallback probe: %v", err)
	}
}

func TestTierString(t *testing.T) {
	if Premium.String() != "premium" || Standard.String() != "standard" {
		t.Error("Tier.String broken")
	}
}
