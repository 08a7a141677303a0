package topology

import (
	"net/netip"
	"testing"
)

func small(t *testing.T) *Topology {
	t.Helper()
	cfg := PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewRejectsBadScale(t *testing.T) {
	cfg := PaperScaleConfig()
	cfg.Scale = 0
	if _, err := New(cfg); err == nil {
		t.Error("scale 0: want error")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := PaperScaleConfig()
	cfg.Scale = 0.1
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Links()) != len(b.Links()) || len(a.Servers()) != len(b.Servers()) {
		t.Fatalf("same seed differs: links %d/%d servers %d/%d",
			len(a.Links()), len(b.Links()), len(a.Servers()), len(b.Servers()))
	}
	for i, l := range a.Links() {
		m := b.Links()[i]
		if l.FarIP != m.FarIP || l.City != m.City || l.Neighbor != m.Neighbor {
			t.Fatalf("link %d differs: %+v vs %+v", i, l, m)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Links()) == len(c.Links())
	if same {
		diff := false
		for i := range a.Links() {
			if a.Links()[i].FarIP != c.Links()[i].FarIP {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical link sets")
	}
}

func TestCloudAndRegions(t *testing.T) {
	topo := small(t)
	if topo.Cloud == nil || topo.Cloud.ASN != 15169 || topo.Cloud.Type != TypeCloud {
		t.Fatalf("cloud AS wrong: %+v", topo.Cloud)
	}
	if len(topo.Regions) != 7 {
		t.Errorf("regions = %d, want 7", len(topo.Regions))
	}
	for _, r := range topo.Regions {
		if _, ok := topo.Geo.Lookup(r.City); !ok {
			t.Errorf("region %s host city %q not in geo DB", r.Name, r.City)
		}
		if len(r.Zones) != 3 {
			t.Errorf("region %s has %d zones", r.Name, len(r.Zones))
		}
	}
	if _, ok := topo.Region("us-west1"); !ok {
		t.Error("us-west1 missing")
	}
	if _, ok := topo.Region("mars-east1"); ok {
		t.Error("unexpected region found")
	}
}

func TestAnchorASesPresent(t *testing.T) {
	topo := small(t)
	checks := []struct {
		asn  ASN
		name string
		typ  ASType
	}{
		{174, "Cogent", TypeTier1},
		{22773, "Cox", TypeAccess},
		{7922, "Comcast", TypeAccess},
		{19108, "Suddenlink", TypeAccess},
		{33548, "unWired Broadband", TypeAccess},
		{46276, "Smarterbroadband", TypeAccess},
		{1221, "Telstra", TypeAccess},
		{136334, "Vortex Netsol", TypeAccess},
		{45194, "Joister Broadband", TypeAccess},
	}
	for _, c := range checks {
		a := topo.AS(c.asn)
		if a == nil {
			t.Errorf("missing anchor AS%d", c.asn)
			continue
		}
		if a.Name != c.name || a.Type != c.typ {
			t.Errorf("AS%d = %s/%v, want %s/%v", c.asn, a.Name, a.Type, c.name, c.typ)
		}
	}
	// Cox must be congestion-prone with the daytime pattern (§4.2).
	cox := topo.AS(22773)
	if !cox.Congestion.Prone || !cox.Congestion.Daytime {
		t.Errorf("Cox congestion profile wrong: %+v", cox.Congestion)
	}
}

func TestRelationshipsValleyFreeStructure(t *testing.T) {
	topo := small(t)
	// Every non-cloud, non-tier1 AS must have at least one provider,
	// otherwise it would be unreachable.
	for _, a := range topo.ASes() {
		if a.Type == TypeCloud || a.Type == TypeTier1 {
			continue
		}
		if len(topo.Providers(a.ASN)) == 0 {
			t.Errorf("%s (AS%d, %v) has no providers", a.Name, a.ASN, a.Type)
		}
	}
	// Tier-1s must not have providers.
	for _, a := range topo.ASes() {
		if a.Type == TypeTier1 && len(topo.Providers(a.ASN)) > 0 {
			t.Errorf("tier1 %s has providers", a.Name)
		}
	}
	// Peering symmetry.
	for _, a := range topo.ASes() {
		for _, p := range topo.Peers(a.ASN) {
			found := false
			for _, q := range topo.Peers(p) {
				if q == a.ASN {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("peering %d-%d not symmetric", a.ASN, p)
			}
		}
	}
	// Provider/customer consistency.
	for _, a := range topo.ASes() {
		for _, p := range topo.Providers(a.ASN) {
			found := false
			for _, c := range topo.Customers(p) {
				if c == a.ASN {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("c2p %d->%d missing reverse customer edge", a.ASN, p)
			}
		}
	}
}

func TestInterconnectIntegrity(t *testing.T) {
	topo := small(t)
	links := topo.Links()
	if len(links) < 200 {
		t.Fatalf("links = %d, want a few hundred at 0.1 scale", len(links))
	}
	seenFar := make(map[netip.Addr]bool)
	for _, l := range links {
		if topo.AS(l.Neighbor) == nil {
			t.Fatalf("link %d neighbor AS%d unknown", l.ID, l.Neighbor)
		}
		if _, ok := topo.Geo.Lookup(l.City); !ok {
			t.Errorf("link %d city %q not in geo DB", l.ID, l.City)
		}
		if !l.NearIP.IsValid() || !l.FarIP.IsValid() || l.NearIP == l.FarIP {
			t.Errorf("link %d bad interface IPs %v/%v", l.ID, l.NearIP, l.FarIP)
		}
		if seenFar[l.FarIP] {
			t.Errorf("duplicate far IP %v", l.FarIP)
		}
		seenFar[l.FarIP] = true
		if l.CapacityMbps < 10000 {
			t.Errorf("link %d capacity %v too small", l.ID, l.CapacityMbps)
		}
		if l.Headroom < 200 || l.Headroom > 700 {
			t.Errorf("link %d headroom %v outside [200,700]", l.ID, l.Headroom)
		}
		if topo.Link(l.ID) != l {
			t.Errorf("Link(%d) lookup broken", l.ID)
		}
	}
}

func TestFarIPAddressing(t *testing.T) {
	topo := small(t)
	pt := topo.PrefixTable()
	cloudSpace, neighborSpace := 0, 0
	for _, l := range topo.Links() {
		asn := pt.LookupASN(l.FarIP)
		if l.FarIPFromCloudSpace {
			cloudSpace++
			// Interconnect /30s from cloud space are unannounced, so the
			// lookup must miss (bdrmap's next-hop heuristic case).
			if asn != 0 {
				t.Errorf("cloud-numbered link %d far IP resolves to AS%d, want unrouted", l.ID, asn)
			}
		} else {
			neighborSpace++
			if asn != l.Neighbor {
				t.Errorf("link %d far IP %v resolves to AS%d, want AS%d", l.ID, l.FarIP, asn, l.Neighbor)
			}
		}
	}
	total := cloudSpace + neighborSpace
	frac := float64(cloudSpace) / float64(total)
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("cloud-space far-IP fraction = %.2f, want ~0.3", frac)
	}
}

func TestRegionVisibility(t *testing.T) {
	topo := small(t)
	total := len(topo.Links())
	for _, r := range topo.Regions {
		vis := topo.VisibleLinks(r.Name)
		frac := float64(len(vis)) / float64(total)
		if frac < 0.6 || frac > 1.0 {
			t.Errorf("%s visibility %.2f outside [0.6,1]", r.Name, frac)
		}
		// Every cloud neighbor must keep at least one visible link.
		seen := make(map[ASN]bool)
		for _, l := range vis {
			seen[l.Neighbor] = true
		}
		for _, nb := range topo.CloudNeighbors() {
			if !seen[nb] {
				t.Errorf("%s: neighbor AS%d has no visible link", r.Name, nb)
			}
		}
		for _, l := range vis {
			if !topo.IsVisible(r.Name, l.ID) {
				t.Errorf("IsVisible inconsistent for link %d", l.ID)
			}
		}
	}
}

func TestProbeTargets(t *testing.T) {
	topo := small(t)
	for _, l := range topo.Links() {
		addr, ok := topo.ProbeTarget(l.ID)
		if !ok {
			t.Fatalf("link %d has no probe target", l.ID)
		}
		// The probe address must be inside the neighbor's prefix so the
		// pilot's prefix-to-AS resolution maps it to the neighbor.
		nb := topo.AS(l.Neighbor)
		if !nb.Prefix.Contains(addr) {
			t.Errorf("probe %v for link %d outside neighbor prefix %v", addr, l.ID, nb.Prefix)
		}
	}
}

func TestServers(t *testing.T) {
	topo := small(t)
	servers := topo.Servers()
	if len(servers) < 50 {
		t.Fatalf("servers = %d", len(servers))
	}
	seenIP := make(map[netip.Addr]bool)
	platforms := make(map[Platform]int)
	for _, s := range servers {
		a := topo.AS(s.ASN)
		if a == nil {
			t.Fatalf("server %d in unknown AS%d", s.ID, s.ASN)
		}
		if !a.Prefix.Contains(s.IP) {
			t.Errorf("server %d IP %v outside AS prefix %v", s.ID, s.IP, a.Prefix)
		}
		if seenIP[s.IP] {
			t.Errorf("duplicate server IP %v", s.IP)
		}
		seenIP[s.IP] = true
		if s.AccessMbps < 1000 {
			t.Errorf("server %d access %v < 1000 (Ookla requirement)", s.ID, s.AccessMbps)
		}
		if topo.Server(s.ID) != s {
			t.Errorf("Server(%d) lookup broken", s.ID)
		}
		platforms[s.Platform]++
	}
	for _, p := range []Platform{PlatformOokla, PlatformMLab, PlatformComcast} {
		if platforms[p] == 0 {
			t.Errorf("no servers on platform %v", p)
		}
	}
	// Anchor servers the analysis narrates must exist.
	var coxLV, cogentHosted bool
	for _, s := range servers {
		if s.ASN == 22773 && s.City == "Las Vegas" {
			coxLV = true
		}
		if s.ASN == 174 {
			cogentHosted = true
		}
	}
	if !coxLV {
		t.Error("missing Cox Las Vegas server (needed for Fig 3)")
	}
	if !cogentHosted {
		t.Error("missing Cogent-hosted servers (needed for Fig 6a)")
	}
}

func TestServersInCountry(t *testing.T) {
	topo := small(t)
	us := topo.ServersInCountry("US")
	if len(us) == 0 {
		t.Fatal("no US servers")
	}
	intl := len(topo.Servers()) - len(us)
	if intl == 0 {
		t.Error("no international servers (differential method needs them)")
	}
	for _, s := range us {
		if s.Country != "US" {
			t.Errorf("ServersInCountry returned %s server", s.Country)
		}
	}
}

func TestEdgeVPs(t *testing.T) {
	topo := small(t)
	vps := topo.EdgeVPs()
	if len(vps) < 200 {
		t.Fatalf("edge VPs = %d", len(vps))
	}
	asns := make(map[ASN]bool)
	for _, v := range vps {
		a := topo.AS(v.ASN)
		if a == nil || a.Type != TypeAccess {
			t.Fatalf("VP %d in non-access AS", v.ID)
		}
		if !a.Prefix.Contains(v.IP) {
			t.Errorf("VP %d IP outside AS prefix", v.ID)
		}
		asns[v.ASN] = true
	}
	if len(asns) < 20 {
		t.Errorf("VPs span only %d ASes", len(asns))
	}
}

func TestRouterAliases(t *testing.T) {
	topo := small(t)
	multi := 0
	for _, l := range topo.Links() {
		aliases := topo.RouterAliases(l.FarRouter)
		if len(aliases) < 2 {
			t.Errorf("router %d has %d interfaces, want >= 2 (loopback + link)", l.FarRouter, len(aliases))
		}
		found := false
		for _, a := range aliases {
			if a == l.FarIP {
				found = true
			}
			if got := topo.RouterOf(a); got != l.FarRouter {
				t.Errorf("RouterOf(%v) = %d, want %d", a, got, l.FarRouter)
			}
		}
		if !found {
			t.Errorf("router %d aliases missing its far IP", l.FarRouter)
		}
		if len(aliases) > 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-link routers generated; alias resolution has nothing to do")
	}
	if topo.RouterOf(netip.MustParseAddr("203.0.113.7")) != -1 {
		t.Error("RouterOf unknown IP should be -1")
	}
}

func TestLossyLinksExist(t *testing.T) {
	topo := small(t)
	lossy := 0
	for _, l := range topo.Links() {
		if l.Lossy {
			lossy++
			if l.LossRate < 0.05 || l.LossRate > 0.2 {
				t.Errorf("lossy link %d rate %v outside [0.05,0.2]", l.ID, l.LossRate)
			}
		}
	}
	frac := float64(lossy) / float64(len(topo.Links()))
	if frac < 0.01 || frac > 0.1 {
		t.Errorf("lossy fraction %.3f, want ~0.04", frac)
	}
}

func TestPaperScaleStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	topo, err := New(PaperScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	// ~6k interdomain links discovered per region (Table 1: 5,255-6,609).
	nl := len(topo.Links())
	if nl < 4000 || nl > 11000 {
		t.Errorf("global links = %d, want order 6-8k", nl)
	}
	for _, r := range topo.Regions {
		v := len(topo.VisibleLinks(r.Name))
		if v < 3500 || v > 10000 {
			t.Errorf("%s visible links = %d, want order 5-7k", r.Name, v)
		}
	}
	// ~1.3k US servers (paper found 1,329).
	us := len(topo.ServersInCountry("US"))
	if us < 1100 || us > 1500 {
		t.Errorf("US servers = %d, want ~1329", us)
	}
	// >10k networks of edge vantage points.
	if len(topo.EdgeVPs()) < 9000 {
		t.Errorf("edge VPs = %d, want ~10k", len(topo.EdgeVPs()))
	}
}
