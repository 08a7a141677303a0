package pfx2as

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLookupLongestMatch(t *testing.T) {
	tb := New()
	tb.Insert(mustPrefix(t, "10.0.0.0/8"), Origin{100})
	tb.Insert(mustPrefix(t, "10.1.0.0/16"), Origin{200})
	tb.Insert(mustPrefix(t, "10.1.2.0/24"), Origin{300})

	cases := []struct {
		addr string
		want ASN
	}{
		{"10.2.3.4", 100},
		{"10.1.9.9", 200},
		{"10.1.2.9", 300},
		{"11.0.0.1", 0},
	}
	for _, c := range cases {
		if got := tb.LookupASN(netip.MustParseAddr(c.addr)); got != c.want {
			t.Errorf("LookupASN(%s) = %v, want AS%d", c.addr, got, c.want)
		}
	}
}

func TestLookupASN(t *testing.T) {
	tb := New()
	tb.Insert(mustPrefix(t, "192.0.2.0/24"), Origin{64496})
	if got := tb.LookupASN(netip.MustParseAddr("192.0.2.55")); got != 64496 {
		t.Errorf("LookupASN = %v", got)
	}
	if got := tb.LookupASN(netip.MustParseAddr("198.51.100.1")); got != 0 {
		t.Errorf("LookupASN miss = %v, want 0", got)
	}
	if got := tb.LookupASN(netip.Addr{}); got != 0 {
		t.Errorf("LookupASN invalid = %v, want 0", got)
	}
}

func TestInsertReplace(t *testing.T) {
	tb := New()
	p := mustPrefix(t, "10.0.0.0/8")
	tb.Insert(p, Origin{1})
	tb.Insert(p, Origin{2})
	if got := tb.LookupASN(netip.MustParseAddr("10.0.0.1")); got != 2 {
		t.Errorf("replaced origin = %v, want 2", got)
	}
}

func TestInsertMasksHostBits(t *testing.T) {
	tb := New()
	tb.Insert(netip.PrefixFrom(netip.MustParseAddr("10.1.2.3"), 8), Origin{7})
	if got := tb.LookupASN(netip.MustParseAddr("10.200.0.1")); got != 7 {
		t.Errorf("masked insert lookup = %v, want 7", got)
	}
}

func TestIPv6(t *testing.T) {
	tb := New()
	tb.Insert(mustPrefix(t, "2001:db8::/32"), Origin{15169})
	tb.Insert(mustPrefix(t, "2001:db8:1::/48"), Origin{13335})
	if got := tb.LookupASN(netip.MustParseAddr("2001:db8:1::5")); got != 13335 {
		t.Errorf("v6 /48 lookup = %v", got)
	}
	if got := tb.LookupASN(netip.MustParseAddr("2001:db8:2::5")); got != 15169 {
		t.Errorf("v6 /32 lookup = %v", got)
	}
	// v4 and v6 tries are independent.
	if got := tb.LookupASN(netip.MustParseAddr("32.1.13.184")); got != 0 {
		t.Errorf("v4 lookup in v6-only table = %v", got)
	}
}

func TestMappedV4Lookup(t *testing.T) {
	tb := New()
	tb.Insert(mustPrefix(t, "10.0.0.0/8"), Origin{42})
	mapped := netip.AddrFrom16(netip.MustParseAddr("::ffff:10.1.1.1").As16())
	if got := tb.LookupASN(mapped); got != 42 {
		t.Errorf("4-in-6 lookup = %v, want 42", got)
	}
}

func TestOriginHelpers(t *testing.T) {
	o := Origin{701, 702}
	if o.Primary() != 701 {
		t.Errorf("Primary = %v", o.Primary())
	}
	if o.String() != "701_702" {
		t.Errorf("String = %q", o.String())
	}
	var empty Origin
	if empty.Primary() != 0 {
		t.Error("empty Primary should be 0")
	}
	if ASN(15169).String() != "AS15169" {
		t.Errorf("ASN.String = %q", ASN(15169).String())
	}
}

// Property: after inserting a random set of /16s keyed by their first two
// octets, lookups inside each prefix return the inserted AS.
func TestRandomPrefixLookupProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New()
		type ins struct {
			a, b byte
			asn  ASN
		}
		var inserted []ins
		seen := map[[2]byte]bool{}
		for i := 0; i < 50; i++ {
			a, b := byte(rng.Intn(200)+1), byte(rng.Intn(256))
			if seen[[2]byte{a, b}] {
				continue
			}
			seen[[2]byte{a, b}] = true
			asn := ASN(rng.Intn(60000) + 1)
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, 0, 0}), 16)
			tb.Insert(p, Origin{asn})
			inserted = append(inserted, ins{a, b, asn})
		}
		for _, in := range inserted {
			addr := netip.AddrFrom4([4]byte{in.a, in.b, byte(rng.Intn(256)), byte(rng.Intn(256))})
			if tb.LookupASN(addr) != in.asn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
