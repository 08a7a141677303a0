package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	db := DefaultDB()
	la, _ := db.Lookup("Los Angeles")
	ny, _ := db.Lookup("New York")
	d := DistanceKm(la.Coord(), ny.Coord())
	// Great-circle LA-NYC is ~3940 km.
	if d < 3800 || d > 4100 {
		t.Errorf("LA-NYC distance = %.0f km, want ~3940", d)
	}
	// Same point is zero.
	if z := DistanceKm(la.Coord(), la.Coord()); z != 0 {
		t.Errorf("self distance = %v", z)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		d1 := DistanceKm(a, b)
		d2 := DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0 && d1 <= 20100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func clampLat(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 90)
}

func clampLon(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 180)
}

func TestPropagationDelay(t *testing.T) {
	// 1000 km with 1.5x stretch at 200 km/ms = 7.5 ms one-way.
	if d := PropagationDelayMs(1000); math.Abs(d-7.5) > 1e-9 {
		t.Errorf("PropagationDelayMs(1000) = %v, want 7.5", d)
	}
	if r := RTTMs(Coord{0, 0}, Coord{0, 0}); r != 0 {
		t.Errorf("RTT of same point = %v", r)
	}
}

func TestRTTCrossCountry(t *testing.T) {
	db := DefaultDB()
	sf, _ := db.Lookup("San Francisco")
	ny, _ := db.Lookup("New York")
	rtt := RTTMs(sf.Coord(), ny.Coord())
	// Real SF-NYC RTT is ~60-70 ms; our model should land in a plausible band.
	if rtt < 40 || rtt > 90 {
		t.Errorf("SF-NYC RTT = %.1f ms, want 40-90", rtt)
	}
}

func TestDefaultDBIntegrity(t *testing.T) {
	db := DefaultDB()
	if n := len(db.All()); n < 150 {
		t.Errorf("default DB has %d cities, want >= 150", n)
	}
	for _, c := range db.All() {
		if c.Lat < -90 || c.Lat > 90 {
			t.Errorf("%s: bad latitude %v", c.Name, c.Lat)
		}
		if c.Lon < -180 || c.Lon > 180 {
			t.Errorf("%s: bad longitude %v", c.Name, c.Lon)
		}
		if c.UTCOffset < -12 || c.UTCOffset > 14 {
			t.Errorf("%s: bad UTC offset %d", c.Name, c.UTCOffset)
		}
		if c.Pop <= 0 {
			t.Errorf("%s: bad population %d", c.Name, c.Pop)
		}
		if c.Country == "" {
			t.Errorf("%s: missing country", c.Name)
		}
	}
}

func TestRegionHostCitiesPresent(t *testing.T) {
	db := DefaultDB()
	// The cities hosting the paper's GCP regions must exist.
	for _, name := range []string{
		"The Dalles", "Los Angeles", "Las Vegas",
		"Moncks Corner", "Ashburn", "Council Bluffs", "St. Ghislain",
	} {
		if _, ok := db.Lookup(name); !ok {
			t.Errorf("missing region host city %q", name)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	db := DefaultDB()
	if _, ok := db.Lookup("Atlantis"); ok {
		t.Error("Lookup(Atlantis) should miss")
	}
}

func TestNewDBDuplicate(t *testing.T) {
	_, err := NewDB([]City{{Name: "X"}, {Name: "X"}})
	if err == nil {
		t.Error("duplicate city name: want error")
	}
}

func TestInCountrySorted(t *testing.T) {
	db := DefaultDB()
	us := db.InCountry("US")
	if len(us) < 100 {
		t.Errorf("US cities = %d, want >= 100", len(us))
	}
	for i := 1; i < len(us); i++ {
		if us[i].Pop > us[i-1].Pop {
			t.Errorf("InCountry not sorted by population at %d", i)
		}
	}
	if len(db.InCountry("XX")) != 0 {
		t.Error("unknown country should be empty")
	}
}

func TestLocalHour(t *testing.T) {
	c := City{UTCOffset: -8} // Pacific
	cases := []struct{ utc, want int }{
		{0, 16}, {8, 0}, {12, 4}, {23, 15},
	}
	for _, cs := range cases {
		if got := c.LocalHour(cs.utc); got != cs.want {
			t.Errorf("LocalHour(%d) = %d, want %d", cs.utc, got, cs.want)
		}
	}
	syd := City{UTCOffset: 10}
	if got := syd.LocalHour(20); got != 6 {
		t.Errorf("Sydney LocalHour(20) = %d, want 6", got)
	}
}

func TestLocalHourProperty(t *testing.T) {
	f := func(utcHour uint8, off int8) bool {
		c := City{UTCOffset: int(off % 15)}
		h := c.LocalHour(int(utcHour % 24))
		return h >= 0 && h < 24
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCityString(t *testing.T) {
	c := City{Name: "Austin", Region: "TX", Country: "US"}
	if got := c.String(); got != "Austin, TX, US" {
		t.Errorf("String = %q", got)
	}
	b := City{Name: "Brussels", Country: "BE"}
	if got := b.String(); got != "Brussels, BE" {
		t.Errorf("String = %q", got)
	}
}
