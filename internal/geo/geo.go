// Package geo provides the geographic substrate CLASP needs: a city database
// with coordinates and timezone offsets, great-circle distance, and
// propagation-delay estimation. The paper geolocates speed test servers and
// cloud regions (Fig. 7) and converts measurement timestamps to server-local
// time when computing hourly congestion probability (Fig. 6).
package geo

import (
	"fmt"
	"math"
	"sort"
)

// City is a populated place that can host speed test servers, edge vantage
// points, or cloud regions.
type City struct {
	Name      string  // city name, unique within the database
	Country   string  // ISO-like country code ("US", "BE", "IN", ...)
	Region    string  // state or province code where meaningful
	Lat, Lon  float64 // WGS84 degrees
	UTCOffset int     // standard-time offset from UTC in hours (no DST)
	Pop       int     // approximate metro population, used as a demand weight
}

// Coord is a bare latitude/longitude pair in degrees.
type Coord struct {
	Lat, Lon float64
}

// Coord returns the city's coordinates.
func (c City) Coord() Coord { return Coord{c.Lat, c.Lon} }

// String implements fmt.Stringer.
func (c City) String() string {
	if c.Region != "" {
		return fmt.Sprintf("%s, %s, %s", c.Name, c.Region, c.Country)
	}
	return fmt.Sprintf("%s, %s", c.Name, c.Country)
}

const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between two coordinates using
// the haversine formula.
func DistanceKm(a, b Coord) float64 {
	toRad := func(d float64) float64 { return d * math.Pi / 180 }
	lat1, lon1 := toRad(a.Lat), toRad(a.Lon)
	lat2, lon2 := toRad(b.Lat), toRad(b.Lon)
	dlat := lat2 - lat1
	dlon := lon2 - lon1
	h := math.Sin(dlat/2)*math.Sin(dlat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dlon/2)*math.Sin(dlon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// PropagationDelayMs estimates one-way fibre propagation delay in
// milliseconds for a great-circle distance, using the standard 2/3-c speed of
// light in fibre and a 1.5x path-stretch factor for real cable routes.
func PropagationDelayMs(km float64) float64 {
	const fibreKmPerMs = 200.0 // ~2/3 of c
	const pathStretch = 1.5
	return km * pathStretch / fibreKmPerMs
}

// RTTMs estimates the round-trip propagation time in milliseconds between
// two coordinates.
func RTTMs(a, b Coord) float64 {
	return 2 * PropagationDelayMs(DistanceKm(a, b))
}

// DB is an immutable city database.
type DB struct {
	cities []City
	byName map[string]int
}

// NewDB builds a database from the given cities. Duplicate names are
// rejected so lookups are unambiguous.
func NewDB(cities []City) (*DB, error) {
	db := &DB{
		cities: make([]City, len(cities)),
		byName: make(map[string]int, len(cities)),
	}
	copy(db.cities, cities)
	for i, c := range db.cities {
		if _, dup := db.byName[c.Name]; dup {
			return nil, fmt.Errorf("geo: duplicate city %q", c.Name)
		}
		db.byName[c.Name] = i
	}
	return db, nil
}

// DefaultDB returns the built-in database covering the GCP regions the paper
// deployed in, the US metro areas where speed test servers concentrate, and
// the international cities chosen by the differential-based method.
func DefaultDB() *DB {
	db, err := NewDB(builtinCities)
	if err != nil {
		panic(err) // built-in data is validated by tests
	}
	return db
}

// Lookup returns the city with the given name.
func (db *DB) Lookup(name string) (City, bool) {
	i, ok := db.byName[name]
	if !ok {
		return City{}, false
	}
	return db.cities[i], true
}

// All returns every city, sorted by name. The returned slice is a copy.
func (db *DB) All() []City {
	out := make([]City, len(db.cities))
	copy(out, db.cities)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// InCountry returns all cities in the given country, sorted by descending
// population.
func (db *DB) InCountry(country string) []City {
	var out []City
	for _, c := range db.cities {
		if c.Country == country {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pop != out[j].Pop {
			return out[i].Pop > out[j].Pop
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LocalHour converts a UTC hour-of-day (0-23) to the city's local hour.
func (c City) LocalHour(utcHour int) int {
	h := (utcHour + c.UTCOffset) % 24
	if h < 0 {
		h += 24
	}
	return h
}

// builtinCities is the embedded city dataset. Populations are approximate
// metro populations used only as relative demand weights in the simulator.
var builtinCities = []City{
	// --- GCP region host cities (paper deployment, Appendix A) ---
	{Name: "The Dalles", Country: "US", Region: "OR", Lat: 45.59, Lon: -121.18, UTCOffset: -8, Pop: 16000},
	{Name: "Los Angeles", Country: "US", Region: "CA", Lat: 34.05, Lon: -118.24, UTCOffset: -8, Pop: 13200000},
	{Name: "Las Vegas", Country: "US", Region: "NV", Lat: 36.17, Lon: -115.14, UTCOffset: -8, Pop: 2300000},
	{Name: "Moncks Corner", Country: "US", Region: "SC", Lat: 33.20, Lon: -80.01, UTCOffset: -5, Pop: 13000},
	{Name: "Ashburn", Country: "US", Region: "VA", Lat: 39.04, Lon: -77.49, UTCOffset: -5, Pop: 44000},
	{Name: "Council Bluffs", Country: "US", Region: "IA", Lat: 41.26, Lon: -95.86, UTCOffset: -6, Pop: 62000},
	{Name: "St. Ghislain", Country: "BE", Lat: 50.45, Lon: 3.82, UTCOffset: 1, Pop: 23000},

	// --- Major US metros (speed test server locations) ---
	{Name: "New York", Country: "US", Region: "NY", Lat: 40.71, Lon: -74.01, UTCOffset: -5, Pop: 19200000},
	{Name: "Chicago", Country: "US", Region: "IL", Lat: 41.88, Lon: -87.63, UTCOffset: -6, Pop: 9500000},
	{Name: "Houston", Country: "US", Region: "TX", Lat: 29.76, Lon: -95.37, UTCOffset: -6, Pop: 7100000},
	{Name: "Phoenix", Country: "US", Region: "AZ", Lat: 33.45, Lon: -112.07, UTCOffset: -7, Pop: 4900000},
	{Name: "Philadelphia", Country: "US", Region: "PA", Lat: 39.95, Lon: -75.17, UTCOffset: -5, Pop: 6200000},
	{Name: "San Antonio", Country: "US", Region: "TX", Lat: 29.42, Lon: -98.49, UTCOffset: -6, Pop: 2600000},
	{Name: "San Diego", Country: "US", Region: "CA", Lat: 32.72, Lon: -117.16, UTCOffset: -8, Pop: 3300000},
	{Name: "Dallas", Country: "US", Region: "TX", Lat: 32.78, Lon: -96.80, UTCOffset: -6, Pop: 7600000},
	{Name: "San Jose", Country: "US", Region: "CA", Lat: 37.34, Lon: -121.89, UTCOffset: -8, Pop: 2000000},
	{Name: "Austin", Country: "US", Region: "TX", Lat: 30.27, Lon: -97.74, UTCOffset: -6, Pop: 2300000},
	{Name: "Jacksonville", Country: "US", Region: "FL", Lat: 30.33, Lon: -81.66, UTCOffset: -5, Pop: 1600000},
	{Name: "San Francisco", Country: "US", Region: "CA", Lat: 37.77, Lon: -122.42, UTCOffset: -8, Pop: 4700000},
	{Name: "Columbus", Country: "US", Region: "OH", Lat: 39.96, Lon: -83.00, UTCOffset: -5, Pop: 2100000},
	{Name: "Indianapolis", Country: "US", Region: "IN", Lat: 39.77, Lon: -86.16, UTCOffset: -5, Pop: 2100000},
	{Name: "Fort Worth", Country: "US", Region: "TX", Lat: 32.76, Lon: -97.33, UTCOffset: -6, Pop: 950000},
	{Name: "Charlotte", Country: "US", Region: "NC", Lat: 35.23, Lon: -80.84, UTCOffset: -5, Pop: 2700000},
	{Name: "Seattle", Country: "US", Region: "WA", Lat: 47.61, Lon: -122.33, UTCOffset: -8, Pop: 4000000},
	{Name: "Denver", Country: "US", Region: "CO", Lat: 39.74, Lon: -104.99, UTCOffset: -7, Pop: 2900000},
	{Name: "Washington", Country: "US", Region: "DC", Lat: 38.91, Lon: -77.04, UTCOffset: -5, Pop: 6300000},
	{Name: "Boston", Country: "US", Region: "MA", Lat: 42.36, Lon: -71.06, UTCOffset: -5, Pop: 4900000},
	{Name: "El Paso", Country: "US", Region: "TX", Lat: 31.76, Lon: -106.49, UTCOffset: -7, Pop: 870000},
	{Name: "Nashville", Country: "US", Region: "TN", Lat: 36.16, Lon: -86.78, UTCOffset: -6, Pop: 2000000},
	{Name: "Detroit", Country: "US", Region: "MI", Lat: 42.33, Lon: -83.05, UTCOffset: -5, Pop: 4300000},
	{Name: "Oklahoma City", Country: "US", Region: "OK", Lat: 35.47, Lon: -97.52, UTCOffset: -6, Pop: 1400000},
	{Name: "Portland", Country: "US", Region: "OR", Lat: 45.52, Lon: -122.68, UTCOffset: -8, Pop: 2500000},
	{Name: "Memphis", Country: "US", Region: "TN", Lat: 35.15, Lon: -90.05, UTCOffset: -6, Pop: 1300000},
	{Name: "Louisville", Country: "US", Region: "KY", Lat: 38.25, Lon: -85.76, UTCOffset: -5, Pop: 1300000},
	{Name: "Baltimore", Country: "US", Region: "MD", Lat: 39.29, Lon: -76.61, UTCOffset: -5, Pop: 2800000},
	{Name: "Milwaukee", Country: "US", Region: "WI", Lat: 43.04, Lon: -87.91, UTCOffset: -6, Pop: 1600000},
	{Name: "Albuquerque", Country: "US", Region: "NM", Lat: 35.08, Lon: -106.65, UTCOffset: -7, Pop: 920000},
	{Name: "Tucson", Country: "US", Region: "AZ", Lat: 32.22, Lon: -110.97, UTCOffset: -7, Pop: 1100000},
	{Name: "Fresno", Country: "US", Region: "CA", Lat: 36.74, Lon: -119.79, UTCOffset: -8, Pop: 1000000},
	{Name: "Sacramento", Country: "US", Region: "CA", Lat: 38.58, Lon: -121.49, UTCOffset: -8, Pop: 2400000},
	{Name: "Kansas City", Country: "US", Region: "MO", Lat: 39.10, Lon: -94.58, UTCOffset: -6, Pop: 2200000},
	{Name: "Atlanta", Country: "US", Region: "GA", Lat: 33.75, Lon: -84.39, UTCOffset: -5, Pop: 6100000},
	{Name: "Omaha", Country: "US", Region: "NE", Lat: 41.26, Lon: -95.93, UTCOffset: -6, Pop: 970000},
	{Name: "Colorado Springs", Country: "US", Region: "CO", Lat: 38.83, Lon: -104.82, UTCOffset: -7, Pop: 760000},
	{Name: "Raleigh", Country: "US", Region: "NC", Lat: 35.78, Lon: -78.64, UTCOffset: -5, Pop: 1400000},
	{Name: "Miami", Country: "US", Region: "FL", Lat: 25.76, Lon: -80.19, UTCOffset: -5, Pop: 6200000},
	{Name: "Virginia Beach", Country: "US", Region: "VA", Lat: 36.85, Lon: -75.98, UTCOffset: -5, Pop: 1800000},
	{Name: "Oakland", Country: "US", Region: "CA", Lat: 37.80, Lon: -122.27, UTCOffset: -8, Pop: 440000},
	{Name: "Minneapolis", Country: "US", Region: "MN", Lat: 44.98, Lon: -93.27, UTCOffset: -6, Pop: 3700000},
	{Name: "Tulsa", Country: "US", Region: "OK", Lat: 36.15, Lon: -95.99, UTCOffset: -6, Pop: 1000000},
	{Name: "Tampa", Country: "US", Region: "FL", Lat: 27.95, Lon: -82.46, UTCOffset: -5, Pop: 3200000},
	{Name: "New Orleans", Country: "US", Region: "LA", Lat: 29.95, Lon: -90.07, UTCOffset: -6, Pop: 1300000},
	{Name: "Wichita", Country: "US", Region: "KS", Lat: 37.69, Lon: -97.34, UTCOffset: -6, Pop: 650000},
	{Name: "Cleveland", Country: "US", Region: "OH", Lat: 41.50, Lon: -81.69, UTCOffset: -5, Pop: 2100000},
	{Name: "Bakersfield", Country: "US", Region: "CA", Lat: 35.37, Lon: -119.02, UTCOffset: -8, Pop: 900000},
	{Name: "Aurora", Country: "US", Region: "CO", Lat: 39.73, Lon: -104.83, UTCOffset: -7, Pop: 390000},
	{Name: "Anaheim", Country: "US", Region: "CA", Lat: 33.84, Lon: -117.91, UTCOffset: -8, Pop: 350000},
	{Name: "Honolulu", Country: "US", Region: "HI", Lat: 21.31, Lon: -157.86, UTCOffset: -10, Pop: 1000000},
	{Name: "Santa Ana", Country: "US", Region: "CA", Lat: 33.75, Lon: -117.87, UTCOffset: -8, Pop: 330000},
	{Name: "Riverside", Country: "US", Region: "CA", Lat: 33.95, Lon: -117.40, UTCOffset: -8, Pop: 4600000},
	{Name: "Corpus Christi", Country: "US", Region: "TX", Lat: 27.80, Lon: -97.40, UTCOffset: -6, Pop: 440000},
	{Name: "Lexington", Country: "US", Region: "KY", Lat: 38.04, Lon: -84.50, UTCOffset: -5, Pop: 520000},
	{Name: "Stockton", Country: "US", Region: "CA", Lat: 37.96, Lon: -121.29, UTCOffset: -8, Pop: 770000},
	{Name: "St. Louis", Country: "US", Region: "MO", Lat: 38.63, Lon: -90.20, UTCOffset: -6, Pop: 2800000},
	{Name: "Pittsburgh", Country: "US", Region: "PA", Lat: 40.44, Lon: -79.99, UTCOffset: -5, Pop: 2300000},
	{Name: "Saint Paul", Country: "US", Region: "MN", Lat: 44.95, Lon: -93.09, UTCOffset: -6, Pop: 310000},
	{Name: "Cincinnati", Country: "US", Region: "OH", Lat: 39.10, Lon: -84.51, UTCOffset: -5, Pop: 2200000},
	{Name: "Anchorage", Country: "US", Region: "AK", Lat: 61.22, Lon: -149.90, UTCOffset: -9, Pop: 400000},
	{Name: "Henderson", Country: "US", Region: "NV", Lat: 36.04, Lon: -114.98, UTCOffset: -8, Pop: 320000},
	{Name: "Greensboro", Country: "US", Region: "NC", Lat: 36.07, Lon: -79.79, UTCOffset: -5, Pop: 770000},
	{Name: "Plano", Country: "US", Region: "TX", Lat: 33.02, Lon: -96.70, UTCOffset: -6, Pop: 290000},
	{Name: "Newark", Country: "US", Region: "NJ", Lat: 40.74, Lon: -74.17, UTCOffset: -5, Pop: 310000},
	{Name: "Lincoln", Country: "US", Region: "NE", Lat: 40.81, Lon: -96.68, UTCOffset: -6, Pop: 340000},
	{Name: "Buffalo", Country: "US", Region: "NY", Lat: 42.89, Lon: -78.88, UTCOffset: -5, Pop: 1100000},
	{Name: "Fort Wayne", Country: "US", Region: "IN", Lat: 41.08, Lon: -85.14, UTCOffset: -5, Pop: 430000},
	{Name: "Jersey City", Country: "US", Region: "NJ", Lat: 40.73, Lon: -74.08, UTCOffset: -5, Pop: 290000},
	{Name: "Chula Vista", Country: "US", Region: "CA", Lat: 32.64, Lon: -117.08, UTCOffset: -8, Pop: 280000},
	{Name: "Orlando", Country: "US", Region: "FL", Lat: 28.54, Lon: -81.38, UTCOffset: -5, Pop: 2700000},
	{Name: "St. Petersburg", Country: "US", Region: "FL", Lat: 27.77, Lon: -82.64, UTCOffset: -5, Pop: 270000},
	{Name: "Norfolk", Country: "US", Region: "VA", Lat: 36.85, Lon: -76.29, UTCOffset: -5, Pop: 240000},
	{Name: "Chandler", Country: "US", Region: "AZ", Lat: 33.31, Lon: -111.84, UTCOffset: -7, Pop: 280000},
	{Name: "Laredo", Country: "US", Region: "TX", Lat: 27.51, Lon: -99.51, UTCOffset: -6, Pop: 260000},
	{Name: "Madison", Country: "US", Region: "WI", Lat: 43.07, Lon: -89.40, UTCOffset: -6, Pop: 680000},
	{Name: "Durham", Country: "US", Region: "NC", Lat: 35.99, Lon: -78.90, UTCOffset: -5, Pop: 650000},
	{Name: "Lubbock", Country: "US", Region: "TX", Lat: 33.58, Lon: -101.86, UTCOffset: -6, Pop: 320000},
	{Name: "Winston-Salem", Country: "US", Region: "NC", Lat: 36.10, Lon: -80.24, UTCOffset: -5, Pop: 680000},
	{Name: "Garland", Country: "US", Region: "TX", Lat: 32.91, Lon: -96.64, UTCOffset: -6, Pop: 240000},
	{Name: "Glendale", Country: "US", Region: "AZ", Lat: 33.54, Lon: -112.19, UTCOffset: -7, Pop: 250000},
	{Name: "Hialeah", Country: "US", Region: "FL", Lat: 25.86, Lon: -80.28, UTCOffset: -5, Pop: 220000},
	{Name: "Reno", Country: "US", Region: "NV", Lat: 39.53, Lon: -119.81, UTCOffset: -8, Pop: 470000},
	{Name: "Baton Rouge", Country: "US", Region: "LA", Lat: 30.45, Lon: -91.19, UTCOffset: -6, Pop: 870000},
	{Name: "Irvine", Country: "US", Region: "CA", Lat: 33.68, Lon: -117.83, UTCOffset: -8, Pop: 310000},
	{Name: "Chesapeake", Country: "US", Region: "VA", Lat: 36.77, Lon: -76.29, UTCOffset: -5, Pop: 250000},
	{Name: "Irving", Country: "US", Region: "TX", Lat: 32.81, Lon: -96.95, UTCOffset: -6, Pop: 240000},
	{Name: "Scottsdale", Country: "US", Region: "AZ", Lat: 33.49, Lon: -111.93, UTCOffset: -7, Pop: 260000},
	{Name: "North Las Vegas", Country: "US", Region: "NV", Lat: 36.20, Lon: -115.12, UTCOffset: -8, Pop: 260000},
	{Name: "Fremont", Country: "US", Region: "CA", Lat: 37.55, Lon: -121.99, UTCOffset: -8, Pop: 230000},
	{Name: "Boise", Country: "US", Region: "ID", Lat: 43.62, Lon: -116.21, UTCOffset: -7, Pop: 750000},
	{Name: "Richmond", Country: "US", Region: "VA", Lat: 37.54, Lon: -77.44, UTCOffset: -5, Pop: 1300000},
	{Name: "Salt Lake City", Country: "US", Region: "UT", Lat: 40.76, Lon: -111.89, UTCOffset: -7, Pop: 1200000},
	{Name: "Spokane", Country: "US", Region: "WA", Lat: 47.66, Lon: -117.43, UTCOffset: -8, Pop: 570000},
	{Name: "Des Moines", Country: "US", Region: "IA", Lat: 41.59, Lon: -93.62, UTCOffset: -6, Pop: 700000},
	{Name: "Grass Valley", Country: "US", Region: "CA", Lat: 39.22, Lon: -121.06, UTCOffset: -8, Pop: 13000},
	{Name: "Billings", Country: "US", Region: "MT", Lat: 45.78, Lon: -108.50, UTCOffset: -7, Pop: 120000},
	{Name: "Fargo", Country: "US", Region: "ND", Lat: 46.88, Lon: -96.79, UTCOffset: -6, Pop: 250000},
	{Name: "Sioux Falls", Country: "US", Region: "SD", Lat: 43.55, Lon: -96.73, UTCOffset: -6, Pop: 280000},
	{Name: "Little Rock", Country: "US", Region: "AR", Lat: 34.75, Lon: -92.29, UTCOffset: -6, Pop: 750000},
	{Name: "Jackson", Country: "US", Region: "MS", Lat: 32.30, Lon: -90.18, UTCOffset: -6, Pop: 590000},
	{Name: "Birmingham", Country: "US", Region: "AL", Lat: 33.52, Lon: -86.80, UTCOffset: -6, Pop: 1100000},
	{Name: "Knoxville", Country: "US", Region: "TN", Lat: 35.96, Lon: -83.92, UTCOffset: -5, Pop: 890000},
	{Name: "Charleston", Country: "US", Region: "SC", Lat: 32.78, Lon: -79.93, UTCOffset: -5, Pop: 800000},
	{Name: "Savannah", Country: "US", Region: "GA", Lat: 32.08, Lon: -81.09, UTCOffset: -5, Pop: 400000},
	{Name: "Tallahassee", Country: "US", Region: "FL", Lat: 30.44, Lon: -84.28, UTCOffset: -5, Pop: 390000},
	{Name: "Mobile", Country: "US", Region: "AL", Lat: 30.69, Lon: -88.04, UTCOffset: -6, Pop: 430000},
	{Name: "Shreveport", Country: "US", Region: "LA", Lat: 32.53, Lon: -93.75, UTCOffset: -6, Pop: 390000},
	{Name: "Amarillo", Country: "US", Region: "TX", Lat: 35.22, Lon: -101.83, UTCOffset: -6, Pop: 270000},
	{Name: "Eugene", Country: "US", Region: "OR", Lat: 44.05, Lon: -123.09, UTCOffset: -8, Pop: 380000},
	{Name: "Tacoma", Country: "US", Region: "WA", Lat: 47.25, Lon: -122.44, UTCOffset: -8, Pop: 220000},
	{Name: "Provo", Country: "US", Region: "UT", Lat: 40.23, Lon: -111.66, UTCOffset: -7, Pop: 650000},
	{Name: "Santa Rosa", Country: "US", Region: "CA", Lat: 38.44, Lon: -122.71, UTCOffset: -8, Pop: 180000},
	{Name: "Bend", Country: "US", Region: "OR", Lat: 44.06, Lon: -121.32, UTCOffset: -8, Pop: 100000},
	{Name: "Missoula", Country: "US", Region: "MT", Lat: 46.87, Lon: -113.99, UTCOffset: -7, Pop: 75000},
	{Name: "Flagstaff", Country: "US", Region: "AZ", Lat: 35.20, Lon: -111.65, UTCOffset: -7, Pop: 76000},
	{Name: "Rochester", Country: "US", Region: "NY", Lat: 43.16, Lon: -77.61, UTCOffset: -5, Pop: 1100000},
	{Name: "Syracuse", Country: "US", Region: "NY", Lat: 43.05, Lon: -76.15, UTCOffset: -5, Pop: 650000},
	{Name: "Albany", Country: "US", Region: "NY", Lat: 42.65, Lon: -73.75, UTCOffset: -5, Pop: 880000},
	{Name: "Hartford", Country: "US", Region: "CT", Lat: 41.76, Lon: -72.67, UTCOffset: -5, Pop: 1200000},
	{Name: "Providence", Country: "US", Region: "RI", Lat: 41.82, Lon: -71.41, UTCOffset: -5, Pop: 1600000},
	{Name: "Manchester", Country: "US", Region: "NH", Lat: 42.99, Lon: -71.46, UTCOffset: -5, Pop: 110000},
	{Name: "Burlington", Country: "US", Region: "VT", Lat: 44.48, Lon: -73.21, UTCOffset: -5, Pop: 220000},
	{Name: "Portland ME", Country: "US", Region: "ME", Lat: 43.66, Lon: -70.26, UTCOffset: -5, Pop: 540000},

	// --- European cities (europe-west1 neighbourhood + differential picks) ---
	{Name: "Brussels", Country: "BE", Lat: 50.85, Lon: 4.35, UTCOffset: 1, Pop: 2100000},
	{Name: "Antwerp", Country: "BE", Lat: 51.22, Lon: 4.40, UTCOffset: 1, Pop: 1200000},
	{Name: "Amsterdam", Country: "NL", Lat: 52.37, Lon: 4.90, UTCOffset: 1, Pop: 2500000},
	{Name: "Rotterdam", Country: "NL", Lat: 51.92, Lon: 4.48, UTCOffset: 1, Pop: 1000000},
	{Name: "Paris", Country: "FR", Lat: 48.86, Lon: 2.35, UTCOffset: 1, Pop: 11000000},
	{Name: "Lyon", Country: "FR", Lat: 45.76, Lon: 4.84, UTCOffset: 1, Pop: 2300000},
	{Name: "London", Country: "GB", Lat: 51.51, Lon: -0.13, UTCOffset: 0, Pop: 9500000},
	{Name: "Manchester UK", Country: "GB", Lat: 53.48, Lon: -2.24, UTCOffset: 0, Pop: 2800000},
	{Name: "Frankfurt", Country: "DE", Lat: 50.11, Lon: 8.68, UTCOffset: 1, Pop: 2300000},
	{Name: "Berlin", Country: "DE", Lat: 52.52, Lon: 13.40, UTCOffset: 1, Pop: 3700000},
	{Name: "Munich", Country: "DE", Lat: 48.14, Lon: 11.58, UTCOffset: 1, Pop: 1500000},
	{Name: "Madrid", Country: "ES", Lat: 40.42, Lon: -3.70, UTCOffset: 1, Pop: 6700000},
	{Name: "Barcelona", Country: "ES", Lat: 41.39, Lon: 2.17, UTCOffset: 1, Pop: 5600000},
	{Name: "Milan", Country: "IT", Lat: 45.46, Lon: 9.19, UTCOffset: 1, Pop: 3200000},
	{Name: "Rome", Country: "IT", Lat: 41.90, Lon: 12.50, UTCOffset: 1, Pop: 4300000},
	{Name: "Zurich", Country: "CH", Lat: 47.37, Lon: 8.54, UTCOffset: 1, Pop: 1400000},
	{Name: "Vienna", Country: "AT", Lat: 48.21, Lon: 16.37, UTCOffset: 1, Pop: 1900000},
	{Name: "Warsaw", Country: "PL", Lat: 52.23, Lon: 21.01, UTCOffset: 1, Pop: 1800000},
	{Name: "Prague", Country: "CZ", Lat: 50.08, Lon: 14.44, UTCOffset: 1, Pop: 1300000},
	{Name: "Stockholm", Country: "SE", Lat: 59.33, Lon: 18.07, UTCOffset: 1, Pop: 1600000},
	{Name: "Copenhagen", Country: "DK", Lat: 55.68, Lon: 12.57, UTCOffset: 1, Pop: 1300000},
	{Name: "Dublin", Country: "IE", Lat: 53.35, Lon: -6.26, UTCOffset: 0, Pop: 1400000},
	{Name: "Lisbon", Country: "PT", Lat: 38.72, Lon: -9.14, UTCOffset: 0, Pop: 2900000},
	{Name: "Helsinki", Country: "FI", Lat: 60.17, Lon: 24.94, UTCOffset: 2, Pop: 1300000},
	{Name: "Oslo", Country: "NO", Lat: 59.91, Lon: 10.75, UTCOffset: 1, Pop: 1000000},
	{Name: "Athens", Country: "GR", Lat: 37.98, Lon: 23.73, UTCOffset: 2, Pop: 3100000},
	{Name: "Bucharest", Country: "RO", Lat: 44.43, Lon: 26.10, UTCOffset: 2, Pop: 1800000},

	// --- Asia-Pacific & other (differential-based picks: India, Australia) ---
	{Name: "Mumbai", Country: "IN", Lat: 19.08, Lon: 72.88, UTCOffset: 5, Pop: 20400000},
	{Name: "Delhi", Country: "IN", Lat: 28.61, Lon: 77.21, UTCOffset: 5, Pop: 31000000},
	{Name: "Bangalore", Country: "IN", Lat: 12.97, Lon: 77.59, UTCOffset: 5, Pop: 12300000},
	{Name: "Chennai", Country: "IN", Lat: 13.08, Lon: 80.27, UTCOffset: 5, Pop: 11000000},
	{Name: "Hyderabad", Country: "IN", Lat: 17.39, Lon: 78.49, UTCOffset: 5, Pop: 10000000},
	{Name: "Sydney", Country: "AU", Lat: -33.87, Lon: 151.21, UTCOffset: 10, Pop: 5300000},
	{Name: "Melbourne", Country: "AU", Lat: -37.81, Lon: 144.96, UTCOffset: 10, Pop: 5100000},
	{Name: "Brisbane", Country: "AU", Lat: -27.47, Lon: 153.03, UTCOffset: 10, Pop: 2600000},
	{Name: "Perth", Country: "AU", Lat: -31.95, Lon: 115.86, UTCOffset: 8, Pop: 2100000},
	{Name: "Singapore", Country: "SG", Lat: 1.35, Lon: 103.82, UTCOffset: 8, Pop: 5700000},
	{Name: "Tokyo", Country: "JP", Lat: 35.68, Lon: 139.69, UTCOffset: 9, Pop: 37400000},
	{Name: "Seoul", Country: "KR", Lat: 37.57, Lon: 126.98, UTCOffset: 9, Pop: 25600000},
	{Name: "Hong Kong", Country: "HK", Lat: 22.32, Lon: 114.17, UTCOffset: 8, Pop: 7500000},
	{Name: "Taipei", Country: "TW", Lat: 25.03, Lon: 121.57, UTCOffset: 8, Pop: 7000000},
	{Name: "Jakarta", Country: "ID", Lat: -6.21, Lon: 106.85, UTCOffset: 7, Pop: 10600000},
	{Name: "Manila", Country: "PH", Lat: 14.60, Lon: 120.98, UTCOffset: 8, Pop: 13500000},
	{Name: "Sao Paulo", Country: "BR", Lat: -23.55, Lon: -46.63, UTCOffset: -3, Pop: 22000000},
	{Name: "Rio de Janeiro", Country: "BR", Lat: -22.91, Lon: -43.17, UTCOffset: -3, Pop: 13500000},
	{Name: "Buenos Aires", Country: "AR", Lat: -34.60, Lon: -58.38, UTCOffset: -3, Pop: 15200000},
	{Name: "Santiago", Country: "CL", Lat: -33.45, Lon: -70.67, UTCOffset: -4, Pop: 6800000},
	{Name: "Mexico City", Country: "MX", Lat: 19.43, Lon: -99.13, UTCOffset: -6, Pop: 21800000},
	{Name: "Toronto", Country: "CA", Lat: 43.65, Lon: -79.38, UTCOffset: -5, Pop: 6200000},
	{Name: "Vancouver", Country: "CA", Lat: 49.28, Lon: -123.12, UTCOffset: -8, Pop: 2600000},
	{Name: "Montreal", Country: "CA", Lat: 45.50, Lon: -73.57, UTCOffset: -5, Pop: 4300000},
	{Name: "Johannesburg", Country: "ZA", Lat: -26.20, Lon: 28.05, UTCOffset: 2, Pop: 5600000},
	{Name: "Dubai", Country: "AE", Lat: 25.20, Lon: 55.27, UTCOffset: 4, Pop: 3400000},
	{Name: "Tel Aviv", Country: "IL", Lat: 32.09, Lon: 34.78, UTCOffset: 2, Pop: 4200000},
	{Name: "Istanbul", Country: "TR", Lat: 41.01, Lon: 28.98, UTCOffset: 3, Pop: 15500000},
	{Name: "Auckland", Country: "NZ", Lat: -36.85, Lon: 174.76, UTCOffset: 12, Pop: 1700000},
}
