// Package tsdb is CLASP's time-series store, standing in for InfluxDB: a
// sharded in-memory series store with tagged points, sealed columnar
// blocks, and time-range and tag queries. Its clients are the telemetry
// pipeline's self-scrape history and the campaign index.
package tsdb

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
)

// Ingest telemetry (see DESIGN.md §8): per-shard insert counts expose the
// lock-stripe distribution, and the lock-wait histogram is a contention
// proxy — it times the Lock() acquisition itself, so queueing behind
// another writer shows up as a fat tail. Both no-op while the obs registry
// is disabled.
var (
	obsShardInserts [numShards]*obs.Counter
	obsLockWait     = obs.Default().Histogram("tsdb_lock_wait_ns")
)

func init() {
	for i := range obsShardInserts {
		obsShardInserts[i] = obs.Default().Counter("tsdb_inserts_total", "shard", strconv.Itoa(i))
	}
}

// lockShard write-locks sh, timing the acquisition when metrics are on.
func lockShard(sh *shard) {
	if !obs.Enabled() {
		sh.mu.Lock()
		return
	}
	start := time.Now()
	sh.mu.Lock()
	obsLockWait.Observe(float64(time.Since(start)))
}

// Tags are the indexed dimensions of a series (server, region, tier,
// direction, ...). Values must not contain spaces or commas.
type Tags map[string]string

// Point is one timestamped observation with float fields.
type Point struct {
	Time   time.Time
	Fields map[string]float64
}

// Series is an ordered sequence of points for one measurement+tags, as
// Query and QueryView return it: everything the store holds for the series
// — sealed blocks and mutable tail alike — decoded into Points.
type Series struct {
	Tags   Tags
	Points []Point // sorted by time
}

// series is the store-resident form of one series: sealed compressed blocks
// (see block.go) followed by a columnar mutable tail (see columns.go). The
// tail's field list doubles as the series' interned field names: it only
// grows, and survives seals and reopens.
type series struct {
	measurement string
	tags        Tags
	blocks      []*block // sealed runs preceding the tail, time-ordered
	tail        columns
}

// numShards stripes the store lock by series-key hash so concurrent
// inserts into different series rarely contend. Must be a power of two.
const numShards = 16

type shard struct {
	id     int // index into obsShardInserts
	mu     sync.RWMutex
	series map[string]*series
}

// Store is a thread-safe collection of series. The lock is sharded by
// series key: writers to distinct series take distinct locks; whole-store
// readers (Query, QueryView, SeriesCount, BlockStats) lock every shard in
// order for a consistent snapshot.
type Store struct {
	shards        [numShards]shard
	sealThreshold int
}

// NewStore creates an empty store with sealing at DefaultSealThreshold.
func NewStore() *Store {
	s := &Store{sealThreshold: DefaultSealThreshold}
	for i := range s.shards {
		s.shards[i].id = i
		s.shards[i].series = make(map[string]*series)
	}
	return s
}

// BlockStats reports the sealed state of the store: number of sealed
// blocks, points held inside them, and their total encoded bytes. Used by
// the compression benchmarks and tests.
func (s *Store) BlockStats() (blocks, points, bytes int) {
	defer s.lockAll()()
	for i := range s.shards {
		for _, sr := range s.shards[i].series {
			for _, b := range sr.blocks {
				blocks++
				points += b.n
				bytes += len(b.data)
			}
		}
	}
	return blocks, points, bytes
}

// DropBefore discards history older than cutoff and returns the number of
// points removed — the retention knob for long-lived self-telemetry stores.
// Granularity is deliberately coarse on the sealed side: a compressed block
// is dropped only when its entire time range precedes the cutoff (blocks
// are immutable; splitting one would mean decode + re-seal). The mutable
// tail drops its strict prefix of points before the cutoff. Series entries
// themselves are never removed, even when emptied: bound handles hold
// series pointers, and deleting the map entry would silently divorce a
// handle's future inserts from queries.
func (s *Store) DropBefore(cutoff time.Time) int {
	cut := cutoff.UnixNano()
	dropped := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, sr := range sh.series {
			sr.blocks = slices.DeleteFunc(sr.blocks, func(b *block) bool {
				if b.maxNs < cut {
					dropped += b.n
					return true
				}
				return false
			})
			idx := sort.Search(sr.tail.len(), func(j int) bool { return sr.tail.times[j] >= cut })
			if idx > 0 {
				dropped += idx
				sr.tail.dropPrefix(idx)
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// seriesKey renders a series' identity: the measurement, then its tags in
// sorted ,key=value form, built in one allocation.
func seriesKey(measurement string, tags Tags) string {
	var keyBuf [8]string
	keys, n := keyBuf[:0], len(measurement)
	for k, v := range tags {
		keys = append(keys, k)
		n += len(k) + len(v) + 2
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(n)
	b.WriteString(measurement)
	for _, k := range keys {
		b.WriteByte(',')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(tags[k])
	}
	return b.String()
}

// shardFor hashes a series key (FNV-1a) onto its shard.
func (s *Store) shardFor(key string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &s.shards[h&(numShards-1)]
}

// lockAll read-locks every shard in index order and returns the unlock.
func (s *Store) lockAll() func() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	return func() {
		for i := range s.shards {
			s.shards[i].mu.RUnlock()
		}
	}
}

func validateIdent(s string) error {
	if s == "" {
		return fmt.Errorf("tsdb: empty identifier")
	}
	if strings.ContainsAny(s, " ,=\n") {
		return fmt.Errorf("tsdb: identifier %q contains reserved characters", s)
	}
	return nil
}

// validateSeries checks a measurement name and its tags.
func validateSeries(measurement string, tags Tags) error {
	if err := validateIdent(measurement); err != nil {
		return err
	}
	for k, v := range tags {
		if err := validateIdent(k); err != nil {
			return err
		}
		if err := validateIdent(v); err != nil {
			return err
		}
	}
	return nil
}

// validateFields checks the field names of one map-form point.
func validateFields(fields map[string]float64) error {
	if len(fields) == 0 {
		return fmt.Errorf("tsdb: point without fields")
	}
	for name := range fields {
		if err := validateIdent(name); err != nil {
			return err
		}
	}
	return nil
}

// intern returns the shard's series for key, creating it (with a copy of
// tags) if absent. Callers hold the shard's write lock.
func (sh *shard) intern(key, measurement string, tags Tags) *series {
	sr := sh.series[key]
	if sr == nil {
		tcp := make(Tags, len(tags))
		for k, v := range tags {
			tcp[k] = v
		}
		sr = &series{measurement: measurement, tags: tcp}
		sh.series[key] = sr
	}
	return sr
}

// Insert adds a point. Nothing of fields is retained.
func (s *Store) Insert(measurement string, tags Tags, at time.Time, fields map[string]float64) error {
	if err := validateSeries(measurement, tags); err != nil {
		return err
	}
	if err := validateFields(fields); err != nil {
		return err
	}
	key := seriesKey(measurement, tags)
	sh := s.shardFor(key)
	lockShard(sh)
	defer sh.mu.Unlock()
	sh.intern(key, measurement, tags).insertFields(at.UnixNano(), fields, s.sealThreshold)
	obsShardInserts[sh.id].Inc()
	return nil
}

// BoundHandle is an interned reference to one series fixed to an ordered
// list of field names: the canonical tag string is rendered and hashed
// once, names validated and column positions resolved once, at Bind, so
// Insert takes one value per name, positionally, and allocates nothing. It
// is the ingest path for fixed-schema streams (a campaign's
// mbps/rtt_ms/loss).
type BoundHandle struct {
	st   *Store
	sh   *shard
	sr   *series
	cols []int // the series' column index of each bound field
}

// Bind interns a series of the speedtest measurement, creating it if
// absent, and fixes the handle to the given distinct field names. The tags
// and fields are the campaign sink's own, never outside input, so unlike
// Insert's they are not validated. Tags are copied; later mutation of the
// argument does not affect the handle.
func (s *Store) Bind(tags Tags, fields ...string) *BoundHandle {
	const measurement = "speedtest"
	key := seriesKey(measurement, tags)
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := &BoundHandle{st: s, sh: sh, sr: sh.intern(key, measurement, tags), cols: make([]int, len(fields))}
	if t := &b.sr.tail; t.fields == nil {
		// A new series: its columns are the bound fields.
		t.fields, t.vals, t.present = make([]string, 0, len(fields)), make([][]float64, 0, len(fields)), make([][]bool, 0, len(fields))
	}
	for i, name := range fields {
		b.cols[i] = b.sr.tail.col(name)
	}
	return b
}

// Insert adds a point carrying vals[i] for the i-th bound field: one value
// per bound field.
func (b *BoundHandle) Insert(at time.Time, vals ...float64) {
	lockShard(b.sh)
	b.sr.insertRow(at.UnixNano(), b.cols, vals, b.st.sealThreshold)
	b.sh.mu.Unlock()
	obsShardInserts[b.sh.id].Inc()
}

// InsertRows adds len(times) points, point i carrying vals[j][i] for the
// j-th bound field: one column per bound field, each as long as times. The
// store ends exactly as Insert of each point in turn would leave it —
// blocks, tail and seal boundaries alike — but an in-order run is appended
// a column at a time under one lock; only a point older than the series'
// last takes Insert's path.
func (b *BoundHandle) InsertRows(times []int64, vals ...[]float64) {
	lockShard(b.sh)
	b.sr.insertRows(times, b.cols, vals, b.st.sealThreshold)
	b.sh.mu.Unlock()
	obsShardInserts[b.sh.id].Add(uint64(len(times)))
}

// SeriesCount returns the number of distinct series.
func (s *Store) SeriesCount() int {
	defer s.lockAll()()
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].series)
	}
	return n
}

// Query selects points from series of a measurement whose tags match all
// entries of `match` (empty matches everything) within [from, to).
// Zero times disable that bound. Results are grouped per series, sorted by
// series key.
//
// The returned series are deep copies: Tags and every Point.Fields map are
// owned by the caller, so mutating a query result never corrupts stored
// samples (pinned by TestQueryResultsDoNotAliasStore).
func (s *Store) Query(measurement string, match Tags, from, to time.Time) []Series {
	out := s.QueryView(measurement, match, from, to)
	for i := range out {
		tags := make(Tags, len(out[i].Tags))
		for tk, tv := range out[i].Tags {
			tags[tk] = tv
		}
		out[i].Tags = tags
	}
	return out
}

// QueryView is Query without the defensive copy of Tags.
//
// Aliasing contract: the returned Tags maps ALIAS live store memory. This
// is safe to read concurrently with inserts — the store never mutates a
// series' tags after creating it — but a caller that writes through a view
// corrupts the store. Treat every Tags map in the result as read-only;
// callers that need ownership must use Query. Points are materialised from
// the store's columns on every call, so they — Fields maps included — are
// the caller's either way. Pinned by TestQueryViewAliasesStore and
// TestQueryViewMatchesQuery.
func (s *Store) QueryView(measurement string, match Tags, from, to time.Time) []Series {
	defer s.lockAll()()
	byKey := make(map[string]*series)
	keys := make([]string, 0)
	for i := range s.shards {
		for k, sr := range s.shards[i].series {
			if sr.measurement != measurement {
				continue
			}
			ok := true
			for mk, mv := range match {
				if sr.tags[mk] != mv {
					ok = false
					break
				}
			}
			if ok {
				keys = append(keys, k)
				byKey[k] = sr
			}
		}
	}
	sort.Strings(keys)
	r := newTimeRange(from, to)
	var out []Series
	for _, k := range keys {
		sr := byKey[k]
		pts := sr.tail.appendPoints(blockPoints(sr.blocks, r), r)
		if len(pts) == 0 {
			continue
		}
		out = append(out, Series{Tags: sr.tags, Points: pts})
	}
	return out
}

// blockPoints decodes the sealed blocks overlapping r. The blocks are the
// store's own, so a decode failure is a bug, not bad input.
func blockPoints(blocks []*block, r timeRange) []Point {
	var dst []Point
	for _, b := range blocks {
		if !r.overlaps(b.minNs, b.maxNs) {
			continue
		}
		var err error
		if dst, err = b.appendPoints(dst, r); err != nil {
			panic(fmt.Sprintf("tsdb: corrupt block: %v", err))
		}
	}
	return dst
}
