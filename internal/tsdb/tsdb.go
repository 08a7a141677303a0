// Package tsdb is CLASP's time-series store, standing in for InfluxDB: a
// sharded in-memory series store of tagged points with sealed columnar
// blocks. Its one client is the campaign index (orchestrator.StoreSink),
// which writes through bound handles.
package tsdb

import (
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

// series is the store-resident form of one series: sealed compressed blocks
// (see block.go) followed by a columnar mutable tail (see columns.go). The
// tail's field list doubles as the series' interned field names: it only
// grows, and survives seals and reopens.
type series struct {
	blocks []*block // sealed runs preceding the tail, time-ordered
	tail   columns
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
// readers (SeriesCount, BlockStats) lock every shard in order for a
// consistent snapshot.
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
// points removed. Granularity is deliberately coarse on the sealed side: a
// compressed block is dropped only when its entire time range precedes the
// cutoff (blocks are immutable; splitting one would mean decode + re-seal).
// The mutable tail drops its strict prefix of points before the cutoff.
// Series entries themselves are never removed, even when emptied: bound
// handles hold series pointers, and deleting the map entry would silently
// divorce a handle's future inserts from the store.
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

// measurement prefixes every series key. The store holds the one
// measurement, so the prefix only keeps each series on the shard it has
// always hashed to.
const measurement = "speedtest"

// seriesKey renders a series' identity: the measurement, then its tags in
// sorted ,key=value form, built in one allocation.
func seriesKey(tags Tags) string {
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

// intern returns the shard's series for key, creating it if absent.
// Callers hold the shard's write lock.
func (sh *shard) intern(key string) *series {
	sr := sh.series[key]
	if sr == nil {
		sr = &series{}
		sh.series[key] = sr
	}
	return sr
}

// BoundHandle is an interned reference to one series fixed to an ordered
// list of field names: the canonical tag string is rendered and hashed
// and column positions resolved once, at Bind, so Insert takes one value
// per name, positionally, and allocates nothing. It
// is the ingest path for fixed-schema streams (a campaign's
// mbps/rtt_ms/loss).
type BoundHandle struct {
	st   *Store
	sh   *shard
	sr   *series
	cols []int // the series' column index of each bound field
}

// Bind interns the series of tags, creating it if absent, and fixes the
// handle to the given distinct field names. The tags and fields are the
// campaign sink's own, never outside input, so they are not validated.
// Nothing of tags is retained.
func (s *Store) Bind(tags Tags, fields ...string) *BoundHandle {
	key := seriesKey(tags)
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := &BoundHandle{st: s, sh: sh, sr: sh.intern(key), cols: make([]int, len(fields))}
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

// Dump returns the byte-level state of the store, by series key: each
// sealed block's data, then the mutable tail encoded the way a seal would
// encode it (fields sorted by name, so the order fields first arrived in
// does not show). Two stores with equal dumps hold the same series and
// points, sealed into the same blocks.
func (s *Store) Dump() map[string][][]byte {
	defer s.lockAll()()
	out := make(map[string][][]byte)
	for i := range s.shards {
		for k, sr := range s.shards[i].series {
			var data [][]byte
			for _, b := range sr.blocks {
				data = append(data, b.data)
			}
			if sr.tail.len() > 0 {
				data = append(data, encodeColumns(&sr.tail).data)
			}
			out[k] = data
		}
	}
	return out
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
