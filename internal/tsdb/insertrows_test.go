package tsdb

import (
	"reflect"
	"testing"
	"time"
)

// rowsOp is one InsertRows call: which handle, and the rows it carries.
type rowsOp struct {
	part  bool // through the handle bound to (loss, mbps) instead of all three fields
	times []int64
	vals  [][]float64 // one column per bound field
}

// rowsStores drives ops through InsertRows into one store and, row by row,
// through Insert into another, both sealing at threshold.
func rowsStores(threshold int, ops []rowsOp) (byRows, byRow *Store) {
	byRows, byRow = NewStore(), NewStore()
	byRows.sealThreshold, byRow.sealThreshold = threshold, threshold
	tags := Tags{"server": "1", "dir": "download"}
	bind := func(s *Store, part bool) *BoundHandle {
		if part {
			return s.Bind(tags, "loss", "mbps")
		}
		return s.Bind(tags, "mbps", "rtt_ms", "loss")
	}
	for _, op := range ops {
		bind(byRows, op.part).InsertRows(op.times, op.vals...)
		h := bind(byRow, op.part)
		row := make([]float64, len(op.vals))
		for i, ns := range op.times {
			for j := range op.vals {
				row[j] = op.vals[j][i]
			}
			h.Insert(time.Unix(0, ns), row...)
		}
	}
	return byRows, byRow
}

// checkRowsMatch fails unless the two stores cannot be told apart: query,
// the byte-level blocks and tail, SeriesCount, BlockStats, and DropBefore
// at every cutoff in cuts (ascending; each drops from what the last left).
func checkRowsMatch(t *testing.T, byRows, byRow *Store, cuts []int64) {
	t.Helper()
	all := func(s *Store) []Series { return s.query(nil, time.Time{}, time.Time{}) }
	if got, want := all(byRows), all(byRow); !reflect.DeepEqual(got, want) {
		t.Fatalf("InsertRows query differs from Insert's:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(byRows.Dump(), byRow.Dump()) {
		t.Fatal("InsertRows blocks and tail encode differently from Insert's")
	}
	if got, want := byRows.SeriesCount(), byRow.SeriesCount(); got != want {
		t.Fatalf("SeriesCount = %d, want %d", got, want)
	}
	gb, gp, gn := byRows.BlockStats()
	if wb, wp, wn := byRow.BlockStats(); gb != wb || gp != wp || gn != wn {
		t.Fatalf("BlockStats = %d/%d/%d, want %d/%d/%d", gb, gp, gn, wb, wp, wn)
	}
	for _, cut := range cuts {
		at := time.Unix(0, cut)
		if got, want := byRows.DropBefore(at), byRow.DropBefore(at); got != want {
			t.Fatalf("DropBefore(%d) = %d, want %d", cut, got, want)
		}
		if !reflect.DeepEqual(all(byRows), all(byRow)) {
			t.Fatalf("after DropBefore(%d): query differs", cut)
		}
	}
}

// rowsRun is an op of n rows from start, step apart, with values derived
// from the position.
func rowsRun(start, step int64, n int) rowsOp {
	op := rowsOp{times: make([]int64, n), vals: make([][]float64, 3)}
	for j := range op.vals {
		op.vals[j] = make([]float64, n)
	}
	for i := range n {
		op.times[i] = start + int64(i)*step
		op.vals[0][i] = 100 + float64(i%97)
		op.vals[1][i] = 10 + float64(i%13)/4
		op.vals[2][i] = float64(i%5) / 1e4
	}
	return op
}

// TestInsertRowsMatchesInsert is the bulk path's oracle: a run through
// InsertRows leaves the store exactly as Insert of each row in turn, at the
// default threshold's seal boundaries, across a reopen, inside an open
// tail, on equal timestamps and through a handle bound to fewer fields.
func TestInsertRowsMatchesInsert(t *testing.T) {
	const hour = int64(time.Hour)
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	cuts := []int64{base, base + 100*hour, base + 700*hour, base + 5000*hour}
	part := func(op rowsOp) rowsOp {
		op.part, op.vals = true, [][]float64{op.vals[2], op.vals[0]}
		return op
	}
	cases := []struct {
		name string
		ops  []rowsOp
	}{
		{"empty series", []rowsOp{rowsRun(base, hour, 0)}},
		{"empty run after rows", []rowsOp{rowsRun(base, hour, 40), rowsRun(base, hour, 0)}},
		{"511 rows", []rowsOp{rowsRun(base, hour, 511)}},
		{"512 rows", []rowsOp{rowsRun(base, hour, 512)}},
		{"513 rows", []rowsOp{rowsRun(base, hour, 513)}},
		{"2x threshold+1 rows", []rowsOp{rowsRun(base, hour, 2*DefaultSealThreshold+1)}},
		{"runs across a seal", []rowsOp{rowsRun(base, hour, 300), rowsRun(base+300*hour, hour, 300), rowsRun(base+600*hour, hour, 700)}},
		{"older than a sealed block", []rowsOp{rowsRun(base, hour, 600), rowsRun(base+hour/2, hour, 50), rowsRun(base+650*hour, hour, 20)}},
		{"reopened tail past the threshold", []rowsOp{rowsRun(base, hour, 1100), rowsRun(base+hour/3, 2*hour, 30), rowsRun(base+1200*hour, hour, 3)}},
		{"interleaving an open tail", []rowsOp{rowsRun(base, 2*hour, 100), rowsRun(base+hour, 2*hour, 120)}},
		{"descending run", []rowsOp{rowsRun(base+900*hour, -hour, 900)}},
		{"equal timestamps", []rowsOp{rowsRun(base, 0, 700), rowsRun(base, 0, 5), rowsRun(base+hour, 0, 600)}},
		{"equal to a sealed block's end", []rowsOp{rowsRun(base, hour, 512), rowsRun(base+511*hour, 0, 4)}},
		{"fewer bound fields", []rowsOp{rowsRun(base, hour, 200), part(rowsRun(base+200*hour, hour, 400)), rowsRun(base+600*hour, hour, 10), part(rowsRun(base+hour/2, hour, 30))}},
		{"fewer bound fields first", []rowsOp{part(rowsRun(base, hour, 520)), rowsRun(base+520*hour, hour, 520)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			byRows, byRow := rowsStores(DefaultSealThreshold, tc.ops)
			checkRowsMatch(t, byRows, byRow, cuts)
		})
	}
}

// FuzzInsertRows holds InsertRows to the per-row oracle on generated runs:
// a small threshold, so short inputs seal and reopen, and every third byte
// a time step that may go backwards or stand still.
func FuzzInsertRows(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 0x83, 0x10, 0xf0, 0x10, 0x00, 0x00, 0x91, 0x05, 0xfe, 0x05})
	f.Add([]byte{0, 0x22, 7, 7, 7, 0x90, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		threshold := int(raw[0] % 9)
		var ops []rowsOp
		var ns int64
		for raw = raw[1:]; len(raw) > 0; {
			// An op's header byte: the handle in its top bit, the row count
			// below; each row then takes up to two bytes, a signed step and
			// a value.
			h := raw[0]
			raw = raw[1:]
			n := min(int(h&0x3f), len(raw)/2)
			op := rowsRun(0, 0, n)
			for i := range n {
				ns += int64(int8(raw[0]))
				op.times[i] = ns
				op.vals[0][i] = float64(raw[1])
				raw = raw[2:]
			}
			if h&0x80 != 0 {
				op.part, op.vals = true, [][]float64{op.vals[2], op.vals[0]}
			}
			ops = append(ops, op)
		}
		byRows, byRow := rowsStores(threshold, ops)
		checkRowsMatch(t, byRows, byRow, []int64{-50, 0, 60, 1 << 20})
	})
}
