package analysis

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/colenc"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// refDecodeColumns is the block decoder as it stood before its varint walks
// decoded the common widths inline: one colenc.Varint or colenc.Uvarint per
// value, and the times column appended value by value before any buffer is
// sized from n. It is FuzzDecodeColumns' oracle and nothing else.
func refDecodeColumns(regions []string, data []byte, n int, need Columns, b *ColumnBatch) error {
	truncatedTimes := fmt.Errorf("colenc: truncated timestamp column")
	b.Times = b.Times[:0]
	if n > 0 {
		v, k := colenc.Varint(data)
		if k == 0 {
			return truncatedTimes
		}
		data = data[k:]
		b.Times = append(b.Times, v)
		if n > 1 {
			delta, k := colenc.Varint(data)
			if k == 0 {
				return truncatedTimes
			}
			data = data[k:]
			v += delta
			b.Times = append(b.Times, v)
			for i := 2; i < n; i++ {
				dd, k := colenc.Varint(data)
				if k == 0 {
					return truncatedTimes
				}
				data = data[k:]
				delta += dd
				v += delta
				b.Times = append(b.Times, v)
			}
		}
	}
	b.size(n, need)
	b.RegionNames = regions

	prev := int64(0)
	for i := 0; i < n; i++ {
		d, k := colenc.Varint(data)
		if k == 0 {
			return fmt.Errorf("truncated server column")
		}
		data = data[k:]
		prev += d
		if need&ColServer != 0 {
			b.Servers[i] = int(prev)
		}
	}
	for i := 0; i < n; i++ {
		ri, k := colenc.Uvarint(data)
		if k == 0 || ri >= uint64(len(regions)) {
			return fmt.Errorf("bad region index")
		}
		data = data[k:]
		if need&ColRegion != 0 {
			b.Regions[i] = int32(ri)
		}
	}
	if len(data) == 0 {
		return fmt.Errorf("truncated tier/dir flag")
	}
	packed := data[0]
	data = data[1:]
	switch packed {
	case 1:
		if len(data) < n {
			return fmt.Errorf("truncated packed tier/dir column")
		}
		if need&ColTierDir != 0 {
			for i, td := range data[:n] {
				b.Tiers[i] = bgp.Tier(td >> 4)
				b.Dirs[i] = netsim.Direction(td & 0xf)
			}
		}
		data = data[n:]
	case 0:
		for i := 0; i < n; i++ {
			v, k := colenc.Varint(data)
			if k == 0 {
				return fmt.Errorf("truncated tier column")
			}
			data = data[k:]
			if need&ColTierDir != 0 {
				b.Tiers[i] = bgp.Tier(v)
			}
		}
		for i := 0; i < n; i++ {
			v, k := colenc.Varint(data)
			if k == 0 {
				return fmt.Errorf("truncated dir column")
			}
			data = data[k:]
			if need&ColTierDir != 0 {
				b.Dirs[i] = netsim.Direction(v)
			}
		}
	default:
		return fmt.Errorf("bad tier/dir flag %d", packed)
	}
	for _, col := range [...]struct {
		bit  Columns
		vals *[]float64
	}{{ColMbps, &b.Mbps}, {ColRTT, &b.RTTms}, {ColLoss, &b.Loss}} {
		var k int
		var err error
		if need&col.bit != 0 {
			*col.vals, k, err = colenc.DecodeFloats(*col.vals, data, n)
		} else {
			k, err = colenc.SkipFloats(data)
		}
		if err != nil {
			return err
		}
		data = data[k:]
	}
	if len(data) != 0 {
		return fmt.Errorf("%d trailing bytes", len(data))
	}
	return nil
}

// FuzzDecodeColumns holds decodeColumns to refDecodeColumns on any block
// bytes, record count, column set and region-table size: both fail, with
// the same error, or both succeed with the same columns. The checked-in
// corpus (testdata/fuzz/FuzzDecodeColumns) is one real sealed block and the
// edges of the inline varint cases — one-byte time second differences of
// both signs, a server column that ends on a continuation byte, a two-byte
// and a non-canonical server delta, a two-byte region code at and below the
// table size, a times column whose n outruns its bytes; tier-1 runs it as a
// unit test.
func FuzzDecodeColumns(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n uint16, need uint8, regions uint8) {
		names := make([]string, regions)
		for i := range names {
			names[i] = "r" + strconv.Itoa(i)
		}
		l := &RecordLog{regions: names}
		cols := Columns(need) & ColAll
		var got, want ColumnBatch
		gotErr := l.decodeColumns(data, int(n), cols, &got)
		wantErr := refDecodeColumns(names, data, int(n), cols, &want)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("n %d need %07b: decodeColumns says %v, the reference walk %v", n, cols, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("n %d need %07b: decodeColumns fails with %q, the reference walk with %q", n, cols, gotErr, wantErr)
			}
		default:
			checkSubset(t, "fuzzed block", cols, &got, &want)
		}
	})
}
