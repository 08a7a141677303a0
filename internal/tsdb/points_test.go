package tsdb

import "time"

// The block codec works on columns; the codec tests and the fuzzer in
// block_test.go speak []Point. These two adapters are the points-level
// entry the tests were written against.

// encodeBlock seals a time-sorted run of points.
func encodeBlock(points []Point) *block {
	var sr series
	for _, p := range points {
		sr.insertFields(p.Time.UnixNano(), p.Fields, 0)
	}
	return encodeColumns(&sr.tail)
}

// decode reconstructs the block's points, appending to dst.
func (b *block) decode(dst []Point) ([]Point, error) {
	return b.appendPoints(dst, newTimeRange(time.Time{}, time.Time{}))
}
