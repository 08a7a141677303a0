package colenc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refBitWriter and refBitReader are the bit-at-a-time reference BitWriter
// and BitReader (below) are held to: one loop turn per bit, nothing to get wrong.
// The reader has the contract of the byte-wise reader the window reader
// replaced — a read past the end returns 0 and sets the error, and so does
// every read after it.
type refBitWriter struct{ bits []byte } // one element per bit

func (w *refBitWriter) write(v uint64, n uint) {
	for ; n > 0; n-- {
		w.bits = append(w.bits, byte(v>>(n-1))&1)
	}
}

func (w *refBitWriter) bytes() []byte {
	out := make([]byte, (len(w.bits)+7)/8)
	for i, b := range w.bits {
		out[i/8] |= b << (7 - i%8)
	}
	return out
}

type refBitReader struct {
	buf []byte
	pos int // next bit
	err bool
}

func (r *refBitReader) read(n uint) uint64 {
	var v uint64
	for ; n > 0; n-- {
		if r.pos >= 8*len(r.buf) {
			r.err = true
			return 0
		}
		v = v<<1 | uint64(r.buf[r.pos/8]>>(7-r.pos%8))&1
		r.pos++
	}
	return v
}

// BitReader is DecodeFloats' bit reading in method form: it consumes
// MSB-first bit runs from a byte buffer through a left-aligned 64-bit
// window, the next unread bit at the window's top, refilled eight bytes at
// a time by fill. The bit-stream tests and FuzzBitStream hold it, and with
// it fill, to the bit-at-a-time reference. A BitReader with buf set is
// ready to use.
type BitReader struct {
	buf   []byte
	pos   int    // next byte of buf to load into the window
	win   uint64 // unread bits, left-aligned
	nbits uint   // valid bits in win, at most 63
	err   error
}

// Err reports whether the reader ran past the end of its buffer.
func (r *BitReader) Err() error { return r.err }

// ReadBits reads n bits (n in [0, 64]), most significant first. A read past
// the end of the buffer returns 0, as does every read after it, and sets
// Err.
func (r *BitReader) ReadBits(n uint) uint64 {
	if n > r.nbits {
		return r.readRefill(n)
	}
	v := r.win >> (64 - n)
	r.win <<= n
	r.nbits -= n
	return v
}

// readRefill is ReadBits when the window holds fewer than n bits: one
// refill serves any n up to 56; a longer run takes the window whole, refills
// and takes the rest.
func (r *BitReader) readRefill(n uint) uint64 {
	r.pos, r.win, r.nbits = fill(r.buf, r.pos, r.win, r.nbits)
	var hi uint64
	if n > r.nbits {
		hi = r.win >> (64 - r.nbits)
		n -= r.nbits
		r.pos, r.win, r.nbits = fill(r.buf, r.pos, 0, 0)
		if n > r.nbits {
			if r.err == nil {
				r.err = overrun(r.buf)
			}
			r.win, r.nbits = 0, 0
			return 0
		}
	}
	v := hi<<n | r.win>>(64-n)
	r.win <<= n
	r.nbits -= n
	return v
}

type bitRun struct {
	v uint64
	n uint
}

// checkBitStream writes runs through BitWriter and the reference, requires
// the same bytes after every run (Bytes must not disturb the writer), then
// reads the runs back from every truncation of those bytes: each read's
// value and whether it has set Err must match the reference's.
func checkBitStream(t *testing.T, runs []bitRun) {
	t.Helper()
	var w BitWriter
	var ref refBitWriter
	for i, ru := range runs {
		w.WriteBits(ru.v, ru.n)
		ref.write(ru.v, ru.n)
		if got, want := w.Bytes(), ref.bytes(); !bytes.Equal(got, want) {
			t.Fatalf("after run %d (%d bits): wrote %x, reference %x", i, ru.n, got, want)
		}
	}
	full := ref.bytes()
	for cut := len(full); cut >= 0; cut-- {
		r := BitReader{buf: full[:cut]}
		rr := refBitReader{buf: full[:cut]}
		for i, ru := range runs {
			got, want := r.ReadBits(ru.n), rr.read(ru.n)
			if got != want || (r.Err() != nil) != rr.err {
				t.Fatalf("%d of %d bytes, run %d (%d bits): read %#x err %v, reference %#x err %v",
					cut, len(full), i, ru.n, got, r.Err(), want, rr.err)
			}
		}
	}
}

func TestBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		runs := make([]bitRun, rng.Intn(120))
		for i := range runs {
			// Unmasked on purpose: WriteBits takes the low n bits of v.
			runs[i] = bitRun{rng.Uint64(), uint(rng.Intn(65))}
		}
		checkBitStream(t, runs)
	}
}

// TestBitRunsAtEveryAlignment puts a run of every length 0-64 at every bit
// offset of the 64-bit window, followed by enough to force a refill.
func TestBitRunsAtEveryAlignment(t *testing.T) {
	for align := uint(0); align < 64; align++ {
		for n := uint(0); n <= 64; n++ {
			checkBitStream(t, []bitRun{{0x5555555555555555, align}, {0xfedcba9876543210, n}, {^uint64(0), 64}, {0, 3}})
		}
	}
}

// FuzzBitStream drives checkBitStream from a script: nine bytes a run, the
// first its length (mod 65), the rest its value. The seed corpus under
// testdata/fuzz runs as part of the ordinary test.
func FuzzBitStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0xff, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var runs []bitRun
		for ; len(script) >= 9 && len(runs) < 64; script = script[9:] {
			runs = append(runs, bitRun{binary.BigEndian.Uint64(script[1:9]), uint(script[0]) % 65})
		}
		checkBitStream(t, runs)
	})
}

func TestBitReaderOverrun(t *testing.T) {
	r := BitReader{buf: []byte{0xff}}
	r.ReadBits(8)
	if r.Err() != nil {
		t.Fatalf("unexpected error inside buffer: %v", r.Err())
	}
	r.ReadBits(1)
	if r.Err() == nil {
		t.Fatal("expected overrun error")
	}
}

func TestVarintRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 63, -64, 1 << 20, -(1 << 40), math.MaxInt64, math.MinInt64}
	for _, v := range vals {
		buf := AppendVarint(nil, v)
		got, n := Varint(buf)
		if got != v || n != len(buf) {
			t.Fatalf("varint %d: got %d (n=%d, len=%d)", v, got, n, len(buf))
		}
	}
	if _, n := Uvarint(nil); n != 0 {
		t.Fatal("empty buffer should not decode")
	}
	if _, n := Uvarint([]byte{0x80, 0x80}); n != 0 {
		t.Fatal("truncated varint should not decode")
	}
}

// TestTimesRoundTrip pins the delta-of-delta codec on the shapes the
// campaign produces (hourly cadence) and the adversarial ones (pre-epoch,
// unsorted, duplicate, min/max deltas).
func TestTimesRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{0},
		{-1},
		{1588291200e9}, // 2020-05-01
		{5, 5, 5, 5},
		{-86400e9, 0, 86400e9},
		{10, 5, 7, 7, -100, 3},
	}
	hourly := make([]int64, 720)
	for i := range hourly {
		hourly[i] = 1588291200e9 + int64(i)*3600e9
	}
	cases = append(cases, hourly)
	for ci, ts := range cases {
		buf := AppendTimes(nil, ts)
		got, n, err := DecodeTimes(nil, buf, len(ts))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: consumed %d of %d bytes", ci, n, len(buf))
		}
		if len(got) != len(ts) {
			t.Fatalf("case %d: got %d values, want %d", ci, len(got), len(ts))
		}
		for i := range ts {
			if got[i] != ts[i] {
				t.Fatalf("case %d: value %d = %d, want %d", ci, i, got[i], ts[i])
			}
		}
	}
	// Hourly cadence must cost ~1 byte per timestamp after the first two.
	buf := AppendTimes(nil, hourly)
	if len(buf) > len(hourly)+16 {
		t.Fatalf("hourly encoding too large: %d bytes for %d timestamps", len(buf), len(hourly))
	}
}

func TestTimesQuick(t *testing.T) {
	f := func(ts []int64) bool {
		buf := AppendTimes(nil, ts)
		got, _, err := DecodeTimes(nil, buf, len(ts))
		if err != nil || len(got) != len(ts) {
			return false
		}
		for i := range ts {
			if got[i] != ts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// floatBitsEqual compares by bit pattern so NaN payloads count.
func floatBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFloatsRoundTrip covers the IEEE-754 corners the sealed-block purity
// invariant depends on: NaNs with distinct payloads, infinities, signed
// zeros, denormals, constants, and monotone ramps.
func TestFloatsRoundTrip(t *testing.T) {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff0000000000042)
	cases := [][]float64{
		nil,
		{0},
		{math.NaN(), nanA, nanB, math.NaN()},
		{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)},
		{5e-324, 2.2250738585072009e-308, -5e-324}, // denormals
		{42.5, 42.5, 42.5, 42.5},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{123.456, -123.456, 123.456},
		{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
	for ci, vals := range cases {
		buf := AppendFloats(nil, vals)
		got, n, err := DecodeFloats(nil, buf, len(vals))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: consumed %d of %d bytes", ci, n, len(buf))
		}
		if !floatBitsEqual(got, vals) {
			t.Fatalf("case %d: round trip drifted: got %v, want %v", ci, got, vals)
		}
	}
}

func TestFloatsQuick(t *testing.T) {
	f := func(raw []uint64) bool {
		vals := make([]float64, len(raw))
		for i, u := range raw {
			vals[i] = math.Float64frombits(u)
		}
		buf := AppendFloats(nil, vals)
		got, _, err := DecodeFloats(nil, buf, len(vals))
		return err == nil && floatBitsEqual(got, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantColumnCompresses(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 250.0
	}
	buf := AppendFloats(nil, vals)
	// First value 8 bytes + 1 bit per repeat + length prefix.
	if len(buf) > 8+1000/8+4 {
		t.Fatalf("constant column too large: %d bytes for %d values", len(buf), len(vals))
	}
}

// goldenFloats is a fixed column that takes every branch of the encoder:
// repeats, XORs inside and outside the previous window, single-bit XORs,
// full-width XORs and the IEEE-754 corners.
func goldenFloats() []float64 {
	rng := rand.New(rand.NewSource(22))
	vals := []float64{0, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.Float64frombits(1), math.Float64frombits(3), math.MaxFloat64, -math.MaxFloat64}
	for i := 0; i < 5000; i++ {
		switch rng.Intn(6) {
		case 0:
			vals = append(vals, vals[len(vals)-1])
		case 1:
			vals = append(vals, 3e-7)
		case 2:
			vals = append(vals, math.Float64frombits(rng.Uint64()))
		case 3:
			vals = append(vals, math.Float64frombits(math.Float64bits(vals[len(vals)-1])^1<<uint(rng.Intn(64))))
		default:
			vals = append(vals, 250+60*rng.Float64())
		}
	}
	return vals
}

// TestFloatsEncodingGolden pins the float column's bytes — shared by tsdb's
// sealed blocks and the analysis record log — to what the bit-at-a-time
// writer of the parent commit produced (hash computed there), so a faster
// writer is provably the same format.
func TestFloatsEncodingGolden(t *testing.T) {
	vals := goldenFloats()
	buf := AppendFloats([]byte("prefix"), vals)
	sum := sha256.Sum256(buf)
	const want = "1756b54ce3d2271009e5665d6435db62a501c2d584d2f27e30dd93905ec05e76"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("AppendFloats wrote %d bytes hashing to %s, want %s", len(buf), got, want)
	}
	got, n, err := DecodeFloats(nil, buf[len("prefix"):], len(vals))
	if err != nil || n != len(buf)-len("prefix") || !floatBitsEqual(got, vals) {
		t.Fatalf("golden column does not decode back: %d of %d bytes, err %v", n, len(buf)-len("prefix"), err)
	}
}
