// Package colenc holds the bit-level column codecs behind CLASP's
// compressed storage: an MSB-first bit writer/reader, zigzag varints, a
// delta-of-delta timestamp codec, and a Gorilla-lineage XOR float codec
// (Pelkonen et al., "Gorilla: A Fast, Scalable, In-Memory Time Series
// Database", VLDB 2015).
//
// Both the tsdb sealed-block format and the analysis record log encode
// their columns with these primitives. Every codec is lossless: decode
// reproduces the input bit-for-bit, including NaN payloads, signed zeros,
// infinities and denormals (floats travel as raw IEEE-754 bit patterns)
// and pre-epoch timestamps (deltas are zigzag-coded signed integers).
//
// The bit stream moves a word at a time. The writer collects bits in a
// 64-bit accumulator and touches its buffer once per eight bytes; the
// reader keeps the unread bits left-aligned in a 64-bit window that one
// eight-byte load tops up to 56 bits or more, so a read of up to 56 bits
// is a shift and a mask and a longer one is two — a noisy float's ~52-bit
// XOR run was seven turns of a byte-at-a-time loop. The bytes are the ones
// the bit-at-a-time codec wrote (TestFloatsEncodingGolden) and an overrun
// is reported at the same read (FuzzBitStream, against a one-bit-per-turn
// reference in the test file).
package colenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// --- Bit writer ----------------------------------------------------------------

// BitWriter appends MSB-first bit runs to a byte buffer. Bits collect in a
// 64-bit accumulator and reach the buffer eight bytes at a time; Bytes
// flushes the rest. A BitWriter with buf set (nil is fine) is ready to use.
type BitWriter struct {
	buf []byte
	acc uint64 // pending bits, right-aligned
	n   uint   // pending bit count, < 64
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.n
	if n < free {
		w.acc = w.acc<<n | v
		w.n += n
		return
	}
	// The run fills the accumulator: flush a word, keep what is left over.
	rest := n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc = v & (1<<rest - 1)
	w.n = rest
}

// Bytes returns the encoded buffer, the pending bits included and the last
// byte's unused low bits zero. The writer is left as it was, so writing may
// continue; the returned slice is valid until it does.
func (w *BitWriter) Bytes() []byte {
	if w.n == 0 {
		return w.buf
	}
	var pending [8]byte
	binary.BigEndian.PutUint64(pending[:], w.acc<<(64-w.n))
	return append(w.buf, pending[:(w.n+7)/8]...)
}

// --- Bit reader ----------------------------------------------------------------

// fill tops a window up from buf[pos:]: to at least 56 valid bits while
// eight bytes remain to load from, and byte by byte with everything that is
// left inside the last eight. It is a function of the window state, not a
// method, so that DecodeFloats can keep that state in registers. Bits of
// win below nbits are zero or, after a word load, the stream's own next
// bits — loading the same bytes over them again changes nothing.
func fill(buf []byte, pos int, win uint64, nbits uint) (int, uint64, uint) {
	if len(buf)-pos < 8 {
		for nbits < 56 && pos < len(buf) {
			win |= uint64(buf[pos]) << (56 - nbits)
			pos++
			nbits += 8
		}
		return pos, win, nbits
	}
	win |= binary.BigEndian.Uint64(buf[pos:]) >> (nbits & 63)
	pos += int(63-nbits) >> 3
	return pos, win, nbits | 56
}

func overrun(buf []byte) error {
	return fmt.Errorf("colenc: bit reader overrun at byte %d", len(buf))
}

// --- Varints -------------------------------------------------------------------

// Zigzag maps a signed integer onto an unsigned one with small absolute
// values staying small (the protobuf sint encoding).
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendUvarint appends a LEB128 varint.
func AppendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// AppendVarint appends a zigzag-coded signed varint.
func AppendVarint(buf []byte, v int64) []byte {
	return AppendUvarint(buf, Zigzag(v))
}

// Uvarint decodes a LEB128 varint from buf, returning the value and the
// number of bytes consumed (0 on truncated input).
func Uvarint(buf []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range buf {
		if b < 0x80 {
			if i > 9 || i == 9 && b > 1 {
				return 0, 0 // overflow
			}
			return v | uint64(b)<<shift, i + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// Varint decodes a zigzag-coded signed varint.
func Varint(buf []byte) (int64, int) {
	u, n := Uvarint(buf)
	return Unzigzag(u), n
}

// --- Timestamp column: delta-of-delta varints -----------------------------------

// AppendTimes appends a delta-of-delta varint encoding of ts (int64
// nanoseconds, arbitrary sign and order) to buf. The first value is stored
// as a zigzag varint, the second as a zigzag delta, and the rest as zigzag
// second differences — a constant-cadence series (hourly campaign samples)
// costs one byte per timestamp after the first two.
func AppendTimes(buf []byte, ts []int64) []byte {
	if len(ts) == 0 {
		return buf
	}
	buf = AppendVarint(buf, ts[0])
	if len(ts) == 1 {
		return buf
	}
	delta := ts[1] - ts[0]
	buf = AppendVarint(buf, delta)
	for i := 2; i < len(ts); i++ {
		d := ts[i] - ts[i-1]
		buf = AppendVarint(buf, d-delta)
		delta = d
	}
	return buf
}

// DecodeTimes decodes n timestamps appended by AppendTimes into dst
// (resliced to length n) and returns dst plus the bytes consumed. n must not
// be negative, and it is trusted only as far as the bytes back it: every
// value takes at least a byte, so an n beyond len(buf) is a truncated column
// before dst is sized. The one-byte varint — every second difference of a
// constant-cadence column — is decoded inline; a longer one goes through
// Varint.
func DecodeTimes(dst []int64, buf []byte, n int) ([]int64, int, error) {
	if n == 0 {
		return dst[:0], 0, nil
	}
	if n > len(buf) {
		return nil, 0, errTruncatedTimes
	}
	dst = slices.Grow(dst[:0], n)[:n]
	v, off := Varint(buf)
	if off == 0 {
		return nil, 0, errTruncatedTimes
	}
	dst[0] = v
	// The second value is stored as a delta from the first, which is its
	// second difference against a zero delta: one loop decodes both.
	var delta int64
	for i := 1; i < n; i++ {
		var dd int64
		if off < len(buf) && buf[off] < 0x80 {
			dd = Unzigzag(uint64(buf[off]))
			off++
		} else {
			var k int
			if dd, k = Varint(buf[off:]); k == 0 {
				return nil, 0, errTruncatedTimes
			}
			off += k
		}
		delta += dd
		v += delta
		dst[i] = v
	}
	return dst, off, nil
}

var errTruncatedTimes = errors.New("colenc: truncated timestamp column")

// --- Float column: Gorilla XOR --------------------------------------------------

// AppendFloats appends an XOR-compressed float column (the values of one
// field, in order) to buf as a self-contained byte run: a uvarint byte
// length followed by the bit stream, so a reader that does not want the
// column steps over it without decoding.
//
// The scheme is the Gorilla paper's. The first value is stored whole; after
// it a repeated value is one '0' bit, and otherwise the XOR with the
// previous value is stored either inside the previous leading/trailing-zero
// window ('10' prefix) or with a fresh window ('11' prefix, 6 bits of
// leading-zero count, 6 bits of significant-bit count minus one). Values
// are raw IEEE-754 bit patterns, so the column is lossless for every
// float64 including NaN payloads.
func AppendFloats(buf []byte, vals []float64) []byte {
	// The length prefix's own width is known only once the body is: write
	// the body past a gap of the widest prefix, then close the gap.
	const gap = binary.MaxVarintLen64
	start := len(buf)
	var pad [gap]byte
	w := BitWriter{buf: append(buf, pad[:]...)}
	var prev uint64
	leading, trailing := uint(0xff), uint(0)
	for i, f := range vals {
		v := math.Float64bits(f)
		xor := v ^ prev
		prev = v
		switch {
		case i == 0:
			w.WriteBits(v, 64)
			continue
		case xor == 0:
			w.WriteBits(0, 1)
			continue
		}
		// 6 bits of leading-zero count caps at 63; clamping only costs
		// compression, never correctness.
		lz := min(uint(bits.LeadingZeros64(xor)), 63)
		tz := uint(bits.TrailingZeros64(xor))
		if leading != 0xff && lz >= leading && tz >= trailing {
			w.WriteBits(0b10, 2)
		} else {
			leading, trailing = lz, tz
			// The significant-bit count is in [1, 64]; it travels minus one.
			w.WriteBits(0b11<<12|uint64(lz)<<6|uint64(63-lz-tz), 14)
		}
		w.WriteBits(xor>>trailing, 64-leading-trailing)
	}
	out := w.Bytes()
	n := len(out) - start - gap
	buf = AppendUvarint(out[:start], uint64(n))
	return append(buf, out[start+gap:]...)
}

// floatColumn splits the column AppendFloats wrote at the front of buf into
// its bit stream and its whole size, length prefix included.
func floatColumn(buf []byte) (body []byte, size int, err error) {
	ln, k := Uvarint(buf)
	if k == 0 || uint64(len(buf)-k) < ln {
		return nil, 0, fmt.Errorf("colenc: truncated float column")
	}
	return buf[k : k+int(ln)], k + int(ln), nil
}

// SkipFloats returns the size of the column at the front of buf without
// decoding it: the framing check of DecodeFloats and nothing else.
func SkipFloats(buf []byte) (int, error) {
	_, size, err := floatColumn(buf)
	return size, err
}

// DecodeFloats decodes n values appended by AppendFloats into dst
// (resliced, reallocated only when its capacity is short) and returns dst
// plus the bytes consumed. The loop reads MSB-first bit runs through a
// left-aligned 64-bit window (fill) kept in locals: a sample is one to four
// dependent reads, and keeping their state out of memory is most of the
// decoder's speed.
func DecodeFloats(dst []float64, buf []byte, n int) ([]float64, int, error) {
	body, size, err := floatColumn(buf)
	if err != nil {
		return nil, 0, err
	}
	if n <= 0 {
		return dst[:0], size, nil
	}
	// A value costs at least a bit, which bounds what a corrupt count can
	// make the decoder allocate.
	if uint64(n) > uint64(len(body))*8 {
		return nil, 0, overrun(body)
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]

	// The first value is stored whole: 64 bits, more than one fill holds,
	// so it takes the window whole, refills and takes the rest.
	pos, win, nbits := fill(body, 0, 0, 0)
	hi, rest := win>>(64-nbits), 64-nbits
	if pos, win, nbits = fill(body, pos, 0, 0); rest > nbits {
		return nil, 0, overrun(body)
	}
	prev := hi<<rest | win>>(64-rest)
	win <<= rest
	nbits -= rest
	dst[0] = math.Float64frombits(prev)
	var leading, trailing uint8
	for i := 1; i < n; i++ {
		if nbits < 14 {
			pos, win, nbits = fill(body, pos, win, nbits)
		}
		if int64(win) >= 0 { // '0': the previous value again
			if nbits == 0 {
				return nil, 0, overrun(body)
			}
			win <<= 1
			nbits--
			dst[i] = math.Float64frombits(prev)
			continue
		}
		ctl := uint(2)
		if win>>62 == 3 { // '11': a fresh window
			leading = uint8(win>>56) & 63
			trailing = 64 - leading - uint8(win>>50)&63 - 1
			ctl = 14
		}
		if nbits < ctl {
			return nil, 0, overrun(body)
		}
		win <<= ctl
		nbits -= ctl
		// uint8 arithmetic on purpose: a corrupt window whose counts exceed
		// 64 wraps to a shift that clears the XOR instead of panicking.
		sig := uint(64 - leading - trailing)
		if sig > nbits {
			pos, win, nbits = fill(body, pos, win, nbits)
		}
		var hi uint64
		if sig > nbits { // longer than one refill: the window whole, then the rest
			hi = win >> (64 - nbits)
			sig -= nbits
			pos, win, nbits = fill(body, pos, 0, 0)
			if sig > nbits {
				return nil, 0, overrun(body)
			}
		}
		prev ^= (hi<<sig | win>>(64-sig)) << trailing
		win <<= sig
		nbits -= sig
		dst[i] = math.Float64frombits(prev)
	}
	return dst, size, nil
}
