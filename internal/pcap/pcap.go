// Package pcap implements the libpcap capture file format and a small
// gopacket-style packet decoding layer (Ethernet / IPv4 / IPv6 / TCP / UDP,
// with Flow and Endpoint abstractions). CLASP's measurement VMs run tcpdump
// during speed tests and the analysis VM re-derives RTT and loss from the
// captured TCP headers; this package is both the writer used when
// synthesising those captures and the reader used by the analysis.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Libpcap file constants.
const (
	magicMicroseconds = 0xa1b2c3d4
	versionMajor      = 2
	versionMinor      = 4
	// LinkTypeEthernet is the only link type we produce or consume.
	LinkTypeEthernet = 1
)

// ErrBadMagic is returned when a stream is not a microsecond little-endian
// pcap file.
var ErrBadMagic = errors.New("pcap: bad magic number")

// CaptureInfo describes one captured packet record.
type CaptureInfo struct {
	Timestamp time.Time
	Length    int // original wire length; the bytes stored are the record's data
}

// Writer writes a pcap file. Create with NewWriter, which emits the global
// header immediately.
type Writer struct {
	w io.Writer
}

// snaplen is the capture length: the paper captured headers only
// (tcpdump -s 96).
const snaplen = 96

// NewWriter writes the pcap global header and returns a packet writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], snaplen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &Writer{w: w}, nil
}

// WritePacket writes one packet record, truncating data to the snaplen.
func (w *Writer) WritePacket(ci CaptureInfo, data []byte) error {
	if len(data) > snaplen {
		data = data[:snaplen]
	}
	if ci.Length < len(data) {
		ci.Length = len(data)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(ci.Timestamp.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ci.Timestamp.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(ci.Length))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	return nil
}

// Reader reads a pcap file written in little-endian microsecond format.
type Reader struct {
	r io.Reader
}

// NewReader validates the global header and returns a packet reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicMicroseconds {
		return nil, ErrBadMagic
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	return &Reader{r: r}, nil
}

// ReadPacket returns the next record. io.EOF signals a clean end of file.
func (r *Reader) ReadPacket() (CaptureInfo, []byte, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return CaptureInfo{}, nil, io.EOF
		}
		return CaptureInfo{}, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := binary.LittleEndian.Uint32(hdr[0:])
	usec := binary.LittleEndian.Uint32(hdr[4:])
	capLen := binary.LittleEndian.Uint32(hdr[8:])
	wireLen := binary.LittleEndian.Uint32(hdr[12:])
	if capLen > 1<<20 {
		return CaptureInfo{}, nil, fmt.Errorf("pcap: implausible capture length %d", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return CaptureInfo{}, nil, fmt.Errorf("pcap: reading record data: %w", err)
	}
	return CaptureInfo{
		Timestamp: time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Length:    int(wireLen),
	}, data, nil
}
