// Package wsock is a minimal RFC 6455 WebSocket implementation (stdlib
// only) sufficient for the ndt7 speed test protocol: HTTP/1.1 upgrade
// handshake, text/binary messages with client-side masking, fragmentation
// on read, and ping/pong/close control frames.
package wsock

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// websocketGUID is the fixed RFC 6455 handshake GUID.
const websocketGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Subprotocol is the one WebSocket subprotocol this package speaks, ndt7's:
// both ends of every handshake name it in Sec-WebSocket-Protocol.
const Subprotocol = "net.measurementlab.ndt.v7"

// Message opcodes.
const (
	OpContinuation = 0x0
	OpText         = 0x1
	OpBinary       = 0x2
	OpClose        = 0x8
	OpPing         = 0x9
	OpPong         = 0xa
)

// ErrClosed is returned after a close frame has been exchanged.
var ErrClosed = errors.New("wsock: connection closed")

// MaxMessageSize bounds a reassembled message (16 MiB) to keep a broken
// peer from exhausting memory.
const MaxMessageSize = 16 << 20

// maxControlPayload is the largest payload a control frame (close, ping,
// pong) may carry (RFC 6455 §5.5).
const maxControlPayload = 125

// Conn is a WebSocket connection over an underlying net.Conn.
type Conn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // client connections mask outgoing frames
	closed bool
}

// AcceptKey computes the Sec-WebSocket-Accept value for a handshake key.
func AcceptKey(key string) string {
	h := sha1.Sum([]byte(key + websocketGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Upgrade performs the server side of the handshake on an http request and
// hijacks the connection.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") ||
		!connectionUpgrade(r.Header.Get("Connection")) {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, fmt.Errorf("wsock: not a websocket handshake")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, fmt.Errorf("wsock: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "hijacking unsupported", http.StatusInternalServerError)
		return nil, fmt.Errorf("wsock: response writer cannot hijack")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("wsock: hijack: %w", err)
	}
	var b strings.Builder
	b.WriteString("HTTP/1.1 101 Switching Protocols\r\n")
	b.WriteString("Upgrade: websocket\r\n")
	b.WriteString("Connection: Upgrade\r\n")
	b.WriteString("Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n")
	b.WriteString("Sec-WebSocket-Protocol: " + Subprotocol + "\r\n")
	b.WriteString("\r\n")
	if _, err := conn.Write([]byte(b.String())); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wsock: writing handshake response: %w", err)
	}
	return &Conn{conn: conn, br: rw.Reader, client: false}, nil
}

// connectionUpgrade reports whether a Connection header lists "upgrade".
func connectionUpgrade(header string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.EqualFold(strings.TrimSpace(part), "upgrade") {
			return true
		}
	}
	return false
}

// ClientHandshake performs the client side of the upgrade over an existing
// connection: plain TCP, or a shaped or in-memory transport.
func ClientHandshake(conn net.Conn, host, path string) (*Conn, error) {
	var keyBytes [16]byte
	if _, err := rand.Read(keyBytes[:]); err != nil {
		return nil, fmt.Errorf("wsock: generating key: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(keyBytes[:])

	var b strings.Builder
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\n", path)
	fmt.Fprintf(&b, "Host: %s\r\n", host)
	b.WriteString("Upgrade: websocket\r\n")
	b.WriteString("Connection: Upgrade\r\n")
	fmt.Fprintf(&b, "Sec-WebSocket-Key: %s\r\n", key)
	b.WriteString("Sec-WebSocket-Version: 13\r\n")
	b.WriteString("Sec-WebSocket-Protocol: " + Subprotocol + "\r\n")
	b.WriteString("\r\n")
	if _, err := conn.Write([]byte(b.String())); err != nil {
		return nil, fmt.Errorf("wsock: writing handshake: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, fmt.Errorf("wsock: reading handshake response: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return nil, fmt.Errorf("wsock: handshake rejected: %s", resp.Status)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != AcceptKey(key) {
		return nil, fmt.Errorf("wsock: bad Sec-WebSocket-Accept %q", got)
	}
	return &Conn{conn: conn, br: br, client: true}, nil
}

// WriteMessage sends one unfragmented message with the given opcode.
func (c *Conn) WriteMessage(opcode int, payload []byte) error {
	if c.closed {
		return ErrClosed
	}
	return c.writeFrame(opcode, payload)
}

func (c *Conn) writeFrame(opcode int, payload []byte) error {
	var hdr [14]byte
	hdr[0] = 0x80 | byte(opcode) // FIN set
	n := 2
	switch {
	case len(payload) < 126:
		hdr[1] = byte(len(payload))
	case len(payload) <= 0xffff:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:], uint16(len(payload)))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:], uint64(len(payload)))
		n = 10
	}
	var body []byte
	if c.client {
		hdr[1] |= 0x80
		var mask [4]byte
		if _, err := rand.Read(mask[:]); err != nil {
			return fmt.Errorf("wsock: generating mask: %w", err)
		}
		copy(hdr[n:], mask[:])
		n += 4
		body = make([]byte, len(payload))
		for i, b := range payload {
			body[i] = b ^ mask[i%4]
		}
	} else {
		body = payload
	}
	if _, err := c.conn.Write(hdr[:n]); err != nil {
		return fmt.Errorf("wsock: writing frame header: %w", err)
	}
	if len(body) > 0 {
		if _, err := c.conn.Write(body); err != nil {
			return fmt.Errorf("wsock: writing frame body: %w", err)
		}
	}
	return nil
}

// ReadMessage reads the next data message, transparently answering pings
// and handling fragmentation. A close frame returns ErrClosed after echoing
// the close.
func (c *Conn) ReadMessage() (opcode int, payload []byte, err error) {
	if c.closed {
		return 0, nil, ErrClosed
	}
	var msg []byte
	msgOp := -1
	for {
		fin, op, data, err := c.readFrame(msg)
		if err != nil {
			return 0, nil, err
		}
		switch op {
		case OpPing:
			if err := c.writeFrame(OpPong, data); err != nil {
				return 0, nil, err
			}
			continue
		case OpPong:
			continue
		case OpClose:
			_ = c.writeFrame(OpClose, data)
			c.closed = true
			return 0, nil, ErrClosed
		case OpContinuation:
			if msgOp < 0 {
				return 0, nil, fmt.Errorf("wsock: unexpected continuation frame")
			}
		case OpText, OpBinary:
			if msgOp >= 0 {
				return 0, nil, fmt.Errorf("wsock: new data frame inside fragmented message")
			}
			msgOp = op
		default:
			return 0, nil, fmt.Errorf("wsock: unknown opcode %#x", op)
		}
		msg = data
		if fin {
			return msgOp, msg, nil
		}
	}
}

// readFrame reads one frame. A data frame's payload is appended to msg and
// the grown msg returned; a control frame's payload is returned alone.
func (c *Conn) readFrame(msg []byte) (fin bool, opcode int, payload []byte, err error) {
	var h [2]byte
	if _, err := io.ReadFull(c.br, h[:]); err != nil {
		return false, 0, nil, fmt.Errorf("wsock: reading frame header: %w", err)
	}
	fin = h[0]&0x80 != 0
	opcode = int(h[0] & 0x0f)
	masked := h[1]&0x80 != 0
	length := uint64(h[1] & 0x7f)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	control := opcode >= OpClose
	switch {
	case control && (length > maxControlPayload || !fin):
		return false, 0, nil, fmt.Errorf("wsock: control frame %#x of %d bytes (FIN %t)", opcode, length, fin)
	case length > MaxMessageSize:
		return false, 0, nil, fmt.Errorf("wsock: frame of %d bytes too large", length)
	case !control && uint64(len(msg))+length > MaxMessageSize:
		return false, 0, nil, fmt.Errorf("wsock: message exceeds %d bytes", MaxMessageSize)
	}
	var mask [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, mask[:]); err != nil {
			return false, 0, nil, err
		}
	}
	if control {
		msg = nil
	}
	start := len(msg)
	if payload, err = readAppend(c.br, msg, int(length)); err != nil {
		return false, 0, nil, fmt.Errorf("wsock: reading frame payload: %w", err)
	}
	if masked {
		for i := range payload[start:] {
			payload[start+i] ^= mask[i%4]
		}
	}
	return fin, opcode, payload, nil
}

// readAppend appends n bytes read from r to dst. The buffer grows only as
// bytes arrive — it is filled before it doubles, and never grows past the n
// bytes — so a header that claims more than the peer sends costs what the
// peer sent, not what it claimed.
func readAppend(r io.Reader, dst []byte, n int) ([]byte, error) {
	end := len(dst) + n
	for len(dst) < end {
		if len(dst) == cap(dst) {
			grown := make([]byte, len(dst), min(end, max(2*cap(dst), 512)))
			copy(grown, dst)
			dst = grown
		}
		m, err := io.ReadFull(r, dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+m]
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Close sends a close frame (best effort) and closes the transport.
func (c *Conn) Close() error {
	if !c.closed {
		c.closed = true
		_ = c.writeFrame(OpClose, nil)
	}
	return c.conn.Close()
}

// SetDeadline sets the read/write deadline on the underlying transport.
func (c *Conn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }
