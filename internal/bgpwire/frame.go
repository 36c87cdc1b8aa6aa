package bgpwire

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// ReadDeadliner is the read-deadline half of net.Conn. The feed layer's
// hold-timer enforcement arms it before every blocking transport read so
// a hung peer cannot wedge a session goroutine past the negotiated hold
// time.
type ReadDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// WriteDeadliner is the write-deadline half of net.Conn.
type WriteDeadliner interface {
	SetWriteDeadline(t time.Time) error
}

// frameBufLen is a FrameReader's read-ahead buffer: sixteen maximum-size
// messages, or about a thousand typical UPDATEs per transport read.
const frameBufLen = 64 << 10

// FrameReader splits a byte stream into length-framed BGP messages. It
// is the package's one framing path: a reader from NewFrameReader reads
// ahead — one transport Read pulls in as many frames as the peer has
// sent, and Next hands them out of the buffer one by one — while the
// zero value over a stream (what ReadFrame uses) takes exactly one
// frame's bytes and never touches the next.
//
// An error from Next is a transport/framing failure — the stream can no
// longer be resynchronized and the session must be torn down. A
// successfully framed message that fails Unmarshal, by contrast, leaves
// the stream aligned on the next frame, which is what lets the collector
// tolerate a bounded number of malformed messages per peer.
type FrameReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int  // buf[lo:hi] is read but not yet handed out
	ahead  bool // fill the whole buffer per read, not just the bytes asked for
}

// NewFrameReader returns a read-ahead FrameReader over r. Whoever frames
// r must keep using this reader: bytes it has buffered are gone from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, frameBufLen), ahead: true}
}

// fill blocks until at least n unread bytes are buffered. It returns
// io.EOF only when the stream ends with nothing buffered at all, and
// io.ErrUnexpectedEOF when it ends part-way to n.
func (f *FrameReader) fill(n int) error {
	have := f.hi - f.lo
	if have >= n {
		return nil
	}
	if f.lo > 0 {
		copy(f.buf, f.buf[f.lo:f.hi])
		f.lo, f.hi = 0, have
	}
	if n > len(f.buf) {
		grown := make([]byte, n)
		copy(grown, f.buf[:have])
		f.buf = grown
	}
	limit := n
	if f.ahead {
		limit = len(f.buf)
	}
	got, err := io.ReadAtLeast(f.r, f.buf[have:limit], n-have)
	f.hi += got
	if err == io.EOF && f.hi > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// framedLen returns the length field of the header at the front of the
// buffer and whether it is a legal message length.
func (f *FrameReader) framedLen() (int, bool) {
	total := int(binary.BigEndian.Uint16(f.buf[f.lo+16:]))
	return total, total >= HeaderLen && total <= MaxMessageLen
}

// Next returns the next frame's raw bytes, header included, without
// decoding them. The slice aliases the reader's buffer and is valid
// until the following call to Next. At a clean end of stream Next
// returns io.EOF.
func (f *FrameReader) Next() ([]byte, error) {
	if err := f.fill(HeaderLen); err != nil {
		return nil, err
	}
	total, ok := f.framedLen()
	if !ok {
		return nil, fmt.Errorf("bgpwire: invalid framed length %d", total)
	}
	if err := f.fill(total); err != nil {
		return nil, fmt.Errorf("bgpwire: short body: %w", err)
	}
	frame := f.buf[f.lo : f.lo+total]
	f.lo += total
	return frame, nil
}

// Buffered reports whether Next can answer — with a frame or a framing
// error — from bytes already read, without blocking on the transport.
func (f *FrameReader) Buffered() bool {
	if f.hi-f.lo < HeaderLen {
		return false
	}
	total, ok := f.framedLen()
	return !ok || f.hi-f.lo >= total
}

// ReadMessage is Next + Unmarshal, for handshake reads where any failure
// (framing or decoding) is fatal.
func (f *FrameReader) ReadMessage() (any, error) {
	frame, err := f.Next()
	if err != nil {
		return nil, err
	}
	return Unmarshal(frame)
}

// ReadFrame reads exactly one length-framed BGP message (header
// included) from r — no byte beyond it — and returns its raw bytes,
// which the caller owns.
func ReadFrame(r io.Reader) ([]byte, error) {
	f := FrameReader{r: r}
	return f.Next()
}

// ReadMessage reads exactly one framed BGP message from r and decodes it.
func ReadMessage(r io.Reader) (any, error) {
	f := FrameReader{r: r}
	return f.ReadMessage()
}

// WriteMessage marshals and writes one message to w.
func WriteMessage(w io.Writer, msg any) error {
	data, err := Marshal(msg)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
