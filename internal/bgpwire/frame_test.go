package bgpwire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

// chunkReader serves data in reads whose sizes cycle through sizes (one
// byte each when sizes is empty), the way a TCP stream hands over
// whatever segments have arrived.
type chunkReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.sizes) > 0 {
		n = 1 + 17*int(c.sizes[c.i%len(c.sizes)]) // up to 4336 bytes: spans whole maximum-size frames
		c.i++
	}
	n = copy(p[:min(n, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

// Terminal error classes of a framed stream.
const (
	endClean      = "clean EOF"
	endInHeader   = "EOF inside a header"
	endInBody     = "short body"
	endBadLength  = "invalid framed length"
	endOtherError = "other"
)

func endClass(err error) string {
	switch {
	case err == io.EOF:
		return endClean
	case err == io.ErrUnexpectedEOF:
		return endInHeader
	case strings.Contains(err.Error(), "short body") && errors.Is(err, io.ErrUnexpectedEOF):
		return endInBody
	case strings.Contains(err.Error(), "invalid framed length"):
		return endBadLength
	}
	return endOtherError
}

// frames reads next until it fails and returns copies of the frames and
// the class of the error that ended the stream.
func frames(t *testing.T, next func() ([]byte, error)) ([][]byte, string) {
	t.Helper()
	var out [][]byte
	for {
		frame, err := next()
		if err != nil {
			if class := endClass(err); class != endOtherError {
				return out, class
			}
			t.Fatalf("stream ended with an unclassified error: %v", err)
		}
		out = append(out, append([]byte(nil), frame...))
	}
}

// checkFraming requires the read-ahead reader over data split into
// chunks to yield exactly the frames, and end in the same error class,
// as one-frame-at-a-time ReadFrame over the unsplit stream.
func checkFraming(t *testing.T, data, sizes []byte) {
	t.Helper()
	whole := bytes.NewReader(data)
	want, wantEnd := frames(t, func() ([]byte, error) { return ReadFrame(whole) })
	if joined := bytes.Join(want, nil); !bytes.HasPrefix(data, joined) {
		t.Fatalf("ReadFrame's frames are not a prefix of the stream")
	}

	var split io.Reader = &chunkReader{data: data, sizes: sizes}
	if len(sizes) > 0 && sizes[0]&1 == 1 {
		split = iotest.DataErrReader(split) // final bytes arrive together with io.EOF
	}
	fr := NewFrameReader(split)
	got, gotEnd := frames(t, fr.Next)
	if len(got) != len(want) {
		t.Fatalf("buffered reader yielded %d frames, ReadFrame %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d differs:\n got %x\nwant %x", i, got[i], want[i])
		}
	}
	if gotEnd != wantEnd {
		t.Fatalf("buffered reader ended with %q, ReadFrame with %q", gotEnd, wantEnd)
	}
}

// testStream is three well-formed frames back to back.
func testStream(t testing.TB) []byte {
	var buf bytes.Buffer
	for _, msg := range []any{
		&Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: 1},
		&Update{Origin: OriginIGP, ASPath: []asn.ASN{7018, 12145}, NextHop: 7, NLRI: []prefix.Prefix{mp("129.82.0.0/16")}},
		Keepalive{},
	} {
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFrameReaderEndings walks every way a stream can end through both
// framing modes at several chunkings.
func TestFrameReaderEndings(t *testing.T) {
	stream := testStream(t)
	badLen := append(append([]byte(nil), stream...), stream[:HeaderLen]...)
	badLen[len(stream)+16], badLen[len(stream)+17] = 0, 5 // length 5 < HeaderLen
	openLen := int(stream[16])<<8 | int(stream[17])
	cases := []struct {
		name string
		data []byte
		n    int
		end  string
	}{
		{"clean boundary", stream, 3, endClean},
		{"empty stream", nil, 0, endClean},
		{"inside a header", stream[:len(stream)-7], 2, endInHeader},
		{"inside a body", stream[:len(stream)-HeaderLen-4], 1, endInBody},
		{"header with no body bytes at all", stream[:openLen+HeaderLen], 1, endInBody},
		{"invalid framed length", badLen, 3, endBadLength},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			whole := bytes.NewReader(tc.data)
			got, end := frames(t, func() ([]byte, error) { return ReadFrame(whole) })
			if len(got) != tc.n || end != tc.end {
				t.Fatalf("ReadFrame: %d frames then %q, want %d then %q", len(got), end, tc.n, tc.end)
			}
			for _, sizes := range [][]byte{nil, {0, 1}, {3}, {255}} {
				checkFraming(t, tc.data, sizes)
			}
		})
	}
}

// TestReadFrameTakesOneFrame: the one-shot entry point must leave the
// bytes after its frame in the stream — handshake peers and tests read
// the same conn frame by frame.
func TestReadFrameTakesOneFrame(t *testing.T) {
	r := bytes.NewReader(testStream(t))
	for i, want := range []int{TypeOpen, TypeUpdate, TypeKeepalive} {
		before := r.Len()
		frame, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if int(frame[18]) != want || before-r.Len() != len(frame) {
			t.Errorf("frame %d: type %d, consumed %d bytes of a %d-byte frame", i, frame[18], before-r.Len(), len(frame))
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}

// TestFrameReaderReadsAhead: a read-ahead reader hands out every frame
// one transport read delivered without touching the transport again, and
// Buffered tells a caller so.
func TestFrameReaderReadsAhead(t *testing.T) {
	stream := testStream(t)
	reads := 0
	fr := NewFrameReader(readerFunc(func(p []byte) (int, error) {
		reads++
		if reads > 1 {
			return 0, io.EOF
		}
		return copy(p, stream[:len(stream)-1]), nil // all but the last byte
	}))
	for i := 0; i < 2; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if reads != 1 {
			t.Fatalf("frame %d cost transport read %d, want all of them out of the first", i, reads)
		}
	}
	if fr.Buffered() {
		t.Error("Buffered() = true with an incomplete frame buffered")
	}
	if _, err := fr.Next(); endClass(err) != endInHeader || reads != 2 {
		t.Errorf("last frame: %v after %d reads, want EOF inside a header after 2", err, reads)
	}
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
