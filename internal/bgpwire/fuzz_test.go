package bgpwire

import (
	"bytes"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

// FuzzUnmarshal exercises the BGP message decoder with arbitrary bytes; it
// must never panic, and anything it accepts must re-marshal to bytes that
// decode to the same message.
func FuzzUnmarshal(f *testing.F) {
	seed, err := Marshal(&Update{
		Origin: OriginIGP, ASPath: []asn.ASN{7018, 12145}, NextHop: 7,
		NLRI: []prefix.Prefix{mp("129.82.0.0/16")},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	open, err := Marshal(&Open{Version: 4, AS: 4200000000, HoldTime: 90, RouterID: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(open)
	ka, err := Marshal(Keepalive{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ka)
	// An UPDATE from inside a confederation (RFC 5065): the confed
	// segments drop out of the path, so its re-marshal is shorter.
	f.Add(confedUpdate([]uint32{SegmentConfedSequence, 64512}, []uint32{SegmentSequence, 7018, 12145}))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Accepted messages must round-trip.
		out, err := Marshal(msg)
		if err != nil {
			t.Fatalf("accepted message failed to re-marshal: %v", err)
		}
		msg2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshaled message failed to decode: %v", err)
		}
		out2, err := Marshal(msg2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("marshal not a fixed point after one round trip")
		}
	})
}

// FuzzFrameReader feeds arbitrary bytes in arbitrary chunk sizes to the
// read-ahead frame reader and requires the frames, and the class of the
// error that ends the stream — io.EOF on a clean boundary,
// io.ErrUnexpectedEOF inside a header, "short body" inside a body,
// "invalid framed length" — to be those of ReadFrame over the unsplit
// stream. Neither may panic or fail any other way.
func FuzzFrameReader(f *testing.F) {
	stream := testStream(f)
	f.Add(stream, []byte{})
	f.Add(stream, []byte{0, 1, 2})
	f.Add(stream[:len(stream)-7], []byte{1})
	f.Add(stream[:len(stream)-HeaderLen-4], []byte{255})
	f.Add(append(append([]byte(nil), stream...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2), []byte{4})
	f.Add(bytes.Repeat(stream, 1500), []byte{240, 7}) // spans several buffer refills
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		checkFraming(t, data, sizes)
	})
}
