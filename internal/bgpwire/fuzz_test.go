package bgpwire

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

// FuzzUnmarshal exercises the BGP message decoder with arbitrary bytes; it
// must never panic, and anything it accepts must re-marshal to bytes that
// decode to the same message. UnmarshalInto over a scratch Update that a
// different message left dirty — a long path, withdrawals, every field
// set — must accept and reject exactly what Unmarshal does and decode to
// the same message, sharing no byte with its input.
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
	// A bare withdrawal carries no attributes: a decode into used
	// storage must still clear ORIGIN, NEXT_HOP and the path.
	withdrawal, err := Marshal(&Update{Withdrawn: []prefix.Prefix{mp("10.0.0.0/8")}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withdrawal)
	// An UPDATE from inside a confederation (RFC 5065): the confed
	// segments drop out of the path, so its re-marshal is shorter.
	f.Add(confedUpdate([]uint32{SegmentConfedSequence, 64512}, []uint32{SegmentSequence, 7018, 12145}))

	dirty, err := Marshal(dirtyUpdate())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		checkUnmarshalInto(t, data, dirty, msg, err)
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

// dirtyUpdate is a message whose every field, left in a scratch Update,
// would show through a decode that failed to overwrite it.
func dirtyUpdate() *Update {
	u := &Update{Origin: OriginIncomplete, NextHop: 0xdeadbeef}
	for i := 0; i < 300; i++ {
		u.ASPath = append(u.ASPath, asn.ASN(64000+i))
	}
	for i := 0; i < 40; i++ {
		u.Withdrawn = append(u.Withdrawn, prefix.New(uint32(i)<<16|1<<31, 16))
		u.NLRI = append(u.NLRI, prefix.New(uint32(i)<<8|10<<24, 24))
	}
	return u
}

// checkUnmarshalInto decodes data into a scratch Update left dirty by
// the dirty message and requires Unmarshal's answer (want, wantErr).
func checkUnmarshalInto(t *testing.T, data, dirty []byte, want any, wantErr error) {
	t.Helper()
	scratch := new(Update)
	if _, err := UnmarshalInto(dirty, scratch); err != nil {
		t.Fatal(err)
	}
	in := append([]byte(nil), data...)
	got, err := UnmarshalInto(in, scratch)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("UnmarshalInto err = %v, Unmarshal err = %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if u, ok := got.(*Update); ok && u != scratch {
		t.Fatal("UnmarshalInto returned an UPDATE outside the caller's storage")
	}
	for i := range in {
		in[i] ^= 0xff // the result must not alias its input
	}
	if !reflect.DeepEqual(normalized(got), normalized(want)) {
		t.Fatalf("UnmarshalInto over dirty storage = %+v, Unmarshal = %+v", got, want)
	}
}

// normalized treats an UPDATE's nil and empty slices as equal.
func normalized(msg any) any {
	u, ok := msg.(*Update)
	if !ok {
		return msg
	}
	c := *u
	if len(c.Withdrawn) == 0 {
		c.Withdrawn = nil
	}
	if len(c.ASPath) == 0 {
		c.ASPath = nil
	}
	if len(c.NLRI) == 0 {
		c.NLRI = nil
	}
	return &c
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
