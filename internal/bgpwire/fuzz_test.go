package bgpwire

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
// the same message, sharing no byte with its input. Every input, read as
// an UPDATE body and (when it frames as one) as an UPDATE message, must
// get the same verdict, error text included, from CheckUpdate, from the
// decoder and from oracleUpdate, and decode to oracleUpdate's message.
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
	// Bodies whose faults compete for precedence: a withdrawn prefix
	// with host bits set ahead of a truncated one, and an announced one
	// with host bits set behind a repeated AS_PATH whose last copy is
	// confederation segments alone.
	f.Add([]byte{0, 5, 23, 10, 0, 1, 17, 0, 0})
	f.Add([]byte{0, 0, 0, 18, 0x40, AttrASPath, 6, SegmentSequence, 1, 0, 0, 0, 7,
		0x40, AttrASPath, 6, SegmentConfedSequence, 1, 0, 0, 0, 8, 16, 10, 1, 15, 10, 3})
	// A body that decodes: two AS_PATHs, of which the last is the path,
	// and prefixes packed close enough that an address load reads into
	// the next one.
	f.Add([]byte{0, 0, 0, 29, 0x40, AttrOrigin, 1, OriginIGP,
		0x40, AttrASPath, 6, SegmentSequence, 1, 0, 0, 0, 7,
		0x40, AttrASPath, 6, SegmentSequence, 1, 0, 0, 0, 8,
		0x40, AttrNextHop, 4, 10, 0, 0, 1,
		24, 10, 0, 0, 24, 10, 0, 1, 9, 10, 128})

	dirty, err := Marshal(dirtyUpdate())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkUpdateVerdict(t, data)
		if typ, err := FrameType(data); err == nil && typ == TypeUpdate {
			checkUpdateVerdict(t, data[HeaderLen:])
		}
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

// checkUpdateVerdict requires CheckUpdate and the decoder to answer an
// UPDATE body as oracleUpdate does: the same error text, and on success
// the same message.
func checkUpdateVerdict(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := oracleUpdate(body)
	if err := CheckUpdate(body); fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("CheckUpdate err = %v, oracle err = %v", err, wantErr)
	}
	var u Update
	if err := u.unmarshal(body); fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("decode err = %v, oracle err = %v", err, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(normalized(&u), normalized(want)) {
		t.Fatalf("decode = %+v, oracle = %+v", &u, want)
	}
}

// oracleUpdate is the UPDATE-body decoder as it stood before the
// decoder was split into a check and a fill, kept as the reference for
// both: each rule in the order it was applied, the host-bit pass over a
// run of prefixes after its length pass, and the last AS_PATH the path.
func oracleUpdate(body []byte) (*Update, error) {
	u := new(Update)
	if len(body) < 2 {
		return nil, errShortUpdate
	}
	wLen := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+wLen+2 {
		return nil, errWithdrawnLen
	}
	var err error
	if u.Withdrawn, err = oracleNLRIs(body[2 : 2+wLen]); err != nil {
		return nil, err
	}
	rest := body[2+wLen:]
	aLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if len(rest) < 2+aLen {
		return nil, errAttrLen
	}
	for data := rest[2 : 2+aLen]; len(data) > 0; {
		if len(data) < 3 {
			return nil, errTruncatedAttr
		}
		flags, typ := data[0], data[1]
		aLen, hdr := int(data[2]), 3
		if flags&0x10 != 0 {
			if len(data) < 4 {
				return nil, errTruncatedExtLen
			}
			aLen, hdr = int(binary.BigEndian.Uint16(data[2:4])), 4
		}
		if len(data) < hdr+aLen {
			return nil, errAttrOverrun(typ)
		}
		val := data[hdr : hdr+aLen]
		switch typ {
		case AttrOrigin:
			if aLen != 1 || val[0] > OriginIncomplete {
				return nil, errOrigin
			}
			u.Origin = val[0]
		case AttrASPath:
			if u.ASPath, err = oracleASPath(val); err != nil {
				return nil, err
			}
		case AttrNextHop:
			if aLen != 4 {
				return nil, errNextHop
			}
			u.NextHop = binary.BigEndian.Uint32(val)
		}
		data = data[hdr+aLen:]
	}
	if u.NLRI, err = oracleNLRIs(rest[2+aLen:]); err != nil {
		return nil, err
	}
	if len(u.NLRI) > 0 && len(u.ASPath) == 0 {
		return nil, errNoASPath
	}
	return u, nil
}

// oracleASPath validates every segment header, then flattens the
// AS_SEQUENCE and AS_SET segments.
func oracleASPath(data []byte) ([]asn.ASN, error) {
	for rest := data; len(rest) > 0; {
		if len(rest) < 2 {
			return nil, errTruncatedSeg
		}
		segType, count := rest[0], int(rest[1])
		if segType < SegmentSet || segType > SegmentConfedSet {
			return nil, errSegType(segType)
		}
		if len(rest) < 2+4*count {
			return nil, errSegOverrun
		}
		rest = rest[2+4*count:]
	}
	var path []asn.ASN
	for len(data) > 0 {
		count := int(data[1])
		if data[0] == SegmentSet || data[0] == SegmentSequence {
			for i := 0; i < count; i++ {
				path = append(path, asn.FromUint32(binary.BigEndian.Uint32(data[2+4*i:])))
			}
		}
		data = data[2+4*count:]
	}
	return path, nil
}

// oracleNLRIs checks every prefix's length octet and size, then decodes
// the prefixes in a second pass that refuses host bits.
func oracleNLRIs(data []byte) ([]prefix.Prefix, error) {
	for rest := data; len(rest) > 0; {
		l := rest[0]
		if l > 32 {
			return nil, errNLRILen(l)
		}
		nBytes := int(l+7) / 8
		if len(rest) < 1+nBytes {
			return nil, errTruncatedNLRI
		}
		rest = rest[1+nBytes:]
	}
	var ps []prefix.Prefix
	for len(data) > 0 {
		l := data[0]
		nBytes := int(l+7) / 8
		var addr [4]byte
		copy(addr[:], data[1:1+nBytes])
		p := prefix.New(binary.BigEndian.Uint32(addr[:]), l)
		if p.Addr != binary.BigEndian.Uint32(addr[:]) {
			return nil, fmt.Errorf("bgpwire: NLRI %v has host bits set", p)
		}
		ps = append(ps, p)
		data = data[1+nBytes:]
	}
	return ps, nil
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
