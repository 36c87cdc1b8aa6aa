package bgpwire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func TestOpenRoundTrip(t *testing.T) {
	for _, as := range []asn.ASN{64512, 70000, 4200000000} {
		in := &Open{Version: 4, AS: as, HoldTime: 90, RouterID: 0x0a000001}
		data, err := Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := out.(*Open)
		if !ok {
			t.Fatalf("decoded %T", out)
		}
		if *got != *in {
			t.Errorf("round trip: %+v != %+v", got, in)
		}
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	in := &Update{
		Withdrawn: []prefix.Prefix{mp("10.2.0.0/16")},
		Origin:    OriginIGP,
		ASPath:    []asn.ASN{7018, 3356, 4200000000, 65001},
		NextHop:   0xc0a80101,
		NLRI:      []prefix.Prefix{mp("129.82.0.0/16"), mp("129.83.4.0/24"), mp("8.0.0.0/8")},
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(*Update)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, in)
	}
	origin, ok := got.OriginAS()
	if !ok || origin != 65001 {
		t.Errorf("OriginAS = %v/%v", origin, ok)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	in := &Update{Withdrawn: []prefix.Prefix{mp("10.0.0.0/8")}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*Update)
	if len(got.NLRI) != 0 || len(got.Withdrawn) != 1 {
		t.Errorf("withdraw-only round trip: %+v", got)
	}
	if _, ok := got.OriginAS(); ok {
		t.Error("withdraw-only update should have no origin")
	}
}

func TestKeepaliveAndNotification(t *testing.T) {
	data, err := Marshal(Keepalive{})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != HeaderLen {
		t.Errorf("KEEPALIVE length = %d", len(data))
	}
	if _, err := Unmarshal(data); err != nil {
		t.Fatal(err)
	}

	n := &Notification{Code: 6, Subcode: 2, Data: []byte("bye")}
	data, err = Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*Notification)
	if got.Code != 6 || got.Subcode != 2 || string(got.Data) != "bye" {
		t.Errorf("NOTIFICATION round trip: %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good, err := Marshal(&Update{
		Origin: OriginIGP, ASPath: []asn.ASN{1}, NextHop: 1,
		NLRI: []prefix.Prefix{mp("10.0.0.0/8")},
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"short":        good[:10],
		"bad marker":   append([]byte{0}, good[1:]...),
		"bad type":     mutate(good, 18, 9),
		"short length": mutate(good, 17, 5),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Truncated buffer vs length field.
	if _, err := Unmarshal(good[:len(good)-1]); err == nil {
		t.Error("truncated update accepted")
	}
	// NLRI with length field exceeding 32: the final NLRI entry for
	// 10.0.0.0/8 is [8, 10]; corrupt its length byte.
	bad := append([]byte(nil), good...)
	bad[len(bad)-2] = 77
	if _, err := Unmarshal(bad); err == nil {
		t.Error("invalid NLRI length accepted")
	}
}

func mutate(data []byte, at int, v byte) []byte {
	out := append([]byte(nil), data...)
	out[at] = v
	return out
}

func TestAnnouncementRequiresASPath(t *testing.T) {
	// Hand-craft an UPDATE with NLRI but no attributes.
	nlri, err := appendNLRI(nil, []prefix.Prefix{mp("10.0.0.0/8")})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte{0, 0, 0, 0}
	body = append(body, nlri...)
	msg := make([]byte, HeaderLen+len(body))
	for i := 0; i < markerLen; i++ {
		msg[i] = 0xff
	}
	msg[16] = byte(len(msg) >> 8)
	msg[17] = byte(len(msg))
	msg[18] = TypeUpdate
	copy(msg[HeaderLen:], body)
	if _, err := Unmarshal(msg); err == nil {
		t.Error("announcement without AS_PATH accepted")
	}
}

func TestStreamReadWrite(t *testing.T) {
	var buf bytes.Buffer
	msgs := []any{
		&Open{Version: 4, AS: 65000, HoldTime: 180, RouterID: 7},
		Keepalive{},
		&Update{Origin: OriginIGP, ASPath: []asn.ASN{65000}, NextHop: 9, NLRI: []prefix.Prefix{mp("192.0.2.0/24")}},
		&Notification{Code: 6},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		switch want := msgs[i].(type) {
		case Keepalive:
			if _, ok := got.(Keepalive); !ok {
				t.Errorf("message %d: got %T", i, got)
			}
		case *Update:
			u, ok := got.(*Update)
			if !ok || !reflect.DeepEqual(u.NLRI, want.NLRI) {
				t.Errorf("message %d mismatch", i)
			}
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("read past end succeeded")
	}
}

// TestUpdateFuzzRoundTrip round-trips randomized updates.
func TestUpdateFuzzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		u := &Update{Origin: uint8(rng.Intn(3)), NextHop: rng.Uint32()}
		for i := rng.Intn(5); i > 0; i-- {
			u.ASPath = append(u.ASPath, asn.ASN(rng.Uint32()))
		}
		for i := rng.Intn(4); i > 0; i-- {
			u.NLRI = append(u.NLRI, prefix.New(rng.Uint32(), uint8(1+rng.Intn(32))))
		}
		for i := rng.Intn(3); i > 0; i-- {
			u.Withdrawn = append(u.Withdrawn, prefix.New(rng.Uint32(), uint8(1+rng.Intn(32))))
		}
		if len(u.NLRI) > 0 && len(u.ASPath) == 0 {
			u.ASPath = []asn.ASN{1}
		}
		if len(u.NLRI) == 0 {
			// Attributes travel only with announcements.
			u.Origin, u.NextHop, u.ASPath = 0, 0, nil
		}
		data, err := Marshal(u)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if !reflect.DeepEqual(got, u) {
			t.Fatalf("trial %d: round trip mismatch\n got %+v\nwant %+v", trial, got, u)
		}
	}
}

// TestUnmarshalGarbage ensures arbitrary bytes never panic the decoder.
func TestUnmarshalGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(100)
		data := make([]byte, n)
		rng.Read(data)
		// Half the trials get a valid marker+length to reach deeper code.
		if trial%2 == 0 && n >= HeaderLen {
			for i := 0; i < markerLen; i++ {
				data[i] = 0xff
			}
			data[16] = byte(n >> 8)
			data[17] = byte(n)
		}
		_, _ = Unmarshal(data) // must not panic
	}
}

// TestExtendedLengthAttribute: AS paths beyond 63 hops need the
// extended-length attribute encoding (value > 255 bytes).
func TestExtendedLengthAttribute(t *testing.T) {
	long := make([]asn.ASN, 100) // 2 + 4·100 = 402 bytes > 255
	for i := range long {
		long[i] = asn.ASN(i + 1)
	}
	in := &Update{
		Origin: OriginIGP, ASPath: long, NextHop: 9,
		NLRI: []prefix.Prefix{mp("10.0.0.0/8")},
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*Update)
	if !reflect.DeepEqual(got.ASPath, long) {
		t.Error("extended-length AS path mangled")
	}
}

// decodeASPath runs the decoder's AS_PATH check and fill over one
// attribute value.
func decodeASPath(val []byte) ([]asn.ASN, error) {
	n, err := checkASPath(val)
	if err != nil {
		return nil, err
	}
	return fillASPath(nil, val, n), nil
}

// TestASSetSegment: decoders must accept AS_SET segments (aggregated
// routes), flattening their members into the path.
func TestASSetSegment(t *testing.T) {
	// Hand-encode: one AS_SEQUENCE [100] + one AS_SET {200, 300}.
	val := []byte{
		SegmentSequence, 1, 0, 0, 0, 100,
		SegmentSet, 2, 0, 0, 0, 200, 0, 0, 1, 44, // 300
	}
	path, err := decodeASPath(val)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != 100 || path[1] != 200 || path[2] != 300 {
		t.Errorf("path = %v", path)
	}
	// Unknown segment type rejected.
	if _, err := decodeASPath([]byte{9, 1, 0, 0, 0, 1}); err == nil {
		t.Error("unknown segment type accepted")
	}
	// Truncated segment rejected.
	if _, err := decodeASPath([]byte{SegmentSequence, 2, 0, 0, 0, 1}); err == nil {
		t.Error("truncated segment accepted")
	}
}

// confedUpdate hand-builds an UPDATE for 10.1.0.0/16 whose AS_PATH is
// the given segments (type, then ASNs), framed as a sender would.
func confedUpdate(segs ...[]uint32) []byte {
	var path []byte
	for _, seg := range segs {
		path = append(path, byte(seg[0]), byte(len(seg)-1))
		for _, a := range seg[1:] {
			path = binary.BigEndian.AppendUint32(path, a)
		}
	}
	attrs := []byte{0x40, AttrOrigin, 1, OriginIGP}
	attrs = append(append(attrs, 0x40, AttrASPath, byte(len(path))), path...)
	attrs = append(attrs, 0x40, AttrNextHop, 4, 10, 0, 0, 1)
	body := []byte{0, 0} // no withdrawn routes
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(append(body, attrs...), 16, 10, 1)
	msg := bytes.Repeat([]byte{0xff}, 16)
	msg = binary.BigEndian.AppendUint16(msg, uint16(HeaderLen+len(body)))
	return append(append(msg, TypeUpdate), body...)
}

// TestConfedSegmentsSkipped: an UPDATE from inside a confederation
// (RFC 5065) decodes, with its AS_CONFED_SEQUENCE and AS_CONFED_SET
// segments left out of the flattened path.
func TestConfedSegmentsSkipped(t *testing.T) {
	msg, err := Unmarshal(confedUpdate(
		[]uint32{SegmentConfedSequence, 64512, 64513},
		[]uint32{SegmentSequence, 7018, 12145},
		[]uint32{SegmentConfedSet, 64514},
		[]uint32{SegmentSet, 3356},
	))
	if err != nil {
		t.Fatalf("UPDATE with confederation segments rejected: %v", err)
	}
	u := msg.(*Update)
	if want := []asn.ASN{7018, 12145, 3356}; !reflect.DeepEqual(u.ASPath, want) {
		t.Errorf("path = %v, want %v", u.ASPath, want)
	}
	if len(u.NLRI) != 1 || u.NLRI[0] != mp("10.1.0.0/16") || u.NextHop != 10<<24|1 {
		t.Errorf("decoded NLRI %v next hop %x", u.NLRI, u.NextHop)
	}
	// A path of confederation segments alone flattens to empty, so an
	// UPDATE announcing with it names no origin and is refused as such.
	path, err := decodeASPath([]byte{SegmentConfedSequence, 1, 0, 0, 252, 0, SegmentConfedSet, 0})
	if err != nil || len(path) != 0 {
		t.Errorf("confederation-only path = %v, %v; want empty", path, err)
	}
	_, err = Unmarshal(confedUpdate([]uint32{SegmentConfedSequence, 64512}, []uint32{SegmentConfedSet}))
	if err == nil || !strings.Contains(err.Error(), "without AS_PATH") {
		t.Errorf("confederation-only announcement: err = %v, want the empty-path refusal", err)
	}
	// A truncated confederation segment is still malformed.
	if _, err := decodeASPath([]byte{SegmentConfedSequence, 2, 0, 0, 0, 1}); err == nil {
		t.Error("truncated confederation segment accepted")
	}
	if _, err := decodeASPath([]byte{5, 0}); err == nil {
		t.Error("segment type 5 accepted")
	}
}

// TestEncodeDecodeAttributesHelpers covers the exported helpers used by
// the MRT codec.
func TestEncodeDecodeAttributesHelpers(t *testing.T) {
	attrs, err := AppendAttributes(nil, OriginEGP, []asn.ASN{1, 2, 3}, 42)
	if err != nil {
		t.Fatal(err)
	}
	origin, path, nh, err := DecodeAttributes(attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginEGP || nh != 42 || len(path) != 3 {
		t.Errorf("decoded %d/%v/%d", origin, path, nh)
	}
	if _, err := AppendAttributes(nil, 9, nil, 0); err == nil {
		t.Error("invalid origin accepted")
	}
	if _, _, _, err := DecodeAttributes([]byte{0x40}, nil); err == nil {
		t.Error("truncated attribute block accepted")
	}
}
