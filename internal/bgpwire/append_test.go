package bgpwire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

func seqPath(n int) []asn.ASN {
	p := make([]asn.ASN, n)
	for i := range p {
		p[i] = asn.FromUint32(uint32(64512 + i))
	}
	return p
}

// everyLength is 192.168.255.255 masked to each of /0 … /32.
func everyLength() []prefix.Prefix {
	var ps []prefix.Prefix
	for l := 0; l <= 32; l++ {
		ps = append(ps, prefix.New(0xC0A8FFFF, uint8(l)))
	}
	return ps
}

// TestAppendMessageGolden pins the encoder byte for byte to encodings
// captured from the bytes.Buffer-based Marshal it replaced, for every
// message type and every attribute/NLRI shape that encoder had a branch
// for.
func TestAppendMessageGolden(t *testing.T) {
	const allLens = "00018002c003c004c005c006c007c008c009c0800ac0800bc0a00cc0a00dc0a80ec0a80fc0a810c0a811c0a88012c0a8c013c0a8e014c0a8f015c0a8f816c0a8fc17c0a8fe18c0a8ff19c0a8ff801ac0a8ffc01bc0a8ffe01cc0a8fff01dc0a8fff81ec0a8fffc1fc0a8fffe20c0a8ffff"
	extPath := ""
	for i := 0; i < 64; i++ {
		extPath += "0000fc" + hex.EncodeToString([]byte{byte(i)})
	}
	const marker = "ffffffffffffffffffffffffffffffff"
	cases := []struct {
		name string
		msg  any
		want string
	}{
		{"open", &Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: 0x0A000001},
			marker + "00250104fde9005a0a00000108020641040000fde9"},
		{"open four-octet AS", &Open{Version: 4, AS: asn.FromUint32(4200000001), HoldTime: 180, RouterID: 7},
			marker + "002501045ba000b4000000070802064104fa56ea01"},
		{"update announce", &Update{Origin: OriginIGP, ASPath: []asn.ASN{65001, 3491, 100}, NextHop: 0x0A000001,
			NLRI: []prefix.Prefix{mp("10.0.0.0/16"), mp("192.0.2.0/24")}},
			marker + "003a020000001c4001010040020e02030000fde900000da3000000644003040a000001100a0018c00002"},
		{"update withdraw only", &Update{Withdrawn: []prefix.Prefix{mp("10.1.0.0/16"), mp("198.51.100.128/25")}},
			marker + "001f020008100a0119c63364800000"},
		{"update withdraw and announce", &Update{Withdrawn: []prefix.Prefix{mp("10.1.0.0/16")},
			Origin: OriginIncomplete, ASPath: []asn.ASN{asn.FromUint32(4200000001)}, NextHop: 0xC0000201,
			NLRI: []prefix.Prefix{mp("203.0.113.0/24")}},
			marker + "0032020003100a010014400101024002060201fa56ea01400304c000020118cb0071"},
		{"update empty AS_PATH", &Update{Origin: OriginEGP, NextHop: 1, NLRI: []prefix.Prefix{mp("10.0.0.0/8")}},
			marker + "0027020000000e4001010140020040030400000001080a"},
		{"update extended-length AS_PATH", &Update{Origin: OriginIGP, ASPath: seqPath(64), NextHop: 2, NLRI: []prefix.Prefix{mp("10.0.0.0/8")}},
			marker + "012a020000011140010100500201020240" + extPath + "40030400000002080a"},
		{"update NLRI /0 to /32", &Update{Origin: OriginIGP, ASPath: []asn.ASN{65001}, NextHop: 3, NLRI: everyLength(), Withdrawn: everyLength()},
			marker + "010d020071" + allLens + "00144001010040020602010000fde940030400000003" + allLens},
		{"update empty", &Update{}, marker + "00170200000000"},
		{"update attributes dropped without NLRI", &Update{Origin: 9, ASPath: []asn.ASN{1, 2}, NextHop: 5},
			marker + "00170200000000"},
		{"notification with data", &Notification{Code: 6, Subcode: 2, Data: []byte("maintenance")},
			marker + "00200306026d61696e74656e616e6365"},
		{"notification bare", &Notification{Code: 4}, marker + "0015030400"},
		{"keepalive", Keepalive{}, marker + "001304"},
		{"keepalive pointer", &Keepalive{}, marker + "001304"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := hex.DecodeString(tc.want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Marshal(tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("Marshal:\n got %x\nwant %x", got, want)
			}
			// Appending must leave what dst already holds alone.
			got, err = AppendMessage([]byte("prefix"), tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Errorf("AppendMessage after a prefix:\n got %x\nwant prefix+%x", got, want)
			}
		})
	}
}

// TestAppendMessageErrors: the rejections keep the replaced encoder's
// wording and precedence, and a failed append hands dst back untouched.
func TestAppendMessageErrors(t *testing.T) {
	many := make([]prefix.Prefix, 1100)
	for i := range many {
		many[i] = prefix.New(uint32(i)<<8, 24)
	}
	cases := []struct {
		msg  any
		want string
	}{
		{&Update{Origin: 3, ASPath: []asn.ASN{1}, NLRI: []prefix.Prefix{mp("10.0.0.0/8")}}, "bgpwire: invalid ORIGIN 3"},
		{&Update{ASPath: []asn.ASN{1}, NLRI: []prefix.Prefix{{Len: 33}}}, "bgpwire: prefix length 33 invalid"},
		// The withdrawn routes are encoded — and rejected — first.
		{&Update{Withdrawn: []prefix.Prefix{{Len: 40}}, Origin: 7, NLRI: []prefix.Prefix{{Len: 33}}}, "bgpwire: prefix length 40 invalid"},
		{&Update{Withdrawn: many}, "bgpwire: message length 4423 exceeds 4096"},
		{&Notification{Data: make([]byte, 4090)}, "bgpwire: message length 4111 exceeds 4096"},
		{"nope", "bgpwire: cannot marshal string"},
	}
	for _, tc := range cases {
		got, err := AppendMessage([]byte("kept"), tc.msg)
		if err == nil || err.Error() != tc.want {
			t.Errorf("AppendMessage(%T) error = %v, want %q", tc.msg, err, tc.want)
		}
		if string(got) != "kept" {
			t.Errorf("AppendMessage(%T) returned dst %q after an error, want it back at %q", tc.msg, got, "kept")
		}
	}
	if _, err := AppendAttributes(nil, 3, nil, 9); err == nil || err.Error() != "bgpwire: invalid ORIGIN 3" {
		t.Errorf("AppendAttributes error = %v, want invalid ORIGIN 3", err)
	}
}

// TestAppendMessageNoAllocs: encoding into a buffer that has already
// grown to size allocates nothing — what lets a session reuse one
// buffer for every batch it writes.
func TestAppendMessageNoAllocs(t *testing.T) {
	msgs := []any{
		&Update{Origin: OriginIGP, ASPath: []asn.ASN{65001, 3491, 100}, NextHop: 1,
			NLRI: []prefix.Prefix{mp("10.0.0.0/16"), mp("192.0.2.0/24")}, Withdrawn: []prefix.Prefix{mp("10.1.0.0/16")}},
		&Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: 1},
		&Notification{Code: 6, Data: []byte("bye")},
		Keepalive{},
	}
	buf := make([]byte, 0, MaxMessageLen)
	for _, msg := range msgs {
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = AppendMessage(buf[:0], msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendMessage(%T) into a warm buffer: %v allocs per call, want 0", msg, allocs)
		}
	}
}

// TestLongASPathSegments: a path longer than one segment's count octet
// can announce continues in further AS_SEQUENCE segments and decodes
// back to the same path.
func TestLongASPathSegments(t *testing.T) {
	for _, n := range []int{255, 256, 600} {
		in := &Update{Origin: OriginIGP, ASPath: seqPath(n), NextHop: 1, NLRI: []prefix.Prefix{mp("10.0.0.0/8")}}
		data, err := Marshal(in)
		if err != nil {
			t.Fatalf("%d ASNs: %v", n, err)
		}
		msg, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%d ASNs: %v", n, err)
		}
		if got := msg.(*Update).ASPath; !reflect.DeepEqual(got, in.ASPath) {
			t.Errorf("%d ASNs: path came back with %d elements, first differing from the original", n, len(got))
		}
	}
}

// TestCheckUpdateAllocFree: checking an UPDATE allocates nothing, for
// bodies it accepts and for faults reported by a fixed error — what
// lets a replay reader forward an UPDATE's bytes without a decode.
func TestCheckUpdateAllocFree(t *testing.T) {
	long := make([]asn.ASN, 300) // an extended-length AS_PATH in two segments
	for i := range long {
		long[i] = asn.ASN(64000 + i)
	}
	var bodies [][]byte
	for _, u := range []*Update{
		{Origin: OriginIGP, ASPath: []asn.ASN{65001, 3491, 100}, NextHop: 1,
			NLRI: []prefix.Prefix{mp("10.0.0.0/16"), mp("192.0.2.0/24"), mp("0.0.0.0/0"), mp("198.51.100.7/32")}},
		{Withdrawn: []prefix.Prefix{mp("10.1.0.0/16"), mp("10.128.0.0/9")}},
		{Origin: OriginEGP, ASPath: long, NextHop: 2, NLRI: []prefix.Prefix{mp("203.0.113.0/24")}},
	} {
		msg, err := Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, msg[HeaderLen:])
	}
	bodies = append(bodies,
		confedUpdate([]uint32{SegmentConfedSequence, 64512}, []uint32{SegmentSequence, 7018})[HeaderLen:],
		[]byte{0, 0, 0, 0, 24, 10, 0, 1}, // announces without AS_PATH: a fixed error
	)
	for i, body := range bodies {
		want := CheckUpdate(body)
		allocs := testing.AllocsPerRun(100, func() {
			if err := CheckUpdate(body); err != want {
				t.Fatalf("body %d: CheckUpdate = %v, then %v", i, want, err)
			}
		})
		if allocs != 0 {
			t.Errorf("CheckUpdate(body %d): %v allocs per call, want 0", i, allocs)
		}
	}
}
