package mrt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

// rawRecord frames body as one MRT record of typ/subtype.
func rawRecord(typ, subtype uint16, body []byte) []byte {
	be := binary.BigEndian
	b := be.AppendUint32(nil, 1)
	b = be.AppendUint16(b, typ)
	b = be.AppendUint16(b, subtype)
	b = be.AppendUint32(b, uint32(len(body)))
	return append(b, body...)
}

// ipv6Update is a BGP4MP_MESSAGE_AS4 record from an IPv6 session: AFI 2,
// 16-byte peer and local addresses, carrying a KEEPALIVE.
func ipv6Update() []byte {
	be := binary.BigEndian
	b := be.AppendUint32(nil, 65001)
	b = be.AppendUint32(b, 65000)
	b = be.AppendUint16(b, 0) // interface index
	b = be.AppendUint16(b, 2) // AFI IPv6
	b = append(b, make([]byte, 32)...)
	b = append(b, bytes.Repeat([]byte{0xff}, 16)...)
	b = append(b, 0, 19, 4) // KEEPALIVE
	return rawRecord(mrt.TypeBGP4MP, mrt.SubtypeMessageAS4, b)
}

// stateChangeAS4 is a BGP4MP_STATE_CHANGE_AS4 record (subtype 5) on an
// IPv4 session: Established → Idle.
func stateChangeAS4() []byte {
	be := binary.BigEndian
	b := be.AppendUint32(nil, 65001)
	b = be.AppendUint32(b, 65000)
	b = be.AppendUint16(b, 0)
	b = be.AppendUint16(b, 1)
	b = be.AppendUint32(b, 0x0a000001)
	b = be.AppendUint32(b, 0x0a000002)
	b = be.AppendUint16(b, 6)
	b = be.AppendUint16(b, 1)
	return rawRecord(mrt.TypeBGP4MP, 5, b)
}

// ribIPv6 is a TABLE_DUMP_V2 RIB_IPV6_UNICAST record (subtype 4) for
// one /32 with no entries.
func ribIPv6(seq uint32) []byte {
	b := binary.BigEndian.AppendUint32(nil, seq)
	b = append(b, 32, 0x20, 0x01, 0x0d, 0xb8, 0, 0)
	return rawRecord(mrt.TypeTableDumpV2, 4, b)
}

// ipv4Update is one decodable BGP4MP_MESSAGE_AS4 IPv4 update.
func ipv4Update(tb testing.TB, i int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf, 1)
	err := w.WriteBGP4MP(&mrt.BGP4MPMessage{
		PeerAS: 65001, LocalAS: 65000, PeerAddr: 0x0a000001, LocalAddr: 0x0a000002,
		Message: &bgpwire.Update{
			Origin:  bgpwire.OriginIGP,
			ASPath:  []asn.ASN{65001, asn.ASN(100 + i)},
			NextHop: 0x0a000001,
			NLRI:    []prefix.Prefix{prefix.New(uint32(i)<<8|0x0a000000, 24)},
		},
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rfcDefinedStream interleaves v6 IPv6-session updates, state
// STATE_CHANGE_AS4 records and rib6 RIB_IPV6_UNICAST records with IPv4
// updates, one before each and one at the end; it returns the stream and
// its IPv4 update count.
func rfcDefinedStream(tb testing.TB, v6, state, rib6 int) ([]byte, int) {
	var data []byte
	ipv4 := 0
	add := func(rec []byte) {
		data = append(data, ipv4Update(tb, ipv4)...)
		ipv4++
		data = append(data, rec...)
	}
	for i := 0; i < max(v6, state, rib6); i++ {
		if i < v6 {
			add(ipv6Update())
		}
		if i < state {
			add(stateChangeAS4())
		}
		if i < rib6 {
			add(ribIPv6(uint32(i)))
		}
	}
	data = append(data, ipv4Update(tb, ipv4)...)
	return data, ipv4 + 1
}

// TestRFCDefinedRecordsSpareBudget: a collector dump's IPv6 updates,
// state changes and IPv6 RIB records, each far past the malformed
// budget in number, are skipped as unsupported and counted, while every
// IPv4 update between them is returned.
func TestRFCDefinedRecordsSpareBudget(t *testing.T) {
	data, ipv4 := rfcDefinedStream(t, 200, 100, 70)
	r := mrt.NewReader(bytes.NewReader(data))
	updates, unsupported := 0, 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		var u *mrt.ErrUnsupportedRecord
		if errors.As(err, &u) {
			if !mrt.Skippable(err) {
				t.Fatal("ErrUnsupportedRecord not Skippable")
			}
			unsupported++
			continue
		}
		if err != nil {
			t.Fatalf("after %d updates and %d unsupported records: %v", updates, unsupported, err)
		}
		if m, ok := rec.(*mrt.BGP4MPMessage); ok {
			if _, ok := m.Message.(*bgpwire.Update); ok {
				updates++
			}
		}
	}
	if updates != ipv4 || unsupported != 370 {
		t.Errorf("read %d IPv4 updates and %d unsupported records, want %d and 370", updates, unsupported, ipv4)
	}
	if r.Skipped() != 370 {
		t.Errorf("Skipped = %d, want 370", r.Skipped())
	}
}

// TestMalformedBodiesStillSpendBudget: damaged bodies of decoded
// record types — among them an IPv6-session update too short for its
// addresses — exhaust the default budget at the 65th, whatever
// unsupported records sit between them.
func TestMalformedBodiesStillSpendBudget(t *testing.T) {
	var data []byte
	for i := 0; i < mrt.DefaultMalformedBudget+1; i++ {
		data = append(data, stateChangeAS4()...)
		if i%2 == 0 {
			short := ipv6Update()[12 : 12+20] // an IPv6 session's header, cut short
			data = append(data, rawRecord(mrt.TypeBGP4MP, mrt.SubtypeMessageAS4, short)...)
		} else {
			data = append(data, rawRecord(mrt.TypeTableDumpV2, mrt.SubtypePeerIndexTable, []byte{1, 2, 3})...)
		}
	}
	r := mrt.NewReader(bytes.NewReader(data))
	malformed := 0
	for {
		_, err := r.Next()
		var m *mrt.ErrMalformedRecord
		var u *mrt.ErrUnsupportedRecord
		switch {
		case errors.As(err, &m):
			malformed++
			continue
		case errors.As(err, &u):
			continue
		case errors.Is(err, mrt.ErrBudgetExhausted):
			if malformed != mrt.DefaultMalformedBudget {
				t.Errorf("budget exhausted after %d malformed records, want %d", malformed, mrt.DefaultMalformedBudget)
			}
			return
		}
		t.Fatalf("after %d malformed records: %v, want ErrBudgetExhausted", malformed, err)
	}
}

// TestSkippableVerdicts: Skippable allocates nothing for the nil error
// every intact record comes back with, and keeps its verdict on each
// typed error, wrapped or not.
func TestSkippableVerdicts(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { _ = mrt.Skippable(nil) }); got != 0 {
		t.Errorf("Skippable(nil) allocates %v objects, want 0", got)
	}
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&mrt.ErrUnknownRecord{Type: 99}, true},
		{&mrt.ErrUnsupportedRecord{Type: mrt.TypeTableDumpV2, Subtype: 4}, true},
		{&mrt.ErrMalformedRecord{Type: mrt.TypeBGP4MP, Err: io.ErrUnexpectedEOF}, true},
		{mrt.ErrTruncated, false},
		{mrt.ErrBudgetExhausted, false},
		{io.EOF, false},
		{errors.New("mrt: something else"), false},
	} {
		if got := mrt.Skippable(tc.err); got != tc.want {
			t.Errorf("Skippable(%v) = %v, want %v", tc.err, got, tc.want)
		}
		if tc.err == nil {
			continue
		}
		wrapped := fmt.Errorf("replay: %w", tc.err)
		if got := mrt.Skippable(wrapped); got != tc.want {
			t.Errorf("Skippable(%v) = %v, want %v", wrapped, got, tc.want)
		}
	}
}
