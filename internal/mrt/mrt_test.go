package mrt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func TestPeerIndexTableRoundTrip(t *testing.T) {
	in := &PeerIndexTable{
		CollectorBGPID: 0x0a0b0c0d,
		ViewName:       "route-views.sim",
		Peers: []Peer{
			{BGPID: 1, Addr: 0xc0000201, AS: 7018},
			{BGPID: 2, Addr: 0xc0000202, AS: 4200000000},
		},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, 1000)
	if err := w.WritePeerIndexTable(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.(*PeerIndexTable)
	if !ok {
		t.Fatalf("decoded %T", rec)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, in)
	}
}

func TestRIBRoundTrip(t *testing.T) {
	in := &RIBIPv4Unicast{
		SequenceNumber: 42,
		Prefix:         mp("129.82.0.0/16"),
		Entries: []RIBEntry{
			{PeerIndex: 0, OriginatedTime: 99, Origin: bgpwire.OriginIGP,
				ASPath: []asn.ASN{7018, 12145}, NextHop: 7},
			{PeerIndex: 1, OriginatedTime: 98, Origin: bgpwire.OriginIncomplete,
				ASPath: []asn.ASN{3356, 209, 12145}, NextHop: 9},
		},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, 1234)
	if err := w.WriteRIB(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.(*RIBIPv4Unicast)
	if !ok {
		t.Fatalf("decoded %T", rec)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, in)
	}
}

func TestBGP4MPRoundTrip(t *testing.T) {
	in := &BGP4MPMessage{
		Timestamp: 777,
		PeerAS:    65001,
		LocalAS:   65000,
		PeerAddr:  0x01020304,
		LocalAddr: 0x05060708,
		Message: &bgpwire.Update{
			Origin:  bgpwire.OriginIGP,
			ASPath:  []asn.ASN{65001, 12145},
			NextHop: 0x01020304,
			NLRI:    []prefix.Prefix{mp("129.82.0.0/16")},
		},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, 777)
	if err := w.WriteBGP4MP(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.(*BGP4MPMessage)
	if !ok {
		t.Fatalf("decoded %T", rec)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, in)
	}
}

func TestMixedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	pit := &PeerIndexTable{ViewName: "v", Peers: []Peer{{AS: 1}}}
	if err := w.WritePeerIndexTable(pit); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rib := &RIBIPv4Unicast{
			SequenceNumber: uint32(i),
			Prefix:         prefix.New(uint32(i)<<24, 8),
			Entries: []RIBEntry{{
				Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{asn.ASN(i + 1)}, NextHop: 1,
			}},
		}
		if err := w.WriteRIB(rib); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	count := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
		if count == 1 {
			if _, ok := rec.(*PeerIndexTable); !ok {
				t.Errorf("first record is %T, want PeerIndexTable", rec)
			}
		}
	}
	if count != 6 {
		t.Errorf("read %d records, want 6", count)
	}
}

func TestReaderReportsUnknownTypes(t *testing.T) {
	var buf bytes.Buffer
	// Unknown record (type 99), then a valid peer index table.
	hdr := make([]byte, 12)
	hdr[5] = 99
	hdr[11] = 3
	buf.Write(hdr)
	buf.Write([]byte{1, 2, 3})
	w := NewWriter(&buf, 1)
	if err := w.WritePeerIndexTable(&PeerIndexTable{ViewName: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	_, err := r.Next()
	var unknown *ErrUnknownRecord
	if !errors.As(err, &unknown) {
		t.Fatalf("first Next error = %v, want *ErrUnknownRecord", err)
	}
	if unknown.Type != 99 || unknown.Length != 3 {
		t.Errorf("unknown record = %+v, want type 99 length 3", unknown)
	}
	if !Skippable(err) {
		t.Error("ErrUnknownRecord not Skippable")
	}
	if r.Offset() != 15 {
		t.Errorf("Offset after skipping = %d, want 15", r.Offset())
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.(*PeerIndexTable); !ok {
		t.Errorf("got %T, want PeerIndexTable after skipping unknown", rec)
	}
	if r.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1", r.Skipped())
	}
}

func TestReaderReportsMalformedBody(t *testing.T) {
	var buf bytes.Buffer
	// A TABLE_DUMP_V2 peer-index record whose body is too short to parse,
	// followed by a valid one: the reader must stay aligned.
	hdr := make([]byte, 12)
	hdr[5] = TypeTableDumpV2
	hdr[7] = SubtypePeerIndexTable
	hdr[11] = 3
	buf.Write(hdr)
	buf.Write([]byte{1, 2, 3})
	w := NewWriter(&buf, 1)
	if err := w.WritePeerIndexTable(&PeerIndexTable{ViewName: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	_, err := r.Next()
	var malformed *ErrMalformedRecord
	if !errors.As(err, &malformed) {
		t.Fatalf("first Next error = %v, want *ErrMalformedRecord", err)
	}
	if !Skippable(err) {
		t.Error("ErrMalformedRecord not Skippable")
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.(*PeerIndexTable); !ok {
		t.Errorf("got %T, want PeerIndexTable after malformed record", rec)
	}
}

func TestReaderErrors(t *testing.T) {
	// Truncated header.
	r := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated header error = %v, want ErrTruncated", err)
	}
	if r.Offset() != 0 {
		t.Errorf("clean-prefix offset after truncated header = %d, want 0", r.Offset())
	}
	// Truncated body.
	hdr := make([]byte, 12)
	hdr[5] = TypeTableDumpV2
	hdr[7] = SubtypePeerIndexTable
	hdr[11] = 200 // claims 200 bytes
	if _, err := NewReader(bytes.NewReader(append(hdr, 1, 2))).Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body error = %v, want ErrTruncated", err)
	}
	// Truncation is fatal, not skippable.
	if Skippable(fmt.Errorf("wrap: %w", ErrTruncated)) {
		t.Error("ErrTruncated reported Skippable")
	}
	// Clean EOF.
	if _, err := NewReader(bytes.NewReader(nil)).Next(); err != io.EOF {
		t.Errorf("empty stream error = %v, want io.EOF", err)
	}
}

// TestReaderCleanPrefix writes two good records, then chops the stream
// mid-way through a third: both good records must decode and Offset must
// land exactly on the byte where the truncated record starts.
func TestReaderCleanPrefix(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	if err := w.WritePeerIndexTable(&PeerIndexTable{ViewName: "v", Peers: []Peer{{AS: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(&RIBIPv4Unicast{Prefix: mp("10.0.0.0/8")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cleanLen := buf.Len()
	if err := w.WriteRIB(&RIBIPv4Unicast{Prefix: mp("10.1.0.0/16")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	chopped := buf.Bytes()[:buf.Len()-1]

	r := NewReader(bytes.NewReader(chopped))
	var recs int
	for {
		_, err := r.Next()
		if err == nil {
			recs++
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("error = %v, want ErrTruncated", err)
		}
		break
	}
	if recs != 2 {
		t.Errorf("clean records = %d, want 2", recs)
	}
	if r.Offset() != int64(cleanLen) {
		t.Errorf("Offset = %d, want clean prefix %d", r.Offset(), cleanLen)
	}
}

func TestReaderMalformedBudget(t *testing.T) {
	var buf bytes.Buffer
	unknown := make([]byte, 12)
	unknown[5] = 99
	for i := 0; i < 4; i++ {
		buf.Write(unknown)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.SetMalformedBudget(2)
	var fatal error
	for i := 0; i < 10; i++ {
		_, err := r.Next()
		if err == nil || Skippable(err) {
			continue
		}
		fatal = err
		break
	}
	if !errors.Is(fatal, ErrBudgetExhausted) {
		t.Errorf("over-budget error = %v, want ErrBudgetExhausted", fatal)
	}

	// Negative budget: unlimited.
	r = NewReader(bytes.NewReader(buf.Bytes()))
	r.SetMalformedBudget(-1)
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if !Skippable(err) {
			t.Fatalf("unlimited budget error = %v", err)
		}
	}
	if r.Skipped() != 4 {
		t.Errorf("Skipped = %d, want 4", r.Skipped())
	}
}

// TestFuzzGarbage feeds random bytes; the reader must error or EOF, never
// panic or loop forever.
func TestFuzzGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 20; i++ {
			if _, err := r.Next(); err != nil {
				break
			}
		}
	}
}

// TestNextRecordsOwnTheirStorage: the reader reuses one body buffer, so
// a record from Next must share nothing with it. Each record of a mixed
// stream, read again by a second reader after the first has read 100
// records further, is still deep-equal to its independent twin.
func TestNextRecordsOwnTheirStorage(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	if err := w.WritePeerIndexTable(&PeerIndexTable{ViewName: "own", Peers: []Peer{{AS: 7}, {AS: 8}}}); err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		path := make([]asn.ASN, 1+i%9)
		for j := range path {
			path[j] = asn.ASN(1000*i + j + 1)
		}
		p := prefix.New(uint32(i)<<8|10<<24, 24)
		var err error
		if i%3 == 0 {
			err = w.WriteRIB(&RIBIPv4Unicast{SequenceNumber: uint32(i), Prefix: p, Entries: []RIBEntry{
				{PeerIndex: 0, Origin: bgpwire.OriginIGP, ASPath: path, NextHop: 1},
				{PeerIndex: 1, Origin: bgpwire.OriginEGP, ASPath: path[:1], NextHop: 2},
			}})
		} else {
			err = w.WriteBGP4MP(&BGP4MPMessage{PeerAS: asn.ASN(i), LocalAS: 65000, Message: &bgpwire.Update{
				Withdrawn: []prefix.Prefix{prefix.New(uint32(i)<<16, 16)},
				Origin:    bgpwire.OriginIGP, ASPath: path, NextHop: uint32(i), NLRI: []prefix.Prefix{p},
			}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	kept := make([]Record, 0, n+1)
	ahead := NewReader(bytes.NewReader(data))
	for {
		rec, err := ahead.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, rec)
	}
	if len(kept) != n+1 {
		t.Fatalf("read %d records, want %d", len(kept), n+1)
	}
	twin := NewReader(bytes.NewReader(data))
	for i := 0; i+100 < len(kept); i++ {
		rec, err := twin.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kept[i], rec) {
			t.Fatalf("record %d changed after 100 more reads: %+v, want %+v", i, kept[i], rec)
		}
	}
}
