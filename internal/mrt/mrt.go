// Package mrt implements the MRT export format (RFC 6396) that BGP
// collectors such as Oregon RouteViews — the paper's validation data
// source — publish their RIB snapshots and update streams in:
// TABLE_DUMP_V2 PEER_INDEX_TABLE / RIB_IPV4_UNICAST records and BGP4MP
// AS4 message records. The package reads and writes both, so simulated
// routing tables can round-trip through the same on-disk format real
// measurement pipelines consume.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

// MRT record types and subtypes used here.
const (
	TypeTableDumpV2 = 13
	TypeBGP4MP      = 16

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2
	SubtypeMessageAS4     = 4
)

// Address families of a BGP4MP record's session (RFC 6396 §4.4).
const (
	afiIPv4 = 1
	afiIPv6 = 2
)

// Record is one decoded MRT record.
type Record interface{ mrtRecord() }

// Peer describes one collector peer in a PEER_INDEX_TABLE.
type Peer struct {
	BGPID uint32
	Addr  uint32 // IPv4, host byte order
	AS    asn.ASN
}

// PeerIndexTable is the TABLE_DUMP_V2 peer directory that RIB entries
// reference by index.
type PeerIndexTable struct {
	CollectorBGPID uint32
	ViewName       string
	Peers          []Peer
}

func (*PeerIndexTable) mrtRecord() {}

// RIBEntry is one peer's route for a RIB record's prefix.
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime uint32
	Origin         uint8
	ASPath         []asn.ASN
	NextHop        uint32
}

// RIBIPv4Unicast is one TABLE_DUMP_V2 RIB record: every peer's route to
// one prefix.
type RIBIPv4Unicast struct {
	SequenceNumber uint32
	Prefix         prefix.Prefix
	Entries        []RIBEntry
}

func (*RIBIPv4Unicast) mrtRecord() {}

// BGP4MPMessage is a BGP4MP MESSAGE_AS4 record: one BGP message as seen on
// a collector session.
type BGP4MPMessage struct {
	Timestamp uint32
	PeerAS    asn.ASN
	LocalAS   asn.ASN
	PeerAddr  uint32
	LocalAddr uint32
	// Message is the decoded BGP message (*bgpwire.Update etc.).
	Message any
}

func (*BGP4MPMessage) mrtRecord() {}

// Writer emits MRT records.
type Writer struct {
	w   *bufio.Writer
	now uint32
	// body is the record-body scratch every Write* call appends into and
	// hands to writeRecord, kept so a stream of records reuses one buffer.
	body []byte
}

// NewWriter wraps w; timestamp stamps every record (collectors use the
// dump wall-clock; the simulator passes logical time).
func NewWriter(w io.Writer, timestamp uint32) *Writer {
	return &Writer{w: bufio.NewWriter(w), now: timestamp}
}

// writeRecord emits one record whose body is body, and keeps body's
// storage as the scratch for the next record.
func (w *Writer) writeRecord(typ, subtype uint16, body []byte) error {
	w.body = body[:0]
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], w.now)
	binary.BigEndian.PutUint16(hdr[4:6], typ)
	binary.BigEndian.PutUint16(hdr[6:8], subtype)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(body)
	return err
}

// WritePeerIndexTable emits the peer directory; call it before any RIB
// records, as RFC 6396 requires.
func (w *Writer) WritePeerIndexTable(t *PeerIndexTable) error {
	be := binary.BigEndian
	b := be.AppendUint32(w.body[:0], t.CollectorBGPID)
	b = be.AppendUint16(b, uint16(len(t.ViewName)))
	b = append(b, t.ViewName...)
	b = be.AppendUint16(b, uint16(len(t.Peers)))
	for _, p := range t.Peers {
		b = append(b, 0x06) // peer type: AS4 + IPv4 address
		b = be.AppendUint32(b, p.BGPID)
		b = be.AppendUint32(b, p.Addr)
		b = be.AppendUint32(b, p.AS.Uint32())
	}
	return w.writeRecord(TypeTableDumpV2, SubtypePeerIndexTable, b)
}

// WriteRIB emits one RIB_IPV4_UNICAST record.
func (w *Writer) WriteRIB(r *RIBIPv4Unicast) error {
	be := binary.BigEndian
	b := be.AppendUint32(w.body[:0], r.SequenceNumber)
	// NLRI: length byte + truncated prefix.
	var addr [4]byte
	be.PutUint32(addr[:], r.Prefix.Addr)
	b = append(append(b, r.Prefix.Len), addr[:int(r.Prefix.Len+7)/8]...)
	b = be.AppendUint16(b, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		b = be.AppendUint16(b, e.PeerIndex)
		b = be.AppendUint32(b, e.OriginatedTime)
		at := len(b)
		var err error
		if b, err = bgpwire.AppendAttributes(append(b, 0, 0), e.Origin, e.ASPath, e.NextHop); err != nil {
			return fmt.Errorf("mrt: rib entry: %w", err)
		}
		be.PutUint16(b[at:], uint16(len(b)-at-2))
	}
	return w.writeRecord(TypeTableDumpV2, SubtypeRIBIPv4Unicast, b)
}

// WriteBGP4MP emits one BGP4MP MESSAGE_AS4 record.
func (w *Writer) WriteBGP4MP(m *BGP4MPMessage) error {
	be := binary.BigEndian
	b := be.AppendUint32(w.body[:0], m.PeerAS.Uint32())
	b = be.AppendUint32(b, m.LocalAS.Uint32())
	b = be.AppendUint16(b, 0) // interface index
	b = be.AppendUint16(b, afiIPv4)
	b = be.AppendUint32(b, m.PeerAddr)
	b = be.AppendUint32(b, m.LocalAddr)
	b, err := bgpwire.AppendMessage(b, m.Message)
	if err != nil {
		return fmt.Errorf("mrt: bgp4mp: %w", err)
	}
	return w.writeRecord(TypeBGP4MP, SubtypeMessageAS4, b)
}

// Flush flushes buffered records.
func (w *Writer) Flush() error { return w.w.Flush() }

// ErrTruncated marks a file that ends mid-record. The records decoded
// before it form a clean prefix of the stream (the recovery model of
// recio.Recover): Offset reports where that prefix ends.
var ErrTruncated = errors.New("mrt: truncated record")

// ErrBudgetExhausted ends a stream whose skippable-record count exceeded
// the reader's malformed budget. It is fatal: a file this degraded is more
// likely the wrong format than a damaged capture.
var ErrBudgetExhausted = errors.New("mrt: malformed-record budget exhausted")

// ErrUnknownRecord reports a record of a type/subtype this package does
// not decode. The reader stays aligned on the following record, so callers
// that tolerate foreign records skip it by calling Next again.
type ErrUnknownRecord struct {
	Type    uint16
	Subtype uint16
	Length  uint32
}

func (e *ErrUnknownRecord) Error() string {
	return fmt.Sprintf("mrt: unknown record type %d subtype %d (%d bytes)", e.Type, e.Subtype, e.Length)
}

// ErrUnsupportedRecord reports a record RFC 6396 defines that this
// package does not decode: an IPv6 or multicast RIB, a BGP4MP state
// change, an extended-timestamp record, a BGP4MP message on an IPv6
// session. Real collector dumps carry such records by the thousand, so
// unlike unknown types and damaged bodies they do not spend the reader's
// malformed budget. The reader stays aligned on the following record.
type ErrUnsupportedRecord struct {
	Type    uint16
	Subtype uint16
	Length  uint32
}

func (e *ErrUnsupportedRecord) Error() string {
	return fmt.Sprintf("mrt: unsupported record type %d subtype %d (%d bytes)", e.Type, e.Subtype, e.Length)
}

// ErrMalformedRecord reports a record of a known type whose body failed to
// decode. The whole body was consumed, so the reader stays aligned and
// callers can skip it by calling Next again.
type ErrMalformedRecord struct {
	Type    uint16
	Subtype uint16
	Err     error
}

func (e *ErrMalformedRecord) Error() string {
	return fmt.Sprintf("mrt: malformed record type %d subtype %d: %v", e.Type, e.Subtype, e.Err)
}

func (e *ErrMalformedRecord) Unwrap() error { return e.Err }

// Skippable reports whether err marks exactly one damaged, foreign or
// unsupported record after which the stream remains record-aligned, so
// the caller may keep reading. Truncation and budget exhaustion are not
// skippable.
func Skippable(err error) bool {
	if err == nil {
		return false // before the targets below, which escape
	}
	var unknown *ErrUnknownRecord
	var unsupported *ErrUnsupportedRecord
	var malformed *ErrMalformedRecord
	return errors.As(err, &unknown) || errors.As(err, &unsupported) || errors.As(err, &malformed)
}

// DefaultMalformedBudget is the per-file cap on unknown and malformed
// records a Reader tolerates before Next turns fatal, mirroring the
// per-session malformed budget in the feed collector.
const DefaultMalformedBudget = 64

// rfc6396Subtypes lists, per record type, the subtypes RFC 6396 defines.
var rfc6396Subtypes = map[uint16][]uint16{
	11: {0},                // OSPFv2
	12: {1, 2},             // TABLE_DUMP: AFI_IPv4, AFI_IPv6
	13: {1, 2, 3, 4, 5, 6}, // TABLE_DUMP_V2
	16: {0, 1, 4, 5, 6, 7}, // BGP4MP
	17: {0, 1, 4, 5, 6, 7}, // BGP4MP_ET
	32: {0},                // ISIS
	33: {0},                // ISIS_ET
	48: {0},                // OSPFv3
	49: {0},                // OSPFv3_ET
}

// bgp4mpIPv6Header is the BGP4MP_MESSAGE_AS4 header length on an IPv6
// session: two 4-byte ASNs, interface index, AFI, two 16-byte addresses.
const bgp4mpIPv6Header = 4 + 4 + 2 + 2 + 16 + 16

// Reader decodes MRT records sequentially. It reads every record body
// into one buffer it reuses, so a stream costs no allocation per record
// for its bytes. Next decodes each record into fresh storage the caller
// keeps; NextInto, the replay path, decodes RIB and BGP4MP records into
// the caller's storage instead and leaves UPDATEs in wire form.
type Reader struct {
	r       *bufio.Reader
	hdr     [12]byte
	body    []byte // the current record's body; reused by every read
	off     int64
	skipped int
	spent   int // unknown and malformed records, against budget
	budget  int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), budget: DefaultMalformedBudget}
}

// SetMalformedBudget caps how many unknown-type or malformed-body
// records Next tolerates before failing with ErrBudgetExhausted;
// unsupported records do not count. Negative means unlimited.
func (r *Reader) SetMalformedBudget(n int) { r.budget = n }

// Offset is the byte offset of the clean prefix read so far: the end of
// the last fully consumed record, which is also where the next record
// header starts. After ErrTruncated it is the safe re-write point.
func (r *Reader) Offset() int64 { return r.off }

// Skipped counts the skippable records surfaced so far, unsupported
// ones included.
func (r *Reader) Skipped() int { return r.skipped }

// skip accounts one unknown or malformed record against the budget and
// returns either the typed error or, over budget, a fatal one.
func (r *Reader) skip(err error) error {
	r.skipped++
	r.spent++
	if r.budget >= 0 && r.spent > r.budget {
		return fmt.Errorf("%w after %d unknown or malformed records, last: %v", ErrBudgetExhausted, r.spent, err)
	}
	return err
}

// unsupported counts one RFC-defined record this package does not decode.
func (r *Reader) unsupported(typ, subtype uint16, length int) error {
	r.skipped++
	return &ErrUnsupportedRecord{Type: typ, Subtype: subtype, Length: uint32(length)}
}

// Next returns the next record, or io.EOF at a clean end of stream.
// Unknown record types, RFC-defined records this package does not decode
// and undecodable bodies come back as typed *ErrUnknownRecord /
// *ErrUnsupportedRecord / *ErrMalformedRecord errors with the stream
// still aligned — call Next again to continue past them (unknown and
// malformed ones subject to the malformed budget). A stream ending
// mid-record yields an error wrapping ErrTruncated; the records already
// returned are a clean prefix ending at Offset. Every record Next
// returns owns its storage: later reads leave it as it was.
func (r *Reader) Next() (Record, error) {
	rec, _, err := r.next(nil)
	return rec, err
}

// Scratch is the storage NextInto decodes records into.
type Scratch struct {
	RIB    RIBIPv4Unicast
	BGP4MP BGP4MPMessage
}

// NextInto is Next for a replay that forwards UPDATEs as bytes and reads
// into reused storage. A RIB_IPV4_UNICAST record is decoded into s.RIB,
// reusing its entries and their AS paths. A BGP4MP MESSAGE_AS4 record's
// header fields are decoded into s.BGP4MP. When its message is an
// UPDATE, the UPDATE is checked (bgpwire.CheckUpdate) but not decoded:
// s.BGP4MP.Message is nil, and msg is the message as it appeared in the
// file, header included, so msg is non-nil exactly for an UPDATE. Any
// other BGP message is decoded fresh into s.BGP4MP.Message, and any
// record other than RIB and BGP4MP comes back fresh as from Next. The
// record and msg stay valid until the next read, which overwrites them,
// so a caller that keeps s reads a stream of RIB entries or UPDATEs
// without allocating; a nil s reads into a fresh Scratch. Errors, skips,
// the malformed budget and Offset are exactly Next's: an UPDATE is
// refused with the error its decode would give, and the two reads may
// be mixed on one stream.
func (r *Reader) NextInto(s *Scratch) (rec Record, msg []byte, err error) {
	if s == nil {
		s = new(Scratch)
	}
	return r.next(s)
}

// next reads one record for Next (s nil: fresh storage, every UPDATE
// decoded) or NextInto (s non-nil: see there).
func (r *Reader) next(s *Scratch) (rec Record, msg []byte, err error) {
	ts, typ, subtype, body, err := r.read()
	if err != nil {
		return nil, nil, err
	}
	switch {
	case typ == TypeTableDumpV2 && subtype == SubtypePeerIndexTable:
		rec, err = parsePeerIndexTable(body)
	case typ == TypeTableDumpV2 && subtype == SubtypeRIBIPv4Unicast:
		var rib *RIBIPv4Unicast
		if s != nil {
			rib = &s.RIB
		} else {
			rib = new(RIBIPv4Unicast)
		}
		rec, err = rib, parseRIB(rib, body)
	case typ == TypeBGP4MP && subtype == SubtypeMessageAS4 && len(body) >= bgp4mpIPv6Header &&
		binary.BigEndian.Uint16(body[10:12]) == afiIPv6:
		return nil, nil, r.unsupported(typ, subtype, len(body))
	case typ == TypeBGP4MP && subtype == SubtypeMessageAS4:
		var m *BGP4MPMessage
		if s != nil {
			m = &s.BGP4MP
		} else {
			m = new(BGP4MPMessage)
		}
		rec = m
		msg, err = parseBGP4MP(m, ts, body, s == nil)
	case slices.Contains(rfc6396Subtypes[typ], subtype):
		return nil, nil, r.unsupported(typ, subtype, len(body))
	default:
		return nil, nil, r.skip(&ErrUnknownRecord{Type: typ, Subtype: subtype, Length: uint32(len(body))})
	}
	if err != nil {
		return nil, nil, r.skip(&ErrMalformedRecord{Type: typ, Subtype: subtype, Err: err})
	}
	return rec, msg, nil
}

// read frames the next record: its header fields, and its body in the
// reused buffer, valid until the following read. It advances Offset
// past the record; a stream ending mid-record is ErrTruncated.
func (r *Reader) read() (ts uint32, typ, subtype uint16, body []byte, err error) {
	if n, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, 0, 0, nil, fmt.Errorf("mrt: %d of 12 header bytes at offset %d: %w", n, r.off, ErrTruncated)
		}
		return 0, 0, 0, nil, err
	}
	typ = binary.BigEndian.Uint16(r.hdr[4:6])
	subtype = binary.BigEndian.Uint16(r.hdr[6:8])
	length := binary.BigEndian.Uint32(r.hdr[8:12])
	if length > 1<<24 {
		// The length field itself is untrustworthy, so realignment is
		// impossible: fatal, not skippable.
		return 0, 0, 0, nil, fmt.Errorf("mrt: implausible record length %d at offset %d", length, r.off)
	}
	if int(length) > cap(r.body) {
		r.body = make([]byte, length)
	}
	body = r.body[:length]
	if n, err := io.ReadFull(r.r, body); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("mrt: %d of %d body bytes at offset %d: %w", n, length, r.off, ErrTruncated)
	}
	r.off += 12 + int64(length)
	return binary.BigEndian.Uint32(r.hdr[0:4]), typ, subtype, body, nil
}

func parsePeerIndexTable(body []byte) (*PeerIndexTable, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("mrt: short peer index table")
	}
	t := &PeerIndexTable{CollectorBGPID: binary.BigEndian.Uint32(body[0:4])}
	nameLen := int(binary.BigEndian.Uint16(body[4:6]))
	if len(body) < 6+nameLen+2 {
		return nil, fmt.Errorf("mrt: peer index table name overruns")
	}
	t.ViewName = string(body[6 : 6+nameLen])
	rest := body[6+nameLen:]
	count := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	for i := 0; i < count; i++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("mrt: truncated peer entry")
		}
		peerType := rest[0]
		if peerType != 0x06 {
			return nil, fmt.Errorf("mrt: unsupported peer type %#x (want AS4+IPv4)", peerType)
		}
		if len(rest) < 13 {
			return nil, fmt.Errorf("mrt: truncated AS4+IPv4 peer entry")
		}
		t.Peers = append(t.Peers, Peer{
			BGPID: binary.BigEndian.Uint32(rest[1:5]),
			Addr:  binary.BigEndian.Uint32(rest[5:9]),
			AS:    asn.FromUint32(binary.BigEndian.Uint32(rest[9:13])),
		})
		rest = rest[13:]
	}
	return t, nil
}

// parseRIB decodes a RIB_IPV4_UNICAST body into r, reusing the storage
// of its entries and their AS paths.
func parseRIB(r *RIBIPv4Unicast, body []byte) error {
	if len(body) < 5 {
		return fmt.Errorf("mrt: short RIB record")
	}
	plen := body[4]
	if plen > 32 {
		return fmt.Errorf("mrt: RIB prefix length %d invalid", plen)
	}
	nBytes := int(plen+7) / 8
	if len(body) < 5+nBytes+2 {
		return fmt.Errorf("mrt: RIB prefix overruns")
	}
	var addr [4]byte
	copy(addr[:], body[5:5+nBytes])
	r.SequenceNumber = binary.BigEndian.Uint32(body[0:4])
	r.Prefix = prefix.New(binary.BigEndian.Uint32(addr[:]), plen)
	r.Entries = r.Entries[:0]
	rest := body[5+nBytes:]
	count := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	for i := 0; i < count; i++ {
		if len(rest) < 8 {
			return fmt.Errorf("mrt: truncated RIB entry")
		}
		attrLen := int(binary.BigEndian.Uint16(rest[6:8]))
		if len(rest) < 8+attrLen {
			return fmt.Errorf("mrt: RIB entry attributes overrun")
		}
		r.Entries = slices.Grow(r.Entries, 1)[:i+1]
		e := &r.Entries[i]
		e.PeerIndex = binary.BigEndian.Uint16(rest[0:2])
		e.OriginatedTime = binary.BigEndian.Uint32(rest[2:6])
		var err error
		e.Origin, e.ASPath, e.NextHop, err = bgpwire.DecodeAttributes(rest[8:8+attrLen], e.ASPath)
		if err != nil {
			return fmt.Errorf("mrt: RIB entry: %w", err)
		}
		rest = rest[8+attrLen:]
	}
	return nil
}

// parseBGP4MP decodes a BGP4MP MESSAGE_AS4 body into m. Unless decode
// is set, an UPDATE is only checked, and its bytes are returned in place
// of m.Message; any other message, and an UPDATE under decode, is
// decoded fresh into m.Message.
func parseBGP4MP(m *BGP4MPMessage, ts uint32, body []byte, decode bool) ([]byte, error) {
	if len(body) < 20 {
		return nil, errShortBGP4MP
	}
	if afi := binary.BigEndian.Uint16(body[10:12]); afi != afiIPv4 {
		return nil, fmt.Errorf("mrt: BGP4MP AFI %d unsupported", afi)
	}
	*m = BGP4MPMessage{
		Timestamp: ts,
		PeerAS:    asn.FromUint32(binary.BigEndian.Uint32(body[0:4])),
		LocalAS:   asn.FromUint32(binary.BigEndian.Uint32(body[4:8])),
		PeerAddr:  binary.BigEndian.Uint32(body[12:16]),
		LocalAddr: binary.BigEndian.Uint32(body[16:20]),
	}
	data := body[20:]
	if typ, err := bgpwire.FrameType(data); err == nil && typ == bgpwire.TypeUpdate && !decode {
		if err := bgpwire.CheckUpdate(data[bgpwire.HeaderLen:]); err != nil {
			return nil, fmt.Errorf("mrt: BGP4MP payload: %w", err)
		}
		return data, nil
	}
	msg, err := bgpwire.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("mrt: BGP4MP payload: %w", err)
	}
	m.Message = msg
	return nil, nil
}

var errShortBGP4MP = errors.New("mrt: short BGP4MP record")
