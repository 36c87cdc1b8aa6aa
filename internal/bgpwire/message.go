// Package bgpwire implements the BGP-4 wire format (RFC 4271) for the
// message types a hijack-detection pipeline consumes: OPEN, UPDATE,
// NOTIFICATION and KEEPALIVE encoding/decoding with the path attributes
// that carry origin information (ORIGIN, AS_PATH with four-octet ASNs per
// RFC 6793, NEXT_HOP). The paper's detectors "work by collecting real-time
// BGP data sources by peering with routers in multiple ASes"; this package
// is the codec those feeds run on (see internal/feed).
package bgpwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

// Message type codes (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Header sizes and limits.
const (
	HeaderLen     = 19
	MaxMessageLen = 4096
	markerLen     = 16
)

// Path attribute type codes (RFC 4271 §5.1).
const (
	AttrOrigin  = 1
	AttrASPath  = 2
	AttrNextHop = 3
)

// ORIGIN attribute values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types. The confederation segments (RFC 5065) carry
// member-AS hops inside a confederation; they are not counted as path.
const (
	SegmentSet            = 1
	SegmentSequence       = 2
	SegmentConfedSequence = 3
	SegmentConfedSet      = 4
)

// Open is a BGP OPEN message (RFC 4271 §4.2). Optional parameters are
// not modeled; four-octet AS numbers are carried directly (the simulator's
// peers are all RFC 6793-capable).
type Open struct {
	Version  uint8
	AS       asn.ASN
	HoldTime uint16
	RouterID uint32
}

// Update is a BGP UPDATE message (RFC 4271 §4.3) restricted to the
// attributes origin validation needs.
type Update struct {
	Withdrawn []prefix.Prefix
	// Origin is the ORIGIN attribute (IGP/EGP/INCOMPLETE).
	Origin uint8
	// ASPath is a single AS_SEQUENCE; the final element is the route's
	// origin AS.
	ASPath []asn.ASN
	// NextHop is the NEXT_HOP attribute in host byte order.
	NextHop uint32
	// NLRI lists the announced prefixes.
	NLRI []prefix.Prefix
}

// OriginAS returns the announcement's origin AS (last AS_PATH element).
func (u *Update) OriginAS() (asn.ASN, bool) {
	if len(u.ASPath) == 0 {
		return 0, false
	}
	return u.ASPath[len(u.ASPath)-1], true
}

// Notification is a BGP NOTIFICATION message (RFC 4271 §4.5).
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Keepalive is a BGP KEEPALIVE message (header only).
type Keepalive struct{}

// header is a message header with the length and type still to fill in.
var header = [HeaderLen]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// Marshal encodes a message with its BGP header into a fresh buffer. See
// AppendMessage for the supported payload types.
func Marshal(msg any) ([]byte, error) {
	return AppendMessage(nil, msg)
}

// AppendMessage appends the wire encoding of msg, BGP header included,
// to dst and returns the extended slice — the package's one encoder: a
// caller that keeps dst across calls encodes without allocating, and a
// caller that appends several messages gets one buffer to write at once.
// Supported payload types: *Open, *Update, *Notification, Keepalive.
// On error dst comes back at its original length.
//
//bgplint:hotpath runs once per UPDATE on every live session and per MRT record written
func AppendMessage(dst []byte, msg any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, header[:]...)
	var err error
	switch m := msg.(type) {
	case *Open:
		dst[start+18] = TypeOpen
		dst = appendOpen(dst, m)
	case *Update:
		dst[start+18] = TypeUpdate
		dst, err = appendUpdate(dst, m)
	case *Notification:
		dst[start+18] = TypeNotification
		dst = append(dst, m.Code, m.Subcode)
		dst = append(dst, m.Data...)
	case Keepalive, *Keepalive:
		dst[start+18] = TypeKeepalive
	default:
		err = fmt.Errorf("bgpwire: cannot marshal %T", msg)
	}
	total := len(dst) - start
	if err == nil && total > MaxMessageLen {
		err = fmt.Errorf("bgpwire: message length %d exceeds %d", total, MaxMessageLen)
	}
	if err != nil {
		return dst[:start], err
	}
	binary.BigEndian.PutUint16(dst[start+16:], uint16(total))
	return dst, nil
}

func appendOpen(dst []byte, o *Open) []byte {
	// RFC 6793: a four-octet speaker puts AS_TRANS (23456) here when its
	// ASN does not fit; we encode the low 16 bits or AS_TRANS.
	my16 := uint16(23456)
	if o.AS <= 0xffff {
		my16 = uint16(o.AS.Uint32())
	}
	dst = append(dst, o.Version)
	dst = binary.BigEndian.AppendUint16(dst, my16)
	dst = binary.BigEndian.AppendUint16(dst, o.HoldTime)
	dst = binary.BigEndian.AppendUint32(dst, o.RouterID)
	// Optional parameters: one capability-style parameter carrying the
	// four-octet ASN (simplified capability 65, RFC 6793).
	dst = append(dst, 8 /* parameters length */, 2 /* param type: capability */, 6, 65, 4)
	return binary.BigEndian.AppendUint32(dst, o.AS.Uint32())
}

func appendUpdate(dst []byte, u *Update) ([]byte, error) {
	wAt := len(dst)
	dst, err := appendNLRI(append(dst, 0, 0), u.Withdrawn)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint16(dst[wAt:], uint16(len(dst)-wAt-2))
	aAt := len(dst)
	dst = append(dst, 0, 0)
	if len(u.NLRI) > 0 {
		if dst, err = AppendAttributes(dst, u.Origin, u.ASPath, u.NextHop); err != nil {
			return dst, err
		}
	}
	binary.BigEndian.PutUint16(dst[aAt:], uint16(len(dst)-aAt-2))
	return appendNLRI(dst, u.NLRI)
}

// appendAttrHeader emits one path attribute's flags, type and length,
// with flags chosen automatically (well-known transitive, extended
// length when needed).
func appendAttrHeader(dst []byte, typ uint8, valLen int) []byte {
	if valLen > 255 {
		return append(dst, 0x40|0x10 /* transitive, extended length */, typ, byte(valLen>>8), byte(valLen))
	}
	return append(dst, 0x40 /* transitive */, typ, byte(valLen))
}

// maxSegmentASNs is the most ASNs one AS_PATH segment's count octet can
// announce; longer paths continue in further AS_SEQUENCE segments.
const maxSegmentASNs = 255

// AppendAttributes appends the ORIGIN/AS_PATH/NEXT_HOP path-attribute
// block as it appears in UPDATE messages and MRT RIB entries. The AS_PATH
// is AS_SEQUENCE segments of four-octet ASNs (RFC 6793 "new speaker"
// encoding).
//
//bgplint:hotpath runs once per announcing UPDATE and per MRT RIB entry
func AppendAttributes(dst []byte, origin uint8, asPath []asn.ASN, nextHop uint32) ([]byte, error) {
	if origin > OriginIncomplete {
		return dst, fmt.Errorf("bgpwire: invalid ORIGIN %d", origin)
	}
	dst = append(appendAttrHeader(dst, AttrOrigin, 1), origin)
	segments := (len(asPath) + maxSegmentASNs - 1) / maxSegmentASNs
	dst = appendAttrHeader(dst, AttrASPath, 2*segments+4*len(asPath))
	for len(asPath) > 0 {
		seg := asPath[:min(len(asPath), maxSegmentASNs)]
		dst = append(dst, SegmentSequence, uint8(len(seg)))
		for _, a := range seg {
			dst = binary.BigEndian.AppendUint32(dst, a.Uint32())
		}
		asPath = asPath[len(seg):]
	}
	return binary.BigEndian.AppendUint32(appendAttrHeader(dst, AttrNextHop, 4), nextHop), nil
}

// appendNLRI encodes prefixes in the (length, truncated address) NLRI
// form.
//
//bgplint:hotpath runs once per UPDATE; the error is built out of line
func appendNLRI(dst []byte, ps []prefix.Prefix) ([]byte, error) {
	for _, p := range ps {
		if p.Len > 32 {
			return dst, errPrefixLen(p.Len)
		}
		addr := [4]byte{byte(p.Addr >> 24), byte(p.Addr >> 16), byte(p.Addr >> 8), byte(p.Addr)}
		dst = append(append(dst, p.Len), addr[:(p.Len+7)/8]...)
	}
	return dst, nil
}

func errPrefixLen(l uint8) error {
	return fmt.Errorf("bgpwire: prefix length %d invalid", l)
}

// Unmarshal decodes one full BGP message (header included) and returns the
// payload as *Open, *Update, *Notification or Keepalive. The result is
// fresh and the caller's: nothing in it aliases data or any earlier
// result.
func Unmarshal(data []byte) (any, error) {
	return UnmarshalInto(data, nil)
}

// UnmarshalInto is Unmarshal with an UPDATE decoded into caller storage:
// when data is an UPDATE and u is non-nil, every field of u is
// overwritten — nothing of the message u held before survives — its
// Withdrawn, ASPath and NLRI reuse their backing arrays, and the result
// is u itself, so a caller that keeps u across messages decodes UPDATEs
// without allocating. Nothing in u aliases data. Other message types,
// and any UPDATE when u is nil, come back fresh as from Unmarshal. After
// an error u holds no meaningful message.
func UnmarshalInto(data []byte, u *Update) (any, error) {
	typ, err := FrameType(data)
	if err != nil {
		return nil, err
	}
	body := data[HeaderLen:]
	switch typ {
	case TypeOpen:
		return unmarshalOpen(body)
	case TypeUpdate:
		if u == nil {
			u = &Update{}
		}
		if err := u.unmarshal(body); err != nil {
			return nil, err
		}
		return u, nil
	case TypeNotification:
		if len(body) < 2 {
			return nil, fmt.Errorf("bgpwire: short NOTIFICATION")
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	case TypeKeepalive:
		if len(body) != 0 {
			return nil, fmt.Errorf("bgpwire: KEEPALIVE with body")
		}
		return Keepalive{}, nil
	default:
		return nil, fmt.Errorf("bgpwire: unknown message type %d", typ)
	}
}

// FrameType checks the header of one full BGP message — the marker, and
// a length field that is legal and equal to len(data) — and returns the
// message type. It decodes nothing past the header.
func FrameType(data []byte) (uint8, error) {
	if len(data) < HeaderLen {
		return 0, fmt.Errorf("bgpwire: short message (%d bytes)", len(data))
	}
	for i := 0; i < markerLen; i++ {
		if data[i] != 0xff {
			return 0, errMarker(i)
		}
	}
	total := int(binary.BigEndian.Uint16(data[16:18]))
	if total < HeaderLen || total > MaxMessageLen {
		return 0, fmt.Errorf("bgpwire: invalid length %d", total)
	}
	if total != len(data) {
		return 0, fmt.Errorf("bgpwire: length field %d != buffer %d", total, len(data))
	}
	return data[18], nil
}

func unmarshalOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, fmt.Errorf("bgpwire: short OPEN")
	}
	o := &Open{
		Version:  body[0],
		AS:       asn.FromUint32(uint32(binary.BigEndian.Uint16(body[1:3]))),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		RouterID: binary.BigEndian.Uint32(body[5:9]),
	}
	optLen := int(body[9])
	opts := body[10:]
	if optLen != len(opts) {
		return nil, fmt.Errorf("bgpwire: OPEN optional-parameter length mismatch")
	}
	// Scan for the four-octet-AS capability.
	for len(opts) >= 2 {
		pType, pLen := opts[0], int(opts[1])
		if len(opts) < 2+pLen {
			return nil, fmt.Errorf("bgpwire: truncated OPEN parameter")
		}
		if pType == 2 && pLen >= 6 && opts[2] == 65 && opts[3] == 4 {
			o.AS = asn.FromUint32(binary.BigEndian.Uint32(opts[4:8]))
		}
		opts = opts[2+pLen:]
	}
	return o, nil
}

// Decode errors. The ones a hotpath loop returns are values or built by
// a function, so no loop body formats.
var (
	errShortUpdate     = errors.New("bgpwire: short UPDATE")
	errWithdrawnLen    = errors.New("bgpwire: UPDATE withdrawn length overruns")
	errAttrLen         = errors.New("bgpwire: UPDATE attribute length overruns")
	errNoASPath        = errors.New("bgpwire: UPDATE announces routes without AS_PATH")
	errTruncatedAttr   = errors.New("bgpwire: truncated path attribute")
	errTruncatedExtLen = errors.New("bgpwire: truncated extended attribute")
	errOrigin          = errors.New("bgpwire: malformed ORIGIN")
	errNextHop         = errors.New("bgpwire: malformed NEXT_HOP")
	errTruncatedSeg    = errors.New("bgpwire: truncated AS_PATH segment")
	errSegOverrun      = errors.New("bgpwire: AS_PATH segment overruns")
	errTruncatedNLRI   = errors.New("bgpwire: truncated NLRI")
)

func errMarker(i int) error { return fmt.Errorf("bgpwire: bad marker at byte %d", i) }

func errAttrOverrun(typ uint8) error {
	return fmt.Errorf("bgpwire: attribute %d overruns message", typ)
}

func errSegType(t uint8) error { return fmt.Errorf("bgpwire: unknown AS_PATH segment type %d", t) }

func errNLRILen(l uint8) error { return fmt.Errorf("bgpwire: NLRI length %d invalid", l) }

func errHostBits(p prefix.Prefix) error {
	return fmt.Errorf("bgpwire: NLRI %v has host bits set", p)
}

// unmarshal decodes an UPDATE body into u, overwriting every field and
// reusing the storage of its slices.
func (u *Update) unmarshal(body []byte) error {
	*u = Update{Withdrawn: u.Withdrawn[:0], ASPath: u.ASPath[:0], NLRI: u.NLRI[:0]}
	if len(body) < 2 {
		return errShortUpdate
	}
	wLen := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+wLen+2 {
		return errWithdrawnLen
	}
	var err error
	if u.Withdrawn, err = appendNLRIs(u.Withdrawn, body[2:2+wLen]); err != nil {
		return err
	}
	rest := body[2+wLen:]
	aLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if len(rest) < 2+aLen {
		return errAttrLen
	}
	if err := u.unmarshalAttrs(rest[2 : 2+aLen]); err != nil {
		return err
	}
	if u.NLRI, err = appendNLRIs(u.NLRI, rest[2+aLen:]); err != nil {
		return err
	}
	if len(u.NLRI) > 0 && len(u.ASPath) == 0 {
		return errNoASPath
	}
	return nil
}

// unmarshalAttrs decodes a path-attribute block into u's Origin, ASPath
// and NextHop; a repeated attribute overwrites the earlier one.
//
//bgplint:hotpath runs once per path attribute of every UPDATE decoded
func (u *Update) unmarshalAttrs(data []byte) error {
	for len(data) > 0 {
		if len(data) < 3 {
			return errTruncatedAttr
		}
		flags, typ := data[0], data[1]
		var aLen, hdr int
		if flags&0x10 != 0 { // extended length
			if len(data) < 4 {
				return errTruncatedExtLen
			}
			aLen, hdr = int(binary.BigEndian.Uint16(data[2:4])), 4
		} else {
			aLen, hdr = int(data[2]), 3
		}
		if len(data) < hdr+aLen {
			return errAttrOverrun(typ)
		}
		val := data[hdr : hdr+aLen]
		switch typ {
		case AttrOrigin:
			if aLen != 1 || val[0] > OriginIncomplete {
				return errOrigin
			}
			u.Origin = val[0]
		case AttrASPath:
			path, err := appendASPath(u.ASPath[:0], val)
			if err != nil {
				return err
			}
			u.ASPath = path
		case AttrNextHop:
			if aLen != 4 {
				return errNextHop
			}
			u.NextHop = binary.BigEndian.Uint32(val)
		default:
			// Unknown attributes are skipped (we only need the origin
			// trio); real routers apply the transitive bit here.
		}
		data = data[hdr+aLen:]
	}
	return nil
}

// appendASPath flattens every AS_SEQUENCE and AS_SET segment into one
// path appended to dst, skipping confederation segments (RFC 5065 §5.3:
// they do not count toward the path), so a path of confederation
// segments alone flattens to nothing. It walks the segment headers once
// to validate and size the result, then fills it.
//
//bgplint:hotpath runs once per AS_PATH segment and hop of every UPDATE decoded
func appendASPath(dst []asn.ASN, data []byte) ([]asn.ASN, error) {
	total := 0
	for rest := data; len(rest) > 0; {
		if len(rest) < 2 {
			return dst, errTruncatedSeg
		}
		segType, count := rest[0], int(rest[1])
		if segType < SegmentSet || segType > SegmentConfedSet {
			return dst, errSegType(segType)
		}
		if len(rest) < 2+4*count {
			return dst, errSegOverrun
		}
		if !confedSegment(segType) {
			total += count
		}
		rest = rest[2+4*count:]
	}
	if total == 0 {
		return dst, nil
	}
	dst = slices.Grow(dst, total)
	for len(data) > 0 {
		count := int(data[1])
		if !confedSegment(data[0]) {
			for i := 0; i < count; i++ {
				dst = append(dst, asn.FromUint32(binary.BigEndian.Uint32(data[2+4*i:])))
			}
		}
		data = data[2+4*count:]
	}
	return dst, nil
}

func confedSegment(segType byte) bool {
	return segType == SegmentConfedSequence || segType == SegmentConfedSet
}

// appendNLRIs decodes a run of (length, truncated address) prefixes onto
// dst, sizing it from a first pass over the length octets.
//
//bgplint:hotpath runs once per prefix of every UPDATE decoded
func appendNLRIs(dst []prefix.Prefix, data []byte) ([]prefix.Prefix, error) {
	n := 0
	for rest := data; len(rest) > 0; n++ {
		l := rest[0]
		if l > 32 {
			return dst, errNLRILen(l)
		}
		nBytes := int(l+7) / 8
		if len(rest) < 1+nBytes {
			return dst, errTruncatedNLRI
		}
		rest = rest[1+nBytes:]
	}
	if n == 0 {
		return dst, nil
	}
	dst = slices.Grow(dst, n)
	for len(data) > 0 {
		l := data[0]
		nBytes := int(l+7) / 8
		var addr [4]byte
		copy(addr[:], data[1:1+nBytes])
		p := prefix.New(binary.BigEndian.Uint32(addr[:]), l)
		if p.Addr != binary.BigEndian.Uint32(addr[:]) {
			return dst, errHostBits(p)
		}
		dst = append(dst, p)
		data = data[1+nBytes:]
	}
	return dst, nil
}

// DecodeAttributes parses a path-attribute block (the inverse of
// AppendAttributes; unknown attributes are skipped). The AS path is
// decoded into pathBuf's storage, so passing the last path back reuses it.
func DecodeAttributes(data []byte, pathBuf []asn.ASN) (origin uint8, asPath []asn.ASN, nextHop uint32, err error) {
	u := Update{ASPath: pathBuf[:0]}
	if err := u.unmarshalAttrs(data); err != nil {
		return 0, nil, 0, err
	}
	return u.Origin, u.ASPath, u.NextHop, nil
}
