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
	if binary.LittleEndian.Uint64(data[0:8])&binary.LittleEndian.Uint64(data[8:16]) != ^uint64(0) {
		return 0, errMarker(data)
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

// errMarker reports the first marker byte of data that is not 0xff.
func errMarker(data []byte) error {
	i := 0
	for data[i] == 0xff {
		i++
	}
	return fmt.Errorf("bgpwire: bad marker at byte %d", i)
}

func errAttrOverrun(typ uint8) error {
	return fmt.Errorf("bgpwire: attribute %d overruns message", typ)
}

func errSegType(t uint8) error { return fmt.Errorf("bgpwire: unknown AS_PATH segment type %d", t) }

func errNLRILen(l uint8) error { return fmt.Errorf("bgpwire: NLRI length %d invalid", l) }

// errHostBits reports the NLRI entry rec (its length octet, then its
// address octets) for host bits below its length, naming the prefix the
// length masks it to.
func errHostBits(rec []byte) error {
	var addr [4]byte
	copy(addr[:], rec[1:1+int(rec[0]+7)/8])
	return fmt.Errorf("bgpwire: NLRI %v has host bits set", prefix.New(binary.BigEndian.Uint32(addr[:]), rec[0]))
}

// CheckUpdate reports whether body, the bytes of an UPDATE after its
// 19-byte header, decodes: it returns exactly the error UnmarshalInto
// would return for the message, or nil when it would decode. It runs the
// decoder's own validation and fills nothing, so it allocates nothing —
// a reader that only forwards an UPDATE's bytes checks them with it
// instead of decoding them.
func CheckUpdate(body []byte) error {
	var p updateParts
	return p.check(body)
}

// updateParts is an UPDATE body that check accepted, split into
// what the fill needs: each NLRI run with its prefix count, and the
// path attributes.
type updateParts struct {
	withdrawn, nlri   []byte
	nWithdrawn, nNLRI int
	attrs             pathAttrs
}

// pathAttrs is a checked path-attribute block: ORIGIN and NEXT_HOP
// decoded, and the last AS_PATH's value with the number of ASNs it
// flattens to.
type pathAttrs struct {
	origin  uint8
	nextHop uint32
	path    []byte
	pathLen int
}

// check is the decoder's validation of an UPDATE body, recording the
// parts into p, in the order its errors take precedence: the
// withdrawn-routes length, the withdrawn prefixes, the attribute-block
// length, the attributes, the announced prefixes, then an announcement
// without an AS path. The parts are written through p rather than
// returned: a result this size costs a copy per call.
func (p *updateParts) check(body []byte) (err error) {
	if len(body) < 2 {
		return errShortUpdate
	}
	wLen := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+wLen+2 {
		return errWithdrawnLen
	}
	p.withdrawn = body[2 : 2+wLen]
	if p.nWithdrawn, err = checkNLRIs(p.withdrawn); err != nil {
		return err
	}
	rest := body[2+wLen:]
	aLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if len(rest) < 2+aLen {
		return errAttrLen
	}
	if err := p.attrs.check(rest[2 : 2+aLen]); err != nil {
		return err
	}
	p.nlri = rest[2+aLen:]
	if p.nNLRI, err = checkNLRIs(p.nlri); err != nil {
		return err
	}
	if p.nNLRI > 0 && p.attrs.pathLen == 0 {
		return errNoASPath
	}
	return nil
}

// unmarshal decodes an UPDATE body into u: the check, then a fill
// that overwrites every field and reuses the storage of u's slices.
// After an error u is left as it was.
func (u *Update) unmarshal(body []byte) error {
	var p updateParts
	if err := p.check(body); err != nil {
		return err
	}
	// Field by field, every one of them: a composite literal would be
	// built aside and copied over u.
	u.Withdrawn = fillNLRIs(u.Withdrawn[:0], p.withdrawn, p.nWithdrawn)
	u.Origin = p.attrs.origin
	u.ASPath = fillASPath(u.ASPath[:0], p.attrs.path, p.attrs.pathLen)
	u.NextHop = p.attrs.nextHop
	u.NLRI = fillNLRIs(u.NLRI[:0], p.nlri, p.nNLRI)
	return nil
}

// check validates a path-attribute block and records what it carries
// into a; a repeated attribute overwrites the earlier one, so the last
// AS_PATH is the path.
//
//bgplint:hotpath runs once per path attribute of every UPDATE checked
func (a *pathAttrs) check(data []byte) (err error) {
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
			a.origin = val[0]
		case AttrASPath:
			if a.pathLen, err = checkASPath(val); err != nil {
				return err
			}
			a.path = val
		case AttrNextHop:
			if aLen != 4 {
				return errNextHop
			}
			a.nextHop = binary.BigEndian.Uint32(val)
		default:
			// Unknown attributes are skipped (we only need the origin
			// trio); real routers apply the transitive bit here.
		}
		data = data[hdr+aLen:]
	}
	return nil
}

// checkASPath walks an AS_PATH value's segment headers and returns how
// many ASNs its AS_SEQUENCE and AS_SET segments hold. Confederation
// segments (RFC 5065 §5.3) do not count toward the path, so a path of
// confederation segments alone counts none.
//
//bgplint:hotpath runs once per AS_PATH segment of every UPDATE checked
func checkASPath(data []byte) (int, error) {
	total := 0
	for len(data) > 0 {
		if len(data) < 2 {
			return 0, errTruncatedSeg
		}
		segType, count := data[0], int(data[1])
		if segType < SegmentSet || segType > SegmentConfedSet {
			return 0, errSegType(segType)
		}
		if len(data) < 2+4*count {
			return 0, errSegOverrun
		}
		if !confedSegment(segType) {
			total += count
		}
		data = data[2+4*count:]
	}
	return total, nil
}

// fillASPath appends the total ASNs of an AS_PATH value that
// checkASPath accepted to dst, flattening every AS_SEQUENCE and AS_SET
// segment into one path.
//
//bgplint:hotpath runs once per AS_PATH hop of every UPDATE decoded
func fillASPath(dst []asn.ASN, data []byte, total int) []asn.ASN {
	if total == 0 {
		return dst
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
	return dst
}

func confedSegment(segType byte) bool {
	return segType == SegmentConfedSequence || segType == SegmentConfedSet
}

// checkNLRIs validates a run of (length, truncated address) prefixes and
// returns how many it holds. A bad length or a truncated prefix anywhere
// in the run is reported ahead of host bits set in any prefix, and of
// several faults of one kind the first is reported.
//
//bgplint:hotpath runs once per prefix of every UPDATE checked
func checkNLRIs(data []byte) (int, error) {
	n, hostBits := 0, -1
	for off := 0; off < len(data); n++ {
		l := data[off]
		if l > 32 {
			return 0, errNLRILen(l)
		}
		nBytes := int(l+7) / 8
		if len(data)-off < 1+nBytes {
			return 0, errTruncatedNLRI
		}
		// Only the last address octet can hold bits below the length.
		if hostBits < 0 && l%8 != 0 && data[off+nBytes]&(0xff>>(l%8)) != 0 {
			hostBits = off
		}
		off += 1 + nBytes
	}
	if hostBits >= 0 {
		return 0, errHostBits(data[hostBits:])
	}
	return n, nil
}

// fillNLRIs appends the n prefixes of a run checkNLRIs accepted to dst,
// building each address from its 0–4 octets. Where four octets follow
// the length octet it loads them at once and masks to the length: the
// check found no bits below the length in the prefix's own octets, and
// the mask clears the next prefix's.
//
//bgplint:hotpath runs once per prefix of every UPDATE decoded
func fillNLRIs(dst []prefix.Prefix, data []byte, n int) []prefix.Prefix {
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	for len(data) > 0 {
		l := data[0]
		nBytes := int(l+7) / 8
		var addr uint32
		if len(data) >= 5 {
			addr = binary.BigEndian.Uint32(data[1:5]) & prefix.Mask(l)
		} else {
			for i, b := range data[1 : 1+nBytes] {
				addr |= uint32(b) << (24 - 8*i)
			}
		}
		dst = append(dst, prefix.Prefix{Addr: addr, Len: l})
		data = data[1+nBytes:]
	}
	return dst
}

// DecodeAttributes parses a path-attribute block (the inverse of
// AppendAttributes; unknown attributes are skipped). The AS path is
// decoded into pathBuf's storage, so passing the last path back reuses it.
func DecodeAttributes(data []byte, pathBuf []asn.ASN) (origin uint8, asPath []asn.ASN, nextHop uint32, err error) {
	var a pathAttrs
	if err := a.check(data); err != nil {
		return 0, nil, 0, err
	}
	return a.origin, fillASPath(pathBuf[:0], a.path, a.pathLen), a.nextHop, nil
}
