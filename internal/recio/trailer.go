// The v2 index trailer: after the last body segment, a file may end
// with
//
//	sentinel  one 0x00 byte (uvarint 0 — no real segment is empty, a
//	          gzip member alone is ≥ 18 bytes, so the zero length
//	          unambiguously marks "body ends here")
//	index     one frame (uvarint len ++ payload ++ CRC-32C) holding a
//	          varint-packed entry per segment
//	footer    8 bytes LE: byte offset of the sentinel
//	          8 bytes: footer magic "recioIDX"
//
// The footer makes the trailer addressable from EOF in O(1); the frame
// CRC plus a battery of consistency checks (offsets contiguous from the
// header end to the sentinel, cell ranges monotone) make a damaged
// trailer detectable, and every reader treats "no usable trailer" as
// "scan the body the v1 way" — the trailer is an index, never the
// truth.
//
// Each entry records the segment's byte offset (of its uvarint length
// prefix), compressed length, record count, first/last absolute cell
// index, and the CRC-32C of the clen compressed bytes — enough to count
// and integrity-check a clean prefix without inflating it, and to seek
// straight to the segments covering a cell range.

package recio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
)

// footerMagic terminates every v2 file that carries a trailer.
var footerMagic = []byte("recioIDX")

// footerSize is the fixed byte length of the footer (offset + magic).
const footerSize = 8 + 8

// SegmentInfo is one body segment's index entry.
type SegmentInfo struct {
	// Offset is the byte offset of the segment's uvarint length prefix.
	Offset int64
	// CLen is the compressed byte length the prefix declares.
	CLen int64
	// Records is the number of record rows the segment holds.
	Records int
	// FirstCell and LastCell are the absolute cell indices of the
	// segment's first and last record (inclusive).
	FirstCell int
	LastCell  int
	// CRC is the CRC-32C of the CLen compressed bytes.
	CRC uint32
}

// end returns the byte offset just past the segment.
func (s SegmentInfo) end() int64 {
	return s.Offset + int64(uvarintLen(uint64(s.CLen))) + s.CLen
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendTrailer appends sentinel + index frame + footer for segs to
// dst, where bodyEnd is the sentinel's byte offset.
func appendTrailer(dst []byte, segs []SegmentInfo, bodyEnd int64) []byte {
	payload := make([]byte, 0, 16+len(segs)*20)
	payload = binary.AppendUvarint(payload, uint64(len(segs)))
	var prevOff int64
	var prevFirst int
	for _, s := range segs {
		payload = binary.AppendUvarint(payload, uint64(s.Offset-prevOff))
		payload = binary.AppendUvarint(payload, uint64(s.CLen))
		payload = binary.AppendUvarint(payload, uint64(s.Records))
		payload = binary.AppendUvarint(payload, uint64(s.FirstCell-prevFirst))
		payload = binary.AppendUvarint(payload, uint64(s.LastCell-s.FirstCell))
		payload = binary.LittleEndian.AppendUint32(payload, s.CRC)
		prevOff, prevFirst = s.Offset, s.FirstCell
	}
	dst = append(dst, 0) // sentinel: uvarint(0)
	dst = appendFrame(dst, payload)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(bodyEnd))
	return append(dst, footerMagic...)
}

// parseTrailerPayload decodes the entry list; ok is false on any
// malformed varint or an overlong payload.
func parseTrailerPayload(payload []byte) (segs []SegmentInfo, ok bool) {
	pos := 0
	next := func() (uint64, bool) {
		v, w := binary.Uvarint(payload[pos:])
		if w <= 0 {
			return 0, false
		}
		pos += w
		return v, true
	}
	n, ok2 := next()
	if !ok2 || n > uint64(len(payload)) { // each entry is ≥ 9 bytes
		return nil, false
	}
	segs = make([]SegmentInfo, 0, n)
	var prevOff int64
	var prevFirst int
	for i := uint64(0); i < n; i++ {
		offD, ok2 := next()
		if !ok2 {
			return nil, false
		}
		clen, ok2 := next()
		if !ok2 {
			return nil, false
		}
		recs, ok2 := next()
		if !ok2 {
			return nil, false
		}
		firstD, ok2 := next()
		if !ok2 {
			return nil, false
		}
		span, ok2 := next()
		if !ok2 {
			return nil, false
		}
		if pos+crc32.Size > len(payload) {
			return nil, false
		}
		crc := binary.LittleEndian.Uint32(payload[pos:])
		pos += crc32.Size
		s := SegmentInfo{
			Offset:    prevOff + int64(offD),
			CLen:      int64(clen),
			Records:   int(recs),
			FirstCell: prevFirst + int(firstD),
			CRC:       crc,
		}
		s.LastCell = s.FirstCell + int(span)
		prevOff, prevFirst = s.Offset, s.FirstCell
		segs = append(segs, s)
	}
	return segs, pos == len(payload)
}

// findIndex locates and validates the trailer of a v2 file whose
// header frame ends at headerEnd. It returns nil — never an error —
// when the file carries no usable trailer: absent footer, frame damage,
// or any internal inconsistency all degrade the caller to the scan
// path.
func findIndex(data []byte, headerEnd int64) []SegmentInfo {
	if int64(len(data)) < headerEnd+1+footerSize {
		return nil
	}
	if !bytes.Equal(data[len(data)-8:], footerMagic) {
		return nil
	}
	bodyEnd := int64(binary.LittleEndian.Uint64(data[len(data)-footerSize:]))
	if bodyEnd < headerEnd || bodyEnd >= int64(len(data)-footerSize) || data[bodyEnd] != 0 {
		return nil
	}
	payload, next, err := parseFrame(data, int(bodyEnd)+1)
	if err != nil || int64(next) != int64(len(data)-footerSize) {
		return nil
	}
	segs, ok := parseTrailerPayload(payload)
	if !ok {
		return nil
	}
	// The entries must tile the body exactly: contiguous from the end
	// of the header to the sentinel, with monotone cell ranges.
	want := headerEnd
	cell := -1
	for _, s := range segs {
		if s.Offset != want || s.CLen <= 0 || s.CLen > maxSegment || s.Records <= 0 {
			return nil
		}
		if s.FirstCell <= cell || s.LastCell != s.FirstCell+s.Records-1 {
			return nil
		}
		cell = s.LastCell
		want = s.end()
		if want > bodyEnd {
			return nil
		}
	}
	if want != bodyEnd {
		return nil
	}
	return segs
}

// verifySegment reports whether the segment's length prefix and
// compressed bytes are what its index entry recorded — the integrity
// check of the seek path, run without inflating anything. The prefix is
// outside the CRC, and the scan path reads the segment through it: with
// a damaged one the index would vouch for records no reader can reach.
func verifySegment(data []byte, s SegmentInfo) bool {
	start := s.Offset + int64(uvarintLen(uint64(s.CLen)))
	end := start + s.CLen
	if s.Offset < 0 || start < 0 || end > int64(len(data)) {
		return false
	}
	if clen, width := binary.Uvarint(data[s.Offset:start]); width <= 0 || clen != uint64(s.CLen) {
		return false
	}
	return crc32.Checksum(data[start:end], castagnoli) == s.CRC
}
