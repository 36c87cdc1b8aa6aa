// Per-field column encodings for the columnar body layout. A columnar
// segment holds the same records as a row segment, but transposed: one
// independently-deflated gzip member per field, each inflating to that
// field's values encoded by the field's kind. Readers that fold a
// single field inflate only that field's members and skip the rest by
// their length prefixes — the point of the layout (the PAM store's
// per-field shard files are the exemplar).
//
// Values travel as uint64: integers directly (delta+zigzag handles
// signed differences), float64s as their IEEE-754 bits so every value —
// NaNs included — round-trips exactly and the merged record stream
// stays byte-identical to a row-layout or JSON shard's.
//
// Columnar segment body (inside the usual uvarint(clen) outer frame):
//
//	uvarint(records)
//	per field, in header-field order:
//	    uvarint(member length) ++ one gzip member of the encoded column

package recio

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// FieldKind selects a column's value encoding.
type FieldKind uint8

const (
	// KindDelta encodes zigzag(v[i] − v[i−1]) as uvarints — compact for
	// monotone or slowly-moving integers (cell indices, counts).
	KindDelta FieldKind = iota + 1
	// KindRLE encodes (value, run length) uvarint pairs — compact for
	// long runs of repeated tags (policy or scenario enums).
	KindRLE
	// KindFloat encodes raw little-endian float64 bits, 8 bytes per
	// value; the surrounding gzip member squeezes what it can.
	KindFloat
)

// kindNames maps kinds to their Header.Fields spelling.
var kindNames = map[FieldKind]string{
	KindDelta: "delta",
	KindRLE:   "rle",
	KindFloat: "float",
}

// String returns the kind's Header.Fields spelling.
func (k FieldKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Field is one column of a columnar file: the record field's wire name
// (its JSON tag, by convention) and its encoding.
type Field struct {
	Name string
	Kind FieldKind
}

// FieldsSpec renders a field list as the compact "name:kind,…" string
// the header carries.
func FieldsSpec(fields []Field) string {
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Name)
		b.WriteByte(':')
		b.WriteString(f.Kind.String())
	}
	return b.String()
}

// ParseFields inverts FieldsSpec.
func ParseFields(spec string) ([]Field, error) {
	if spec == "" {
		return nil, fmt.Errorf("recio: empty columnar field map")
	}
	parts := strings.Split(spec, ",")
	fields := make([]Field, 0, len(parts))
	for _, p := range parts {
		name, kind, ok := strings.Cut(p, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("recio: malformed field map entry %q", p)
		}
		var k FieldKind
		switch kind {
		case "delta":
			k = KindDelta
		case "rle":
			k = KindRLE
		case "float":
			k = KindFloat
		}
		if k == 0 {
			return nil, fmt.Errorf("recio: unknown column kind %q for field %q", kind, name)
		}
		fields = append(fields, Field{Name: name, Kind: k})
	}
	return fields, nil
}

// zigzag maps signed deltas onto uvarint-friendly magnitudes.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendColumn encodes vals per kind, appending to dst.
func appendColumn(dst []byte, kind FieldKind, vals []uint64) []byte {
	switch kind {
	case KindDelta:
		prev := int64(0)
		for _, v := range vals {
			dst = binary.AppendUvarint(dst, zigzag(int64(v)-prev))
			prev = int64(v)
		}
	case KindRLE:
		for i := 0; i < len(vals); {
			j := i
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			dst = binary.AppendUvarint(dst, vals[i])
			dst = binary.AppendUvarint(dst, uint64(j-i))
			i = j
		}
	case KindFloat:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	}
	return dst
}

// columnLen counts the values an encoded column holds, from its bytes
// alone: eight bytes per float, one terminal (high-bit-clear) byte per
// delta uvarint, the run lengths summed for RLE. A reader sizes storage
// by this count, never by a length a segment or index merely claims.
func columnLen(data []byte, kind FieldKind) (int, error) {
	switch kind {
	case KindDelta:
		if len(data) > 0 && data[len(data)-1] >= 0x80 {
			return 0, fmt.Errorf("recio: delta column ends mid-value")
		}
		n := 0
		for _, b := range data {
			if b < 0x80 {
				n++
			}
		}
		return n, nil
	case KindRLE:
		n := uint64(0)
		for pos := 0; pos < len(data); {
			_, w := binary.Uvarint(data[pos:])
			if w <= 0 {
				return 0, fmt.Errorf("recio: malformed RLE column at byte %d", pos)
			}
			pos += w
			run, w := binary.Uvarint(data[pos:])
			if w <= 0 || run == 0 || run > maxSegment-n {
				return 0, fmt.Errorf("recio: malformed RLE run at byte %d", pos)
			}
			pos += w
			n += run
		}
		return int(n), nil
	case KindFloat:
		if len(data)%8 != 0 {
			return 0, fmt.Errorf("recio: float column holds %d bytes, not a multiple of 8", len(data))
		}
		return len(data) / 8, nil
	}
	return 0, fmt.Errorf("recio: unknown column kind %d", kind)
}

// decodeColumn inverts appendColumn into dst, which the caller sized by
// columnLen: data must hold exactly len(dst) values.
func decodeColumn(dst []uint64, data []byte, kind FieldKind) error {
	switch kind {
	case KindDelta:
		prev, i := int64(0), 0
		for pos := 0; pos < len(data); i++ {
			u, w := uint64(data[pos]), 1
			if u >= 0x80 {
				if u, w = binary.Uvarint(data[pos:]); w <= 0 {
					return fmt.Errorf("recio: malformed delta column at byte %d", pos)
				}
			}
			pos += w
			prev += unzigzag(u)
			dst[i] = uint64(prev)
		}
	case KindRLE:
		i := 0
		for pos := 0; pos < len(data); {
			v, w := binary.Uvarint(data[pos:])
			pos += w
			run, w := binary.Uvarint(data[pos:])
			pos += w
			fill := dst[i : i+int(run)]
			for j := range fill {
				fill[j] = v
			}
			i += int(run)
		}
	case KindFloat:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
	default:
		return fmt.Errorf("recio: unknown column kind %d", kind)
	}
	return nil
}
