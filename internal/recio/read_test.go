package recio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// colSegment frames a columnar segment body — a declared record count
// and one length-prefixed member per field — behind its outer length.
func colSegment(recs uint64, members ...[]byte) []byte {
	body := binary.AppendUvarint(nil, recs)
	for _, m := range members {
		body = binary.AppendUvarint(body, uint64(len(m)))
		body = append(body, m...)
	}
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// columnarPreamble is the magic and header frame of a columnarHeader
// file, with no body.
func columnarPreamble(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, columnarHeader(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	_, headerEnd, err := ReadHeader(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()[:headerEnd]
}

// columnMember is one valid gzip member holding vals encoded per kind.
func columnMember(tb testing.TB, kind FieldKind, vals ...uint64) []byte {
	tb.Helper()
	m, err := deflate(appendColumn(nil, kind, vals), DefaultLevel)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// scanCountCrasher is a trailerless columnar file whose one segment, in
// under 100 bytes, declares 2^27 records over members that do not
// inflate: sized by the declared count, a reader asks for 2 GiB.
func scanCountCrasher(tb testing.TB) []byte {
	seg := colSegment(1<<27, []byte{0x1f, 0x8b, 8, 0, 1, 2}, []byte{0x1f, 0x8b, 8, 0, 3, 4})
	if len(seg) >= 100 {
		tb.Fatalf("crasher segment is %d bytes", len(seg))
	}
	return append(columnarPreamble(tb), seg...)
}

// indexCountCrasher is a valid two-segment columnar file whose index
// entry for the last segment claims 2^27 records where the segment holds
// two: sized by the index, a reader asks for 2 GiB.
func indexCountCrasher(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, columnarHeader(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.AppendRow([]uint64{uint64(i), uint64(i) << 52}); err != nil {
			tb.Fatal(err)
		}
		if i == 1 {
			if err := w.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	rec, err := RecoverStats(buf.Bytes())
	if err != nil || !rec.ViaIndex || len(rec.Segments) != 2 {
		tb.Fatalf("seed file: %v", err)
	}
	segs := append([]SegmentInfo(nil), rec.Segments...)
	last := &segs[len(segs)-1]
	last.Records = 1 << 27
	last.LastCell = last.FirstCell + last.Records - 1
	body := buf.Bytes()[:rec.CleanSize]
	data := appendTrailer(append([]byte(nil), body...), segs, rec.CleanSize)
	if findIndex(data, int64(len(columnarPreamble(tb)))) == nil {
		tb.Fatal("crasher's index is not usable")
	}
	return data
}

// allocBytes reports the bytes fn allocates on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRejectsUnbackedCounts: a record count that no inflated
// member backs — declared by a segment or claimed by an index entry — is
// an error, and never sizes an allocation.
func TestDecodeRejectsUnbackedCounts(t *testing.T) {
	for name, data := range map[string][]byte{
		"scan segment claims 2^27": scanCountCrasher(t),
		"index entry claims 2^27":  indexCountCrasher(t),
	} {
		var err error
		n := allocBytes(func() { _, _, err = DecodeColumns(data) })
		if err == nil {
			t.Errorf("%s: DecodeColumns accepted the file", name)
		}
		if n >= 1<<20 {
			t.Errorf("%s: DecodeColumns allocated %d bytes, want under 1 MiB", name, n)
		}
		// ReadColumn walks the body alone, so only the scan crasher fails
		// it; neither may size anything by its claim.
		n = allocBytes(func() { _, _ = ReadColumn(data, "pollution") })
		if n >= 1<<20 {
			t.Errorf("%s: ReadColumn allocated %d bytes, want under 1 MiB", name, n)
		}
	}
}

// TestColumnCountBackedByMembers: members that inflate cleanly but hold
// fewer values than their segment declares are refused before anything
// is sized by the declaration.
func TestColumnCountBackedByMembers(t *testing.T) {
	data := append(columnarPreamble(t), colSegment(1<<27,
		columnMember(t, KindDelta, 1, 2),
		columnMember(t, KindFloat, 3, 4))...)
	var err error
	n := allocBytes(func() { _, _, err = DecodeColumns(data) })
	if err == nil {
		t.Error("DecodeColumns accepted 2 values for 2^27 declared records")
	}
	if n >= 1<<20 {
		t.Errorf("DecodeColumns allocated %d bytes, want under 1 MiB", n)
	}
}

// TestMemberLengthPastInt64: a member length of 2^63 or more, negative
// as an int, is malformed in both columnar decoders, never a slice
// bound.
func TestMemberLengthPastInt64(t *testing.T) {
	body := binary.AppendUvarint(nil, 2)
	body = binary.AppendUvarint(body, 1<<63+5)
	body = append(body, make([]byte, 8)...)
	data := append(columnarPreamble(t), binary.AppendUvarint(nil, uint64(len(body)))...)
	data = append(data, body...)
	if _, _, err := DecodeColumns(data); err == nil {
		t.Error("DecodeColumns accepted a 2^63-byte member")
	}
	if _, err := ReadColumn(data, "pollution"); !errors.Is(err, ErrTruncated) {
		t.Errorf("ReadColumn: %v, want ErrTruncated", err)
	}
}

// TestIndexCountMismatchStopsRecovery: seek recovery keeps only the
// prefix before an index entry whose record count its segment's own
// header contradicts, as it does for a segment whose bytes fail their
// CRC.
func TestIndexCountMismatchStopsRecovery(t *testing.T) {
	rec, err := RecoverStats(indexCountCrasher(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.ViaIndex || rec.Records != 2 || len(rec.Segments) != 1 {
		t.Fatalf("recovered %d records in %d segments (via index %v), want 2 in 1",
			rec.Records, len(rec.Segments), rec.ViaIndex)
	}
}

// TestColumnCodec: every kind decodes what it encodes into a slice
// sized by columnLen, and malformed columns fail the count.
func TestColumnCodec(t *testing.T) {
	vals := []uint64{7, 7, 7, 0, 1 << 63, 1<<63 - 1, 300, 300, 2}
	for _, kind := range []FieldKind{KindDelta, KindRLE, KindFloat} {
		enc := appendColumn(nil, kind, vals)
		n, err := columnLen(enc, kind)
		if err != nil || n != len(vals) {
			t.Fatalf("%v: columnLen = %d, %v; want %d", kind, n, err, len(vals))
		}
		got := make([]uint64, n)
		if err := decodeColumn(got, enc, kind); err != nil || !reflect.DeepEqual(got, vals) {
			t.Fatalf("%v: decoded %v, %v; want %v", kind, got, err, vals)
		}
	}
	for name, c := range map[string]struct {
		kind FieldKind
		data []byte
	}{
		"delta ends mid-value": {KindDelta, []byte{1, 0x80}},
		"rle zero run":         {KindRLE, []byte{5, 0}},
		"rle missing run":      {KindRLE, []byte{5}},
		"rle runs overflow":    {KindRLE, binary.AppendUvarint([]byte{5}, 1<<62)},
		"float odd length":     {KindFloat, make([]byte, 12)},
		"unknown kind":         {FieldKind(9), nil},
	} {
		if n, err := columnLen(c.data, c.kind); err == nil {
			t.Errorf("%s: columnLen = %d, want an error", name, n)
		}
	}
	overlong := bytes.Repeat([]byte{0xff}, 10)
	if err := decodeColumn(make([]uint64, 1), append(overlong, 1), KindDelta); err == nil {
		t.Error("overlong delta varint decoded")
	}
}

// multiSegmentFile writes n rows over three fields (one per kind) in
// segments of every rows, returning the file and the expected columns.
func multiSegmentFile(t *testing.T, n, every int) ([]byte, [][]uint64) {
	t.Helper()
	hdr := testHeader()
	hdr.Layout = LayoutColumns
	hdr.Fields = FieldsSpec([]Field{{"pol", KindDelta}, {"tag", KindRLE}, {"w", KindFloat}})
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]uint64, 3)
	for i := 0; i < n; i++ {
		row := []uint64{uint64(i * 37 % 1001), uint64(i / 40), uint64(i) * 0x9e3779b97f4a7c15}
		for j := range row {
			want[j] = append(want[j], row[j])
		}
		if err := w.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// TestDecodeColumnsWorkerInvariance: one and eight decode workers give
// identical columns, and both equal what was written.
func TestDecodeColumnsWorkerInvariance(t *testing.T) {
	data, want := multiSegmentFile(t, 5000, 211)
	hdr, headerEnd, err := ReadHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	fields, err := ParseFields(hdr.Fields)
	if err != nil {
		t.Fatal(err)
	}
	segs := findIndex(data, headerEnd)
	if len(segs) < 20 {
		t.Fatalf("file has %d indexed segments, want ≥ 20", len(segs))
	}
	for _, workers := range []int{1, 8} {
		got, err := inflateColSegments(data, segs, fields, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: columns differ from the written values", workers)
		}
	}
}

// TestInflaterReuseAfterFailure: an inflater that failed inside a member
// — truncated deflate stream, gzip CRC mismatch, or the size bound —
// decodes the next clean file exactly as a fresh one does, on the
// package's own decode path and on a held inflater alike.
func TestInflaterReuseAfterFailure(t *testing.T) {
	clean, want := multiSegmentFile(t, 3000, 500)
	rec, err := RecoverStats(clean)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, _ := ReadHeader(clean)
	fields, _ := ParseFields(hdr.Fields)
	// decodeWith decodes every segment of clean on z alone.
	decodeWith := func(z *inflater) [][]uint64 {
		per := make([][][]uint64, len(rec.Segments))
		for i, s := range rec.Segments {
			start := s.Offset + int64(uvarintLen(uint64(s.CLen)))
			cols, err := parseColSegment(z, clean[start:start+s.CLen], fields)
			if err != nil {
				t.Fatalf("clean segment %d: %v", i, err)
			}
			per[i] = cols
		}
		return concatColumns(per, len(fields))
	}
	if got := decodeWith(new(inflater)); !reflect.DeepEqual(got, want) {
		t.Fatal("a fresh inflater misdecodes the clean file")
	}

	pol := columnMember(t, KindDelta, 1, 2, 3)
	tag := columnMember(t, KindRLE, 4, 4, 4)
	w := columnMember(t, KindFloat, 5, 6, 7)
	truncated := pol[:len(pol)-12] // cut inside the deflate stream
	badCRC := append([]byte(nil), pol...)
	badCRC[len(badCRC)-8] ^= 0xff // gzip trailer CRC-32
	// The failing members, first or last in their segment so the failure
	// lands after a successful member too.
	failures := map[string]struct {
		seg  []byte
		want error
	}{
		"truncated deflate":  {colSegment(3, truncated, tag, w), io.ErrUnexpectedEOF},
		"gzip CRC mismatch":  {colSegment(3, pol, tag, badCRC), gzip.ErrChecksum},
		"truncated last":     {colSegment(3, pol, tag, w[:len(w)-12]), io.ErrUnexpectedEOF},
		"CRC mismatch first": {colSegment(3, badCRC, tag, w), gzip.ErrChecksum},
	}
	for name, f := range failures {
		// On a held inflater.
		z := new(inflater)
		_, width := binary.Uvarint(f.seg)
		if _, err := parseColSegment(z, f.seg[width:], fields); !errors.Is(err, f.want) {
			t.Fatalf("%s: parseColSegment error %v, want %v", name, err, f.want)
		}
		if got := decodeWith(z); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the inflater that failed misdecodes the clean file", name)
		}
		// Through the pool, on this goroutine (the scan path reports the
		// failure as a damaged tail).
		bad := append(columnarPreamble(t), f.seg...)
		if _, _, err := DecodeColumns(bad); err == nil {
			t.Fatalf("%s: DecodeColumns accepted the damaged member", name)
		}
		if _, got, err := DecodeColumns(clean); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: clean decode after a failed one: %v", name, err)
		}
	}

	// The size bound, hit mid-member.
	z := getInflater()
	big := columnMember(t, KindFloat, make([]uint64, 4096)...)
	if _, err := z.inflate(big, 1000); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("inflate past the bound: %v, want ErrTooLarge", err)
	}
	if got := decodeWith(z); !reflect.DeepEqual(got, want) {
		t.Fatal("ErrTooLarge: the inflater that failed misdecodes the clean file")
	}
	z.release()
	if _, got, err := DecodeColumns(clean); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ErrTooLarge: clean decode through the pool: %v", err)
	}
}

// TestInflaterDropsOversizedBuffers: an inflater keeps its buffer across
// members, but gives up one grown past maxPooledBuffer on release.
func TestInflaterDropsOversizedBuffers(t *testing.T) {
	z := new(inflater)
	small := columnMember(t, KindFloat, make([]uint64, 512)...)
	if _, err := z.inflate(small, maxSegment); err != nil {
		t.Fatal(err)
	}
	if cap(z.out) < 4096 {
		t.Fatalf("buffer holds %d bytes after a 4 KiB member", cap(z.out))
	}
	big := columnMember(t, KindFloat, make([]uint64, maxPooledBuffer/8+1)...)
	if _, err := z.inflate(big, maxSegment); err != nil {
		t.Fatal(err)
	}
	z.release()
	if z.out != nil {
		t.Fatalf("released inflater kept a %d-byte buffer", cap(z.out))
	}
}
