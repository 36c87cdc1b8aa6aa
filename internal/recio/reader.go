// Readers, three tiers of them. Decode/DecodeColumns are the strict
// paths (any body damage is an error — the merge contract must never
// silently drop records), and go parallel over the index trailer when
// one is present. RecoverStats is the resume path: with a usable trailer
// it counts and CRC-verifies the clean prefix without inflating a single
// segment; without one it scans, inflating and checking each segment in
// turn. Recover is that scan for row-layout files with the records
// returned (the fuzz oracle RecoverStats is held to). A missing or
// damaged trailer is never an error anywhere — the trailer is an index,
// the body is the truth.

package recio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
)

// ReadHeader parses just the magic and header frame, returning the
// header and the byte offset where the body begins.
func ReadHeader(data []byte) (Header, int64, error) {
	var hdr Header
	if len(data) < len(magic) {
		return hdr, 0, ErrTruncated
	}
	if !bytes.Equal(data[:len(magic)-1], magic[:len(magic)-1]) {
		return hdr, 0, ErrMagic
	}
	version := int(data[len(magic)-1])
	if version != formatVersion {
		return hdr, 0, fmt.Errorf("%w %d (this build reads %d)", ErrVersion, version, formatVersion)
	}
	hj, off, err := parseFrame(data, len(magic))
	if err != nil {
		return hdr, 0, fmt.Errorf("recio: header frame: %w", err)
	}
	if err := json.Unmarshal(hj, &hdr); err != nil {
		return hdr, 0, fmt.Errorf("recio: decode header: %w", err)
	}
	if hdr.Format != version {
		return hdr, 0, fmt.Errorf("%w: header declares format %d inside a version-%d file", ErrVersion, hdr.Format, version)
	}
	return hdr, int64(off), nil
}

// Recovery is what RecoverStats learns about a possibly crash-truncated
// file: the workload identity, how many records the clean prefix holds,
// where it ends (truncate there to append), the per-segment index of
// that prefix, and whether the answer came from the trailer (seek) or a
// full scan (inflate + replay).
type Recovery struct {
	Header    Header
	Records   int
	CleanSize int64
	Segments  []SegmentInfo
	ViaIndex  bool
}

// Decode strictly parses a whole row-layout recio file held in memory:
// every segment must inflate cleanly and every frame must verify.
// Returns the header and the record payloads in append order. Damage in
// the trailer region is not an error — the trailer is advisory and
// regenerable; the body is not.
func Decode(data []byte) (Header, [][]byte, error) {
	hdr, headerEnd, err := ReadHeader(data)
	if err != nil {
		return hdr, nil, err
	}
	if hdr.Layout == LayoutColumns {
		return hdr, nil, fmt.Errorf("%w: columnar file (use DecodeColumns)", ErrLayout)
	}
	if segs := findIndex(data, headerEnd); segs != nil {
		payloads, err := inflateRowSegments(data, segs, 0)
		if err != nil {
			return hdr, nil, err
		}
		return hdr, payloads, nil
	}
	sc := scanBody(data, hdr, headerEnd, nil)
	if !sc.complete {
		return hdr, nil, fmt.Errorf("recio: damaged tail after byte %d (%d clean records): %w",
			sc.cleanSize, sc.records, ErrTruncated)
	}
	return hdr, sc.payloads, nil
}

// DecodeColumns strictly parses a whole columnar recio file, returning
// the header and one value slice per field (in header-field order),
// each holding every record's value for that field.
func DecodeColumns(data []byte) (Header, [][]uint64, error) {
	hdr, headerEnd, err := ReadHeader(data)
	if err != nil {
		return hdr, nil, err
	}
	if hdr.Layout != LayoutColumns {
		return hdr, nil, fmt.Errorf("%w: row file (use Decode)", ErrLayout)
	}
	fields, err := ParseFields(hdr.Fields)
	if err != nil {
		return hdr, nil, err
	}
	if segs := findIndex(data, headerEnd); segs != nil {
		cols, err := inflateColSegments(data, segs, fields, 0)
		if err != nil {
			return hdr, nil, err
		}
		return hdr, cols, nil
	}
	sc := scanBody(data, hdr, headerEnd, fields)
	if !sc.complete {
		return hdr, nil, fmt.Errorf("recio: damaged tail after byte %d (%d clean records): %w",
			sc.cleanSize, sc.records, ErrTruncated)
	}
	return hdr, concatColumns(sc.segCols, len(fields)), nil
}

// DecodeColumnsFile is DecodeColumns over a file path.
func DecodeColumnsFile(path string) (Header, [][]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, err
	}
	hdr, cols, err := DecodeColumns(data)
	if err != nil {
		return hdr, nil, fmt.Errorf("%s: %w", path, err)
	}
	return hdr, cols, nil
}

// Recover parses as much of a possibly crash-truncated row-layout recio
// file as is intact: the records of every undamaged segment, plus the
// byte offset where the clean prefix ends (truncate there to append —
// any trailer is excluded, the writer regrows it). Only an unreadable
// magic or header is an error — a run that cannot prove what workload
// the file belongs to must not resume onto it.
func Recover(data []byte) (hdr Header, payloads [][]byte, cleanSize int64, err error) {
	hdr, headerEnd, err := ReadHeader(data)
	if err != nil {
		return hdr, nil, 0, err
	}
	if hdr.Layout == LayoutColumns {
		return hdr, nil, 0, fmt.Errorf("%w: columnar file", ErrLayout)
	}
	sc := scanBody(data, hdr, headerEnd, nil)
	return hdr, sc.payloads, sc.cleanSize, nil
}

// RecoverStats is the seek-resume path: it learns the clean prefix's
// record count and extent without returning (or, trailer permitting,
// even inflating) the records themselves. With a usable trailer the
// whole job is a CRC sweep over the compressed segment bytes —
// sub-millisecond where the scan path decompresses megabytes — and a
// damaged trailer, or a trailer whose segments no longer checksum,
// degrades to exactly the scan Recover performs. Only an unreadable
// magic or header (a columnar field map included) is an error.
func RecoverStats(data []byte) (*Recovery, error) {
	hdr, headerEnd, err := ReadHeader(data)
	if err != nil {
		return nil, err
	}
	var fields []Field
	if hdr.Layout == LayoutColumns {
		if fields, err = ParseFields(hdr.Fields); err != nil {
			return nil, err
		}
	}
	rec := &Recovery{Header: hdr, CleanSize: headerEnd}
	if segs := findIndex(data, headerEnd); segs != nil {
		rec.ViaIndex = true
		for _, s := range segs {
			if !verifySegment(data, s) || (fields != nil && declaredRecords(data, s) != s.Records) {
				// Bit rot inside an indexed segment, or an entry its
				// segment contradicts: everything before it is still
				// provably clean; resume re-solves the rest.
				break
			}
			rec.Segments = append(rec.Segments, s)
			rec.Records += s.Records
			rec.CleanSize = s.end()
		}
		return rec, nil
	}
	sc := scanBody(data, hdr, headerEnd, fields)
	rec.Records = sc.records
	rec.CleanSize = sc.cleanSize
	rec.Segments = sc.segs
	return rec, nil
}

// RecoverStatsFile is RecoverStats over a file path.
func RecoverStatsFile(path string) (*Recovery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec, err := RecoverStats(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// ReadColumn returns every record's value for one named field of a
// columnar file, inflating only that field's members — sibling columns
// are skipped by their length prefixes, which is the layout's point.
func ReadColumn(data []byte, name string) ([]uint64, error) {
	hdr, headerEnd, err := ReadHeader(data)
	if err != nil {
		return nil, err
	}
	if hdr.Layout != LayoutColumns {
		return nil, fmt.Errorf("%w: row file has no columns", ErrLayout)
	}
	fields, err := ParseFields(hdr.Fields)
	if err != nil {
		return nil, err
	}
	want := -1
	for i, f := range fields {
		if f.Name == name {
			want = i
		}
	}
	if want < 0 {
		return nil, fmt.Errorf("recio: no column %q (file has %s)", name, hdr.Fields)
	}
	z := getInflater()
	defer z.release()
	var per [][]uint64
	off := headerEnd
	for off < int64(len(data)) {
		clen, width := binary.Uvarint(data[off:])
		if width <= 0 {
			return nil, fmt.Errorf("recio: damaged segment length at byte %d: %w", off, ErrTruncated)
		}
		if clen == 0 { // trailer sentinel: body ends
			break
		}
		if clen > maxSegment || off+int64(width)+int64(clen) > int64(len(data)) {
			return nil, fmt.Errorf("recio: damaged segment at byte %d: %w", off, ErrTruncated)
		}
		seg := data[off+int64(width) : off+int64(width)+int64(clen)]
		segVals, err := decodeOneColumn(z, seg, fields, want)
		if err != nil {
			return nil, err
		}
		per = append(per, segVals)
		off += int64(width) + int64(clen)
	}
	return slices.Concat(per...), nil
}

// ReadColumnFile is ReadColumn over a file path.
func ReadColumnFile(path, name string) ([]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	vals, err := ReadColumn(data, name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return vals, nil
}

// decodeOneColumn extracts field `want` from one columnar segment body.
func decodeOneColumn(z *inflater, seg []byte, fields []Field, want int) ([]uint64, error) {
	recs, pos := binary.Uvarint(seg)
	if pos <= 0 || recs > maxSegment {
		return nil, fmt.Errorf("recio: malformed columnar segment: %w", ErrTruncated)
	}
	for i := range fields {
		mlen, w := binary.Uvarint(seg[pos:])
		if w <= 0 || mlen > maxSegment || pos+w+int(mlen) > len(seg) {
			return nil, fmt.Errorf("recio: malformed column member %d: %w", i, ErrTruncated)
		}
		pos += w
		if i == want {
			enc, err := z.inflate(seg[pos:pos+int(mlen)], maxSegment)
			if err != nil {
				return nil, err
			}
			if err := checkColumnLen(enc, fields[i].Kind, int(recs)); err != nil {
				return nil, err
			}
			vals := make([]uint64, recs)
			return vals, decodeColumn(vals, enc, fields[i].Kind)
		}
		pos += int(mlen)
	}
	return nil, fmt.Errorf("recio: columnar segment ended before field %d", want)
}

// declaredRecords is the record count a verified columnar segment
// declares in its uncompressed head, or -1 when unreadable.
func declaredRecords(data []byte, s SegmentInfo) int {
	start := s.Offset + int64(uvarintLen(uint64(s.CLen)))
	recs, w := binary.Uvarint(data[start : start+s.CLen])
	if w <= 0 || recs > maxSegment {
		return -1
	}
	return int(recs)
}

// scanResult is everything one sequential body walk learns.
type scanResult struct {
	payloads  [][]byte     // row layout: record payloads, in order
	segCols   [][][]uint64 // column layout: each segment's per-field values
	records   int
	segs      []SegmentInfo
	cleanSize int64
	// complete is true when the body ended legitimately: at EOF on a
	// segment boundary, or at the trailer sentinel. False means the
	// tail is damaged (crash truncation or corruption).
	complete bool
}

// scanBody walks segments sequentially — the fallback whenever no
// usable trailer exists. fields is nil for row layouts.
// Damage stops the walk; everything before it stays valid.
func scanBody(data []byte, hdr Header, headerEnd int64, fields []Field) scanResult {
	sc := scanResult{cleanSize: headerEnd}
	z := getInflater()
	defer z.release()
	nextCell := hdr.CellLo
	off := headerEnd
	for {
		if off == int64(len(data)) {
			sc.complete = true
			return sc
		}
		clen, width := binary.Uvarint(data[off:])
		if width <= 0 {
			return sc
		}
		if clen == 0 {
			sc.complete = true // trailer sentinel: the body ends here
			return sc
		}
		if clen > maxSegment || off+int64(width)+int64(clen) > int64(len(data)) {
			return sc
		}
		start := off + int64(width)
		seg := data[start : start+int64(clen)]
		var recs int
		var err error
		if fields == nil {
			var payloads [][]byte
			payloads, err = parseRowSegment(z, seg)
			recs = len(payloads)
			if err == nil {
				sc.payloads = append(sc.payloads, payloads...)
			}
		} else {
			var cols [][]uint64
			cols, err = parseColSegment(z, seg, fields)
			if err == nil {
				recs = len(cols[0])
				sc.segCols = append(sc.segCols, cols)
			}
		}
		if err != nil {
			return sc
		}
		sc.segs = append(sc.segs, SegmentInfo{
			Offset:    off,
			CLen:      int64(clen),
			Records:   recs,
			FirstCell: nextCell,
			LastCell:  nextCell + recs - 1,
			CRC:       crc32.Checksum(seg, castagnoli),
		})
		nextCell += recs
		sc.records += recs
		off = start + int64(clen)
		sc.cleanSize = off
	}
}

// inflater is one decoding goroutine's gzip state, kept across
// members: the source reader, the flate decompressor with its window and
// tables, and the output buffer. Reset re-arms all three, so a decode
// that failed mid-member leaves nothing behind for the next one.
type inflater struct {
	src bytes.Reader
	zr  gzip.Reader
	out []byte
}

// maxPooledBuffer bounds the output buffer an inflater takes back into
// the pool; shard members inflate to 16 KiB at most (2,048 floats), so
// only a foreign writer's oversized segment is dropped.
const maxPooledBuffer = 1 << 20

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// getInflater takes an inflater from the pool; release returns it.
func getInflater() *inflater { return inflaters.Get().(*inflater) }

// release drops z's reference to the compressed bytes, and an oversized
// buffer, and returns z to the pool.
func (z *inflater) release() {
	z.src.Reset(nil)
	if cap(z.out) > maxPooledBuffer {
		z.out = nil
	}
	inflaters.Put(z)
}

// inflate decompresses one gzip member with a bound on the inflated
// size, so a corrupt length can never become a decompression bomb. It
// reads to io.EOF, so gzip's CRC and size checks run. The bytes it
// returns live in z's buffer until z's next inflate.
func (z *inflater) inflate(comp []byte, limit int64) ([]byte, error) {
	z.src.Reset(comp)
	if err := z.zr.Reset(&z.src); err != nil {
		return nil, fmt.Errorf("recio: open segment: %w", err)
	}
	out := z.out[:0]
	defer func() { z.out = out }()
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		room := out[len(out):cap(out)]
		if left := limit + 1 - int64(len(out)); int64(len(room)) > left {
			room = room[:left]
		}
		n, err := z.zr.Read(room)
		out = out[:len(out)+n]
		if int64(len(out)) > limit {
			return nil, fmt.Errorf("recio: inflated segment: %w", ErrTooLarge)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("recio: inflate segment: %w", err)
		}
	}
}

// parseRowSegment inflates and frame-checks one row segment's bytes; on
// success it returns the record payloads (copied out of the inflate
// buffer).
func parseRowSegment(z *inflater, seg []byte) ([][]byte, error) {
	inflated, err := z.inflate(seg, maxSegment)
	if err != nil {
		return nil, err
	}
	var payloads [][]byte
	for pos := 0; pos < len(inflated); {
		payload, next, err := parseFrame(inflated, pos)
		if err != nil {
			return nil, fmt.Errorf("recio: record frame at segment byte %d: %w", pos, err)
		}
		payloads = append(payloads, append([]byte(nil), payload...))
		pos = next
	}
	return payloads, nil
}

// parseColSegment inflates and decodes every field member of one
// columnar segment's bytes. The segment's columns share one slab, made
// once its first member has inflated to as many values as the segment
// declares.
func parseColSegment(z *inflater, seg []byte, fields []Field) ([][]uint64, error) {
	recs, pos := binary.Uvarint(seg)
	if pos <= 0 || recs == 0 || recs > maxSegment {
		return nil, fmt.Errorf("recio: malformed columnar segment: %w", ErrTruncated)
	}
	n := int(recs)
	var slab []uint64
	cols := make([][]uint64, len(fields))
	for i, f := range fields {
		mlen, w := binary.Uvarint(seg[pos:])
		if w <= 0 || mlen > maxSegment || pos+w+int(mlen) > len(seg) {
			return nil, fmt.Errorf("recio: malformed column member %d: %w", i, ErrTruncated)
		}
		pos += w
		enc, err := z.inflate(seg[pos:pos+int(mlen)], maxSegment)
		if err != nil {
			return nil, err
		}
		if err := checkColumnLen(enc, f.Kind, n); err != nil {
			return nil, err
		}
		if slab == nil {
			slab = make([]uint64, n*len(fields))
		}
		cols[i] = slab[i*n : (i+1)*n : (i+1)*n]
		if err := decodeColumn(cols[i], enc, f.Kind); err != nil {
			return nil, err
		}
		pos += int(mlen)
	}
	if pos != len(seg) {
		return nil, fmt.Errorf("recio: %d trailing bytes after last column", len(seg)-pos)
	}
	return cols, nil
}

// checkColumnLen fails unless an inflated column member holds exactly
// the n values its segment declares.
func checkColumnLen(enc []byte, kind FieldKind, n int) error {
	got, err := columnLen(enc, kind)
	if err != nil {
		return err
	}
	if got != n {
		return fmt.Errorf("recio: column holds %d values, segment declares %d", got, n)
	}
	return nil
}

// concatColumns joins each segment's columns into whole-file columns,
// one allocation per column (slices.Concat sizes it exactly; nil when
// there are no values) once every segment has decoded.
func concatColumns(segCols [][][]uint64, nfields int) [][]uint64 {
	out := make([][]uint64, nfields)
	per := make([][]uint64, len(segCols))
	for f := range out {
		for i, cols := range segCols {
			per[i] = cols[f]
		}
		out[f] = slices.Concat(per...)
	}
	return out
}

// inflateRowSegments decompresses the given segments concurrently (in
// index order) and concatenates their record payloads. workers ≤ 0
// means min(GOMAXPROCS, 8). Strict: any CRC, inflate or frame failure
// is an error.
func inflateRowSegments(data []byte, segs []SegmentInfo, workers int) ([][]byte, error) {
	per := make([][][]byte, len(segs))
	err := eachSegment(segs, workers, func(z *inflater, i int) error {
		s := segs[i]
		if !verifySegment(data, s) {
			return fmt.Errorf("recio: segment at byte %d: %w", s.Offset, ErrCRC)
		}
		start := s.Offset + int64(uvarintLen(uint64(s.CLen)))
		payloads, err := parseRowSegment(z, data[start:start+s.CLen])
		if err != nil {
			return err
		}
		if len(payloads) != s.Records {
			return fmt.Errorf("recio: segment at byte %d holds %d records, index says %d",
				s.Offset, len(payloads), s.Records)
		}
		per[i] = payloads
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range per {
		total += len(p)
	}
	out := make([][]byte, 0, total)
	for _, p := range per {
		out = append(out, p...)
	}
	return out, nil
}

// inflateColSegments is inflateRowSegments for columnar bodies: each
// segment decodes all its field members, concurrently across segments,
// and is checked against its index entry before any whole-file column
// is sized.
func inflateColSegments(data []byte, segs []SegmentInfo, fields []Field, workers int) ([][]uint64, error) {
	per := make([][][]uint64, len(segs))
	err := eachSegment(segs, workers, func(z *inflater, i int) error {
		s := segs[i]
		if !verifySegment(data, s) {
			return fmt.Errorf("recio: segment at byte %d: %w", s.Offset, ErrCRC)
		}
		start := s.Offset + int64(uvarintLen(uint64(s.CLen)))
		cols, err := parseColSegment(z, data[start:start+s.CLen], fields)
		if err != nil {
			return err
		}
		if len(cols[0]) != s.Records {
			return fmt.Errorf("recio: segment at byte %d holds %d records, index says %d",
				s.Offset, len(cols[0]), s.Records)
		}
		per[i] = cols
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatColumns(per, len(fields)), nil
}

// eachSegment runs fn(z, i) for every segment index on a bounded worker
// pool, returning the lowest-index error. Each worker decodes with one
// pooled inflater. workers ≤ 0 means min(GOMAXPROCS, 8).
func eachSegment(segs []SegmentInfo, workers int, fn func(z *inflater, i int) error) error {
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
	}
	workers = min(workers, len(segs))
	if workers <= 1 {
		z := getInflater()
		defer z.release()
		for i := range segs {
			if err := fn(z, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(segs))
	var next int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := getInflater()
			defer z.release()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(segs) {
					return
				}
				errs[i] = fn(z, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
