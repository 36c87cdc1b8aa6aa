// Writer: append-with-sync checkpointing over a parallel compression
// pipeline. Records are framed into an in-memory segment; Flush seals
// the segment and hands it to a worker pool, which deflates sealed
// segments concurrently while the caller keeps appending. Segments are
// written to the destination strictly in seal order — gzip members
// concatenate legally, so the bytes are identical to a sequential
// writer at the same level whatever the worker count. Checkpoint is the
// durability barrier: it waits for every sealed segment to land, writes
// the index trailer (on destinations that can rewind over it next
// time), and syncs — a crash loses at most the records not yet
// checkpointed, and the on-disk prefix stays decodable.

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
	"sync"
)

// syncer is the subset of *os.File the writer uses to make a
// checkpoint durable; non-file destinations (buffers in tests) simply
// skip the sync.
type syncer interface{ Sync() error }

// rewinder is the subset of *os.File the writer needs to retract a
// trailer before appending more segments. Destinations without it
// (buffers) get their trailer once, at Close.
type rewinder interface {
	io.Seeker
	Truncate(int64) error
}

// segJob is one sealed segment travelling through the compression
// pool.
type segJob struct {
	done      chan struct{}
	recs      int
	firstCell int
	raw       []byte // sealed segment bytes; returned to w.spare after the write
	comp      []byte // compressed segment bytes (set by the worker)
	crc       uint32 // CRC-32C of comp
	err       error
}

// Writer appends checksummed record frames to a recio stream with
// explicit checkpoints. Not safe for concurrent use — the parallelism
// lives behind Flush, not in the caller's API.
type Writer struct {
	dst    io.Writer
	opts   Options
	fields []Field // non-nil ⇒ columnar layout

	raw   []byte     // rows: framed records of the open segment
	spare [][]byte   // segment buffers back from the pool, ready to reuse
	cols  [][]uint64 // columns: per-field values of the open segment

	pending  int // records in the open segment
	nextCell int // absolute cell index of the next record

	sem    chan struct{} // compression slots
	sealed []*segJob     // segments flushed but not yet written

	segs      []SegmentInfo // segments written to dst, for the trailer
	off       int64         // end-of-body byte offset in dst
	trailerAt bool          // dst currently ends with a trailer
	dirty     bool          // body bytes written since the last sync
	err       error
}

// NewWriter starts a fresh recio stream on dst: it writes the magic and
// the header frame immediately (and syncs them, when dst can), so even
// a run that dies before its first checkpoint leaves a self-describing
// file behind. The header's Format and Level are stamped from the
// writer; a columnar header (Layout == LayoutColumns) must carry the
// field map its rows will arrive in.
func NewWriter(dst io.Writer, hdr Header, opts Options) (*Writer, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	// A fresh stream's first record is always the shard's first cell.
	opts.CellBase = hdr.CellLo
	hdr.Format = formatVersion
	hdr.Level = opts.Level
	var fields []Field
	if hdr.Layout == LayoutColumns {
		if fields, err = ParseFields(hdr.Fields); err != nil {
			return nil, err
		}
	} else if hdr.Layout != "" {
		return nil, fmt.Errorf("%w: unknown layout %q", ErrLayout, hdr.Layout)
	}
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("recio: encode header: %w", err)
	}
	if len(hj) > MaxPayload {
		return nil, fmt.Errorf("recio: header too large: %w", ErrTooLarge)
	}
	head := appendFrame(append([]byte{}, magic...), hj)
	if _, err := dst.Write(head); err != nil {
		return nil, fmt.Errorf("recio: write header: %w", err)
	}
	w := newBodyWriter(dst, opts, fields, int64(len(head)), nil)
	if err := w.sync(); err != nil {
		return nil, err
	}
	return w, nil
}

// ResumeWriter continues an existing stream whose clean prefix the
// caller has already validated (via RecoverStats) and positioned dst
// at — typically an *os.File truncated to the recovered clean size,
// which excludes any trailer (the writer regrows it). No header is
// written; appended records extend the recovered ones, and rec's
// segment list seeds the trailer so the index keeps covering the whole
// body.
func ResumeWriter(dst io.Writer, opts Options, rec *Recovery) (*Writer, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	var fields []Field
	if rec.Header.Layout == LayoutColumns {
		if fields, err = ParseFields(rec.Header.Fields); err != nil {
			return nil, err
		}
	}
	opts.CellBase = rec.Header.CellLo + rec.Records
	return newBodyWriter(dst, opts, fields, rec.CleanSize, rec.Segments), nil
}

func newBodyWriter(dst io.Writer, opts Options, fields []Field, off int64, segs []SegmentInfo) *Writer {
	w := &Writer{
		dst:      dst,
		opts:     opts,
		fields:   fields,
		nextCell: opts.CellBase,
		sem:      make(chan struct{}, opts.Workers),
		segs:     segs,
		off:      off,
	}
	if fields != nil {
		w.cols = make([][]uint64, len(fields))
	}
	return w
}

// Append frames one record payload into the open segment (row layout
// only). The payload is not durable until the next Checkpoint (or
// Close).
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.fields != nil {
		return w.fail(fmt.Errorf("%w: Append on a columnar writer (use AppendRow)", ErrLayout))
	}
	if len(payload) > MaxPayload {
		return w.fail(fmt.Errorf("recio: record of %d bytes: %w", len(payload), ErrTooLarge))
	}
	w.raw = appendFrame(w.raw, payload)
	w.pending++
	w.nextCell++
	return nil
}

// AppendRow adds one record's per-field values to the open columnar
// segment; vals must follow the header's field order.
func (w *Writer) AppendRow(vals []uint64) error {
	if w.err != nil {
		return w.err
	}
	if w.fields == nil {
		return w.fail(fmt.Errorf("%w: AppendRow on a row writer (use Append)", ErrLayout))
	}
	if len(vals) != len(w.fields) {
		return w.fail(fmt.Errorf("recio: row of %d values for %d fields", len(vals), len(w.fields)))
	}
	for i, v := range vals {
		w.cols[i] = append(w.cols[i], v)
	}
	w.pending++
	w.nextCell++
	return nil
}

// Pending reports how many records sit in the open, not-yet-durable
// segment.
func (w *Writer) Pending() int { return w.pending }

// maxBacklog bounds sealed-but-unwritten segments so a fast producer
// cannot hold the whole file in memory; past it, Flush drains the
// oldest segment synchronously.
const maxBacklog = 4

// Flush seals the open segment and queues it for compression. It
// returns without waiting: the segment becomes durable at the next
// Checkpoint (or Close). A Flush with nothing pending is a no-op.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.pending == 0 {
		return nil
	}
	job := &segJob{done: make(chan struct{}), recs: w.pending, firstCell: w.nextCell - w.pending}
	level := w.opts.Level
	if w.fields == nil {
		// Hand the open buffer to the job rather than copying it; the
		// writer continues into a recycled one (drainOne returns each
		// job's buffer to w.spare once its segment is on disk).
		job.raw = w.raw
		w.raw = nil
		if n := len(w.spare); n > 0 {
			w.raw = w.spare[n-1]
			w.spare = w.spare[:n-1]
		}
		go func() {
			w.sem <- struct{}{}
			defer func() { <-w.sem; close(job.done) }()
			job.comp, job.err = deflate(job.raw, level)
			job.crc = crc32.Checksum(job.comp, castagnoli)
		}()
	} else {
		cols := w.cols
		w.cols = make([][]uint64, len(w.fields))
		fields := w.fields
		recs := w.pending
		go func() {
			w.sem <- struct{}{}
			defer func() { <-w.sem; close(job.done) }()
			job.comp, job.err = deflateColumns(fields, cols, recs, level)
			job.crc = crc32.Checksum(job.comp, castagnoli)
		}()
	}
	w.pending = 0
	w.sealed = append(w.sealed, job)
	for len(w.sealed) > maxBacklog*w.opts.Workers {
		if err := w.drainOne(); err != nil {
			return err
		}
	}
	return nil
}

// zwPools caches gzip writers per compression level: a level-1
// deflater alone carries a half-megabyte match table, and segment-cadence
// callers would otherwise allocate (and zero) one per few thousand
// records. Indexed by level; normalize guarantees 1..9.
var zwPools [gzip.BestCompression + 1]sync.Pool

// deflate compresses one sealed row segment into a single gzip member.
func deflate(raw []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(raw)/3 + 64)
	zw, _ := zwPools[level].Get().(*gzip.Writer)
	if zw == nil {
		// The level was validated in normalize, so NewWriterLevel cannot
		// fail.
		zw, _ = gzip.NewWriterLevel(&buf, level)
	} else {
		zw.Reset(&buf)
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, fmt.Errorf("recio: compress segment: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("recio: close segment: %w", err)
	}
	zwPools[level].Put(zw)
	return buf.Bytes(), nil
}

// deflateColumns builds one columnar segment: the record count, then
// each field's encoded column as its own gzip member behind a length
// prefix, so readers can skip fields they do not fold.
func deflateColumns(fields []Field, cols [][]uint64, recs int, level int) ([]byte, error) {
	seg := binary.AppendUvarint(nil, uint64(recs))
	for i, f := range fields {
		member, err := deflate(appendColumn(nil, f.Kind, cols[i]), level)
		if err != nil {
			return nil, err
		}
		seg = binary.AppendUvarint(seg, uint64(len(member)))
		seg = append(seg, member...)
	}
	return seg, nil
}

// drainOne waits for the oldest sealed segment and writes it.
func (w *Writer) drainOne() error {
	job := w.sealed[0]
	w.sealed = w.sealed[1:]
	<-job.done
	if job.err != nil {
		return w.fail(job.err)
	}
	if w.trailerAt {
		// Retract the trailer: the body grows over it and the index is
		// rewritten at the next checkpoint.
		r, ok := w.dst.(rewinder)
		if !ok {
			return w.fail(fmt.Errorf("recio: destination cannot rewind over its trailer"))
		}
		if _, err := r.Seek(w.off, io.SeekStart); err != nil {
			return w.fail(fmt.Errorf("recio: rewind to body end: %w", err))
		}
		if err := r.Truncate(w.off); err != nil {
			return w.fail(fmt.Errorf("recio: truncate trailer: %w", err))
		}
		w.trailerAt = false
	}
	var lenbuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenbuf[:], uint64(len(job.comp)))
	if _, err := w.dst.Write(lenbuf[:n]); err != nil {
		return w.fail(fmt.Errorf("recio: write segment length: %w", err))
	}
	if _, err := w.dst.Write(job.comp); err != nil {
		return w.fail(fmt.Errorf("recio: write segment: %w", err))
	}
	w.segs = append(w.segs, SegmentInfo{
		Offset:    w.off,
		CLen:      int64(len(job.comp)),
		Records:   job.recs,
		FirstCell: job.firstCell,
		LastCell:  job.firstCell + job.recs - 1,
		CRC:       job.crc,
	})
	w.off += int64(n) + int64(len(job.comp))
	w.dirty = true
	if job.raw != nil {
		w.spare = append(w.spare, job.raw[:0])
	}
	return nil
}

// barrier drains every sealed segment onto dst, in seal order.
func (w *Writer) barrier() error {
	for len(w.sealed) > 0 {
		if err := w.drainOne(); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint makes every appended record durable: it seals the open
// segment, waits for the pool to finish compressing, writes the
// segments in order, refreshes the index trailer (when the destination
// can rewind over it later — plain writers get theirs at Close), and
// syncs. A checkpoint with nothing new is a no-op.
func (w *Writer) Checkpoint() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if err := w.barrier(); err != nil {
		return err
	}
	if !w.dirty {
		return nil
	}
	if _, ok := w.dst.(rewinder); ok {
		if err := w.writeTrailer(); err != nil {
			return err
		}
	}
	if err := w.sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// Close checkpoints whatever is pending and, on destinations that never
// got one, writes the final trailer. It does not close the underlying
// destination — the caller owns the file handle.
func (w *Writer) Close() error {
	if err := w.Checkpoint(); err != nil {
		return err
	}
	if !w.trailerAt {
		if err := w.writeTrailer(); err != nil {
			return err
		}
		if err := w.sync(); err != nil {
			return err
		}
	}
	return nil
}

// writeTrailer appends sentinel + index + footer for everything written
// so far. w.off keeps pointing at the body end — the trailer is not
// body and the next segment overwrites it.
func (w *Writer) writeTrailer() error {
	if w.err != nil {
		return w.err
	}
	if w.trailerAt {
		return nil
	}
	if _, err := w.dst.Write(appendTrailer(nil, w.segs, w.off)); err != nil {
		return w.fail(fmt.Errorf("recio: write trailer: %w", err))
	}
	w.trailerAt = true
	return nil
}

func (w *Writer) sync() error {
	if s, ok := w.dst.(syncer); ok {
		if err := s.Sync(); err != nil {
			return w.fail(fmt.Errorf("recio: sync: %w", err))
		}
	}
	return nil
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Create opens (creating or truncating) a recio file at path and
// writes its header. The caller must Close the writer and then the
// file.
func Create(path string, hdr Header, opts Options) (*Writer, *os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w, err := NewWriter(f, hdr, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, f, nil
}
