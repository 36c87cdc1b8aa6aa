// Package recio is the compressed binary record store behind `-format
// recio` shard files: a length-prefixed frame codec with per-record
// CRC-32C integrity, a gzip-compressed stream body, a self-describing
// header carrying the workload's identity (experiment tag, matrix
// dimensions, shard selector, matrix digest) plus run provenance (tool,
// seed, workers), a seekable per-segment index trailer and two body
// layouts. Shard files use the per-field columnar layout; the row layout
// (opaque payload frames) stays for the checkpoint benchmark that drives
// Writer.Append.
//
// On-disk layout (DESIGN.md §9):
//
//	magic   "recio" + one format-version byte (2)
//	header  frame: uvarint(len) ++ len bytes of JSON ++ CRC-32C(payload)
//	body    zero or more segments, each
//	        uvarint(clen) ++ clen bytes (column layout: uvarint(records)
//	        ++ per-field gzip members; row layout: one gzip member)
//	trailer (optional) uvarint(0) sentinel ++ index frame ++ footer
//
// Row-layout gzip members inflate to a run of record frames with the
// same shape as the header frame (uvarint length, payload, CRC-32C).
// A segment is the checkpoint unit: the Writer buffers records into an
// in-memory segment, compresses sealed segments on a worker pool (gzip
// members concatenate legally, so parallel compression of consecutive
// segments written back in order is byte-equivalent to sequential
// compression at the same level), and Checkpoint writes everything
// sealed so far followed by an fsync — a crash can only ever lose the
// segments not yet checkpointed, and every byte before the last
// checkpoint is a valid prefix of the file.
//
// The trailer makes that prefix seekable: one index entry per segment
// (byte offset, compressed length, record count, first/last cell index,
// CRC-32C of the compressed bytes) lets RecoverStats count and verify
// records without inflating a single segment, and lets the strict
// decoders inflate segments in parallel. The trailer is advisory: it is
// rewritten at every checkpoint (on seekable destinations) and on Close,
// and a missing or damaged trailer simply degrades every reader to the
// sequential scan path.
//
// The package is pure I/O: values and payloads are opaque, and the
// sweep layer owns what a record means (internal/sweep codecs).
package recio

import (
	"compress/gzip"
	"errors"
	"fmt"
	"runtime"
)

// magic identifies a recio file; the trailing byte is the format
// version and changes whenever the frame layout does.
var magic = []byte{'r', 'e', 'c', 'i', 'o', formatVersion}

// formatVersion is the one format this build writes and reads: row or
// columnar bodies, the recorded compression level and the index trailer.
// Version 1 (row bodies, no trailer) never left a developer's scratch
// directory and is rejected with ErrVersion like any other foreign byte.
const formatVersion = 2

// MaxPayload bounds a single frame payload (header or record). A
// decoder never allocates more than this for one frame, no matter what
// a corrupt length prefix claims.
const MaxPayload = 1 << 26 // 64 MiB

// maxSegment bounds one compressed segment; segments are sized by the
// writer's checkpoint cadence and stay far below this.
const maxSegment = 1 << 30

// DefaultLevel is the gzip level used when Options.Level is zero.
// Shard files are transport between a shard run and its merge, not
// archives: BestSpeed keeps the encoder off the critical path (`go run
// ./bench -workload shard_merge` measures it as records_per_s_write) and
// `-level 9`
// remains available when bytes on the wire matter more than time.
const DefaultLevel = gzip.BestSpeed

// Decode and Recover errors. Decode wraps them with the byte offset of
// the damage.
var (
	ErrMagic     = errors.New("recio: not a recio file (bad magic)")
	ErrVersion   = errors.New("recio: unsupported format version")
	ErrCRC       = errors.New("recio: frame CRC-32C mismatch")
	ErrTooLarge  = errors.New("recio: frame length exceeds MaxPayload")
	ErrTruncated = errors.New("recio: truncated file")
	ErrLayout    = errors.New("recio: wrong body layout for this reader")
	ErrLevel     = errors.New("recio: compression level outside gzip's 1..9")
)

// LayoutColumns marks a columnar-body file in Header.Layout; the empty
// string means the row layout.
const LayoutColumns = "columns"

// Options configure a Writer. The zero value is ready to use.
type Options struct {
	// Level is the gzip compression level, gzip.BestSpeed (1) through
	// gzip.BestCompression (9); 0 means DefaultLevel. Recorded in the
	// header. Any level produces legal input for every reader —
	// segments even mix levels across a resume.
	Level int
	// Workers bounds how many sealed segments compress concurrently;
	// 0 means min(GOMAXPROCS, 8), 1 compresses on the calling
	// goroutine. Segments are written strictly in seal order whatever
	// the worker count, so the bytes are identical at any value.
	Workers int
	// CellBase is the absolute cell index of the first record appended
	// through this writer (the header's CellLo for a fresh shard, CellLo
	// plus the recovered record count for a resumed one); it anchors the
	// trailer's per-segment cell ranges.
	CellBase int
}

// normalize validates the level and fills defaults.
func (o Options) normalize() (Options, error) {
	if o.Level == 0 {
		o.Level = DefaultLevel
	}
	if o.Level < gzip.BestSpeed || o.Level > gzip.BestCompression {
		return o, fmt.Errorf("%w: %d", ErrLevel, o.Level)
	}
	if o.Workers <= 0 {
		o.Workers = min(runtime.GOMAXPROCS(0), 8)
	}
	return o, nil
}

// Header is the self-describing first frame of every recio file. The
// identity fields (Experiment through MatrixDigest) pin the workload
// the records were cut from — resume and merge refuse files whose
// identity disagrees with the workload rebuilt from the current flags.
// Tool, Seed and Workers are provenance only: informational, never
// validated (a shard may legitimately be resumed with a different
// worker count). Level, Layout and Fields describe how the body is
// encoded: the gzip level the segments were (initially) written at,
// and — for columnar files — the ordered per-field column map.
type Header struct {
	Format     int    `json:"format"`
	Experiment string `json:"experiment"`
	Cells      int    `json:"cells"`
	Groups     int    `json:"groups"`
	Shard      int    `json:"shard"`
	Shards     int    `json:"shards"`
	CellLo     int    `json:"cell_lo"`
	CellHi     int    `json:"cell_hi"`
	// MatrixDigest is the SHA-256 identity of the exact cell workload
	// (see sweep.MatrixDigest): same world, seeds and defaults ⇒ same
	// digest on every machine.
	MatrixDigest string `json:"matrix_digest"`
	Tool         string `json:"tool,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	Workers      int    `json:"workers,omitempty"`
	// Level records the gzip level segments were written at (v2 files;
	// informational — a resumed run may append at a different level).
	Level int `json:"level,omitempty"`
	// Layout is "" for row bodies, LayoutColumns for columnar ones.
	Layout string `json:"layout,omitempty"`
	// Fields is the columnar field map as "name:kind" pairs joined by
	// commas (see FieldsSpec/ParseFields); empty for row bodies.
	Fields string `json:"fields,omitempty"`
}

// SameWorkload reports whether two headers describe the same shard of
// the same workload; provenance and encoding fields are ignored (a
// resume may legally rewrite the shard at a different level or layout).
func (h Header) SameWorkload(o Header) bool {
	return h.Experiment == o.Experiment &&
		h.Cells == o.Cells && h.Groups == o.Groups &&
		h.Shard == o.Shard && h.Shards == o.Shards &&
		h.CellLo == o.CellLo && h.CellHi == o.CellHi &&
		h.MatrixDigest == o.MatrixDigest
}

// DescribeMismatch names the first identity field where h and o
// disagree, for resume/merge diagnostics.
func (h Header) DescribeMismatch(o Header) string {
	switch {
	case h.Experiment != o.Experiment:
		return fmt.Sprintf("experiment %q != %q", h.Experiment, o.Experiment)
	case h.Cells != o.Cells || h.Groups != o.Groups:
		return fmt.Sprintf("matrix dimensions %d cells/%d groups != %d cells/%d groups",
			h.Cells, h.Groups, o.Cells, o.Groups)
	case h.Shard != o.Shard || h.Shards != o.Shards:
		return fmt.Sprintf("shard selector %d/%d != %d/%d", h.Shard, h.Shards, o.Shard, o.Shards)
	case h.CellLo != o.CellLo || h.CellHi != o.CellHi:
		return fmt.Sprintf("cell range [%d,%d) != [%d,%d)", h.CellLo, h.CellHi, o.CellLo, o.CellHi)
	case h.MatrixDigest != o.MatrixDigest:
		return fmt.Sprintf("matrix digest %.12s… != %.12s… (different world/seed/defaults)",
			h.MatrixDigest, o.MatrixDigest)
	}
	return "headers match"
}
