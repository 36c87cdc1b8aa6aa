// The recio shard codec: records transposed into one compressed column
// per field, so a reducer that folds a single field — a pollution
// histogram, a weight quantile — inflates only that field's bytes. A
// record type opts in by implementing ColumnarRecord. Files written by
// older builds in recio's row layout (one JSON payload per record) are
// refused by name, never misread.
package sweep

import (
	"errors"
	"fmt"
	"os"

	"github.com/bgpsim/bgpsim/internal/recio"
)

// ColumnarRecord is the contract a record type implements to ride the
// recio format. ColumnFields declares the per-field wire names and
// encodings; a shard's first record (the zero value for an empty shard)
// supplies the file's field map, so a type whose width follows its
// workload — one column per probe set — maps every record of one shard
// to the same columns, and the writer rejects a record of any other
// width. ColumnValues and SetColumnValues transpose one record to and
// from that declared order, floats travelling as IEEE-754 bits so
// round-trips are exact. ColumnFields and ColumnValues want value
// receivers, SetColumnValues a pointer receiver: *T implements the full
// interface.
type ColumnarRecord interface {
	ColumnFields() []recio.Field
	ColumnValues() []uint64
	SetColumnValues(vals []uint64)
}

// errRowLayout refuses a .rec file in the row layout older builds wrote.
var errRowLayout = errors.New("row-layout recio shard from an older build: this build reads and resumes only columnar recio shards; re-run the shard")

// columnarOf asserts *T implements ColumnarRecord, with a diagnosis
// naming the offending type when it does not.
func columnarOf[T any](z *T) (ColumnarRecord, error) {
	cr, ok := any(z).(ColumnarRecord)
	if !ok {
		return nil, fmt.Errorf("record type %T has no columnar mapping: use -format %s", *z, FormatJSON)
	}
	return cr, nil
}

// ColumnarCodec is the recio shard format. Writing and reading require
// T to implement ColumnarRecord.
type ColumnarCodec[T any] struct {
	// Level is the gzip compression level (0 = recio.DefaultLevel).
	Level int
}

// Name implements Codec.
func (ColumnarCodec[T]) Name() string { return FormatRecio }

// Ext implements Codec.
func (ColumnarCodec[T]) Ext() string { return "rec" }

// WriteShard implements Codec.
func (c ColumnarCodec[T]) WriteShard(path string, f *ShardFile[T]) error {
	if len(f.Records) != f.CellHi-f.CellLo {
		return fmt.Errorf("shard %d/%d: %d records for cell range [%d,%d)",
			f.Shard, f.Shards, len(f.Records), f.CellLo, f.CellHi)
	}
	sw := shardWriter[T]{path: path, hdr: recioHeader(f), opts: recio.Options{Level: c.Level}, every: wholeShardSegment}
	for i := range f.Records {
		if err := sw.append(&f.Records[i]); err != nil {
			sw.abort()
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if err := sw.close(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// ReadShard implements Codec, via the strict decoder: a recio shard
// with any damaged byte is an error, never a silently shorter stream.
func (ColumnarCodec[T]) ReadShard(path string) (*ShardFile[T], error) {
	return readRecShard[T](path)
}

// shardWriter streams records into one columnar recio file. The file is
// created at the first record, whose column mapping becomes the header's
// field map; a shard that gets no record takes the zero value's at
// close. Every `every` records the open segment seals: with durable set
// through Checkpoint (written and fsynced, the resume point), otherwise
// through Flush (handed to the compression pool; Close barriers once).
type shardWriter[T any] struct {
	path    string
	hdr     recio.Header
	opts    recio.Options
	every   int
	durable bool

	w  *recio.Writer
	fh *os.File
}

func (s *shardWriter[T]) open(first *T) error {
	cr, err := columnarOf(first)
	if err != nil {
		return err
	}
	hdr := s.hdr
	hdr.Layout = recio.LayoutColumns
	hdr.Fields = recio.FieldsSpec(cr.ColumnFields())
	s.w, s.fh, err = recio.Create(s.path, hdr, s.opts)
	return err
}

func (s *shardWriter[T]) append(v *T) error {
	if s.w == nil {
		if err := s.open(v); err != nil {
			return err
		}
	}
	cr, err := columnarOf(v)
	if err != nil {
		return err
	}
	if err := s.w.AppendRow(cr.ColumnValues()); err != nil {
		return err
	}
	if s.w.Pending() < s.every {
		return nil
	}
	if s.durable {
		return s.w.Checkpoint()
	}
	return s.w.Flush()
}

// close writes what is pending plus the index trailer and closes the
// file, creating it first for a shard that got no record.
func (s *shardWriter[T]) close() error {
	if s.w == nil {
		var z T
		if err := s.open(&z); err != nil {
			return err
		}
	}
	if err := s.w.Close(); err != nil {
		s.fh.Close()
		return err
	}
	return s.fh.Close()
}

// abort releases the file after a failed write, keeping what the last
// checkpoint made durable.
func (s *shardWriter[T]) abort() {
	if s.fh != nil {
		s.fh.Close()
	}
}

// readRecShard loads one columnar .rec shard file and validates it.
func readRecShard[T any](path string) (*ShardFile[T], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hdr, cols, err := recio.DecodeColumns(data)
	if errors.Is(err, recio.ErrLayout) {
		return nil, fmt.Errorf("%s:1: %w", path, errRowLayout)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var z T
	cz, err := columnarOf(&z)
	if err != nil {
		return nil, fmt.Errorf("%s:1: %w", path, err)
	}
	// A narrower file than T's fixed columns would index past the row.
	if len(cols) < len(cz.ColumnFields()) {
		return nil, fmt.Errorf("%s:1: field map %q is narrower than record type %T's", path, hdr.Fields, z)
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	f := shardFileOf[T](path, hdr, n)
	row := make([]uint64, len(cols))
	for i := range f.Records {
		for j, col := range cols {
			row[j] = col[i]
		}
		any(&f.Records[i]).(ColumnarRecord).SetColumnValues(row)
	}
	if n > 0 {
		cz, _ = columnarOf(&f.Records[0])
	}
	if want := recio.FieldsSpec(cz.ColumnFields()); want != hdr.Fields {
		return nil, fmt.Errorf("%s:1: field map %q, but record type %T maps to %q", path, hdr.Fields, z, want)
	}
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("%s:1: %w", path, err)
	}
	return f, nil
}

// shardFileOf maps a recio header back onto ShardFile metadata, with n
// zero records for the decoder to fill in place.
func shardFileOf[T any](path string, hdr recio.Header, n int) *ShardFile[T] {
	return &ShardFile[T]{
		Experiment:   hdr.Experiment,
		Cells:        hdr.Cells,
		Groups:       hdr.Groups,
		Shard:        hdr.Shard,
		Shards:       hdr.Shards,
		CellLo:       hdr.CellLo,
		CellHi:       hdr.CellHi,
		MatrixDigest: hdr.MatrixDigest,
		Path:         path,
		Line:         1, // the header frame opens the file
		Records:      make([]T, n),
	}
}

// recioHeader maps ShardFile metadata onto the recio file header.
func recioHeader[T any](f *ShardFile[T]) recio.Header {
	return recio.Header{
		Experiment:   f.Experiment,
		Cells:        f.Cells,
		Groups:       f.Groups,
		Shard:        f.Shard,
		Shards:       f.Shards,
		CellLo:       f.CellLo,
		CellHi:       f.CellHi,
		MatrixDigest: f.MatrixDigest,
	}
}

// ReadShardColumn reads one named column of a recio shard file without
// inflating its sibling columns — the fast path for reducers that fold a
// single field. The returned values are in cell order; fields declared
// KindFloat arrive as float64 bits.
func ReadShardColumn(path, field string) ([]uint64, error) {
	return recio.ReadColumnFile(path, field)
}
