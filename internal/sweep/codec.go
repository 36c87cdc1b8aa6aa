// Pluggable shard-file formats. A Codec turns one ShardFile into bytes
// on disk and back; the CLI's -format flag selects one by name. Two
// codecs exist: "json" (the human-readable indented interchange form)
// and "recio" (the compressed, checkpointed binary record store of
// internal/recio, one column per record field: columnar.go). Both
// round-trip records exactly — json through encoding/json marshaling of
// T, recio through the type's own column mapping — so the merged stream,
// and therefore every digest the tools print, is bit-identical whichever
// format carried the shards.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Shard format names accepted by CodecFor and the tools' -format flag.
const (
	FormatJSON  = "json"
	FormatRecio = "recio"
)

// wholeShardSegment is the records-per-segment cadence of every recio
// write: small enough to keep the writer's compression pool fed with
// independent segments, large enough that gzip still sees long runs. A
// persisted shard checkpoints (writes and fsyncs) each segment as it
// seals, so a kill loses at most one segment of solving — about 1.5 s of
// paper-scale Figure 7 on one worker. Measured on the 2,000-AS persisted
// ladder (2 vCPUs), 256-record checkpoints cost a fifth of its
// throughput; 2,048-record ones stay within run-to-run noise.
const wholeShardSegment = 2048

// Codec is one named on-disk shard-file format.
type Codec[T any] interface {
	// Name is the -format flag value selecting this codec.
	Name() string
	// Ext is the filename extension (without dot) the codec owns.
	Ext() string
	// WriteShard persists one complete shard file to path.
	WriteShard(path string, f *ShardFile[T]) error
	// ReadShard loads and validates one shard file from path.
	ReadShard(path string) (*ShardFile[T], error)
}

// CodecFor resolves a -format flag value with an explicit gzip level
// (0 = recio.DefaultLevel; json ignores it). The recio format
// additionally requires T to carry a column mapping — rejected here, at
// selection time, rather than when the first shard hits the disk.
func CodecFor[T any](name string, level int) (Codec[T], error) {
	switch name {
	case "", FormatJSON:
		return JSONCodec[T]{}, nil
	case FormatRecio:
		var z T
		if _, err := columnarOf(&z); err != nil {
			return nil, fmt.Errorf("format %q: %w", name, err)
		}
		return ColumnarCodec[T]{Level: level}, nil
	}
	return nil, CheckFormat(name)
}

// CheckFormat validates a -format flag value by name alone, without
// binding a record type — the CLI's flag check, where T is not yet in
// scope and per-type constraints (columnar mappings) cannot apply.
func CheckFormat(name string) error {
	if name == FormatJSON || name == FormatRecio {
		return nil
	}
	return fmt.Errorf("unknown shard format %q (want %q or %q)", name, FormatJSON, FormatRecio)
}

// ShardPath names shard files "<tag>.<i>of<n>.<ext>" inside dir — the
// layout both ReadShardDir and the tools' -merge mode glob for.
func ShardPath(dir, tag string, shard, shards int, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%dof%d.%s", tag, shard, shards, ext))
}

// JSONCodec is the original indented-JSON shard format.
type JSONCodec[T any] struct{}

// Name implements Codec.
func (JSONCodec[T]) Name() string { return FormatJSON }

// Ext implements Codec.
func (JSONCodec[T]) Ext() string { return "json" }

// WriteShard implements Codec.
func (JSONCodec[T]) WriteShard(path string, f *ShardFile[T]) error {
	return WriteShardFileTo(path, f)
}

// ReadShard implements Codec. Decode failures and digest mismatches are
// reported with the file line they occur on.
func (JSONCodec[T]) ReadShard(path string) (*ShardFile[T], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ShardFile[T]
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s:%d: decode shard file: %w", path, lineAt(data, dec.InputOffset()), err)
	}
	f.Path = path
	f.Line = digestLine(data)
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("%s:1: %w", path, err)
	}
	return &f, nil
}

// lineAt converts a byte offset into a 1-based line number.
func lineAt(data []byte, off int64) int {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	return 1 + bytes.Count(data[:off], []byte("\n"))
}

// digestLine locates the matrix_digest field so mismatch diagnostics
// can point at the exact line; a file without one reports line 1.
func digestLine(data []byte) int {
	idx := bytes.Index(data, []byte(`"matrix_digest"`))
	if idx < 0 {
		return 1
	}
	return lineAt(data, int64(idx))
}

// ReadShardAuto loads one shard file, dispatching on its extension:
// ".rec" is recio, everything else the JSON codec.
func ReadShardAuto[T any](path string) (*ShardFile[T], error) {
	if filepath.Ext(path) == ".rec" {
		return readRecShard[T](path)
	}
	return JSONCodec[T]{}.ReadShard(path)
}

// ReadShardDir loads every shard file of one experiment tag from dir,
// whichever formats they were written in. Formats may be mixed across
// shards — both decode to the same record stream — and MergeShards
// still validates the set tiles the cell space and shares one matrix
// digest.
func ReadShardDir[T any](dir, tag string) ([]*ShardFile[T], error) {
	var paths []string
	for _, ext := range []string{"json", "rec"} {
		got, err := filepath.Glob(filepath.Join(dir, tag+".*of*."+ext))
		if err != nil {
			return nil, err
		}
		paths = append(paths, got...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("merge %s: no %s.*of*.{json,rec} shard files in %s", tag, tag, dir)
	}
	sort.Strings(paths)
	return ReadShardFiles[T](paths)
}
