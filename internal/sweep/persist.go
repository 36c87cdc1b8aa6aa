// Checkpointed shard persistence: PersistShard is the write side of a
// multi-process matrix run. In the json format it solves the shard in
// memory and writes one indented file at the end. In the recio format it
// streams records into a columnar shard file as cells complete,
// checkpointing each segment as it seals — and with Resume set it
// recovers the clean prefix of a crashed run, validates the file's header
// against the freshly rebuilt workload, and continues solving from the
// first missing cell instead of from zero.
package sweep

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/recio"
)

// ShardStore says where and how PersistShard writes its shard file.
type ShardStore struct {
	// Dir is the shard directory (created if missing).
	Dir string
	// Format is a codec name (FormatJSON, FormatRecio); "" means json.
	Format string
	// Resume continues a previously interrupted recio run in place of
	// starting over. Invalid with the json format — json shards are
	// written whole at the end and leave nothing to resume.
	Resume bool
	// CheckpointEvery is the recio checkpoint cadence in records; 0
	// means one checkpoint per whole-shard segment (wholeShardSegment).
	CheckpointEvery int
	// Level is the gzip compression level for the recio format,
	// gzip.BestSpeed (1) through gzip.BestCompression (9); 0 means
	// recio.DefaultLevel. The json format ignores it.
	Level int
	// Tool, Seed and Workers are provenance recorded in the recio
	// header — informational only, never validated on resume.
	Tool    string
	Seed    int64
	Workers int
}

// ShardReport summarizes one PersistShard call for the caller's logs.
type ShardReport struct {
	Path           string
	Format         string
	CellLo, CellHi int
	// Resumed counts records recovered from a previous run's clean
	// prefix; Solved counts cells computed (and persisted) this run.
	Resumed int
	Solved  int
	// SeekResume reports that the resumed prefix was counted and
	// CRC-verified through the file's index trailer (a seek) rather than
	// by inflating and replaying it (the scan path).
	SeekResume bool
}

// PersistShard solves one shard of the matrix and persists it to the
// store, returning where the file went and how much of it was recovered
// versus solved. opts.Sel selects the shard (zero for an unsharded 0-of-1
// run), exactly as for RunShard.
func PersistShard[T any](m Matrix, opts MatrixOptions, experiment string, extract func(g, k int, o *core.Outcome) T, store ShardStore) (ShardReport, error) {
	var rep ShardReport
	codec, err := CodecFor[T](store.Format, store.Level)
	if err != nil {
		return rep, err
	}
	shard, shards, lo, hi, err := opts.Sel.span(m.Cells())
	if err != nil {
		return rep, err
	}
	if store.Resume && codec.Name() != FormatRecio {
		return rep, fmt.Errorf("sweep: -resume needs the recio format: %s shards are written whole at the end and leave nothing to resume", codec.Name())
	}
	if store.Level != 0 && codec.Name() == FormatJSON {
		return rep, fmt.Errorf("sweep: -level only applies to the recio format; json shards are not compressed")
	}
	if err := os.MkdirAll(store.Dir, 0o755); err != nil {
		return rep, err
	}
	rep = ShardReport{
		Path:   ShardPath(store.Dir, experiment, shard, shards, codec.Ext()),
		Format: codec.Name(),
		CellLo: lo,
		CellHi: hi,
	}

	if codec.Name() == FormatRecio {
		return persistRecio(m, opts, experiment, extract, store, rep, shard, shards)
	}
	sf, err := RunShard(m, opts, experiment, extract)
	if err != nil {
		return rep, err
	}
	if err := codec.WriteShard(rep.Path, sf); err != nil {
		return rep, err
	}
	rep.Solved = hi - lo
	return rep, nil
}

// persistRecio streams the shard's records into a checkpointed columnar
// recio file, optionally resuming a crashed run's clean prefix.
func persistRecio[T any](m Matrix, opts MatrixOptions, experiment string, extract func(g, k int, o *core.Outcome) T, store ShardStore, rep ShardReport, shard, shards int) (ShardReport, error) {
	lo, hi := rep.CellLo, rep.CellHi
	every := store.CheckpointEvery
	if every <= 0 {
		every = wholeShardSegment
	}
	sw := &shardWriter[T]{
		path: rep.Path,
		hdr: recio.Header{
			Experiment:   experiment,
			Cells:        m.Cells(),
			Groups:       m.Groups,
			Shard:        shard,
			Shards:       shards,
			CellLo:       lo,
			CellHi:       hi,
			MatrixDigest: MatrixDigest(m),
			Tool:         store.Tool,
			Seed:         store.Seed,
			Workers:      store.Workers,
		},
		opts:    recio.Options{Level: store.Level},
		every:   every,
		durable: true,
	}

	done := 0
	if store.Resume {
		// RecoverStats seeks: with an intact index trailer the clean
		// prefix is counted and CRC-verified without inflating a segment;
		// files whose trailer a crash damaged fall back to the scan the
		// old replay path performed.
		rec, err := recio.RecoverStatsFile(rep.Path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume: first run of this shard.
		case err != nil:
			// Unreadable magic or header: the previous run died before
			// its first sync, so there is provably nothing to keep.
			// Starting fresh is exactly what the crashed run would redo.
		case rec.Header.Layout != recio.LayoutColumns:
			return rep, fmt.Errorf("%s:1: cannot resume: %w", rep.Path, errRowLayout)
		case !rec.Header.SameWorkload(sw.hdr):
			return rep, fmt.Errorf("%s:1: cannot resume: %s", rep.Path, rec.Header.DescribeMismatch(sw.hdr))
		case rec.Records > hi-lo:
			return rep, fmt.Errorf("%s:1: cannot resume: %d recovered records exceed the %d-cell range [%d,%d)",
				rep.Path, rec.Records, hi-lo, lo, hi)
		case rec.Records == hi-lo:
			// The previous run had already persisted every cell; leave the
			// file — body, trailer and all — untouched.
			rep.Resumed, rep.SeekResume = rec.Records, rec.ViaIndex
			return rep, nil
		default:
			done = rec.Records
			rep.SeekResume = rec.ViaIndex
			if sw.fh, err = os.OpenFile(rep.Path, os.O_RDWR, 0); err != nil {
				return rep, err
			}
			if err := sw.fh.Truncate(rec.CleanSize); err != nil {
				sw.abort()
				return rep, fmt.Errorf("%s: truncate to clean prefix: %w", rep.Path, err)
			}
			if _, err := sw.fh.Seek(rec.CleanSize, io.SeekStart); err != nil {
				sw.abort()
				return rep, fmt.Errorf("%s: %w", rep.Path, err)
			}
			// The recovered header's field map keeps governing the file:
			// AppendRow rejects a record of any other width.
			if sw.w, err = recio.ResumeWriter(sw.fh, sw.opts, rec); err != nil {
				sw.abort()
				return rep, fmt.Errorf("%s: %w", rep.Path, err)
			}
		}
	}
	rep.Resumed = done

	// The reducer is the file: records arrive in cell order from the
	// reorder window and append straight into the open segment, which is
	// checkpointed (written + fsynced) as it seals.
	var ioErr error
	red := ReduceFunc[T]{EmitFn: func(_ int, v T) {
		if ioErr != nil {
			return
		}
		if err := sw.append(&v); err != nil {
			ioErr = fmt.Errorf("%s: %w", rep.Path, err)
		}
	}}
	err := runShard(m, lo+done, hi, opts.Workers, red, extract)
	if err == nil {
		err = ioErr
	}
	if err != nil {
		// Best effort: the records already emitted are an in-order
		// prefix, so checkpointing them preserves the work for -resume.
		if ioErr == nil && sw.w != nil {
			_ = sw.w.Checkpoint()
		}
		sw.abort()
		return rep, err
	}
	if err := sw.close(); err != nil {
		return rep, fmt.Errorf("%s: %w", rep.Path, err)
	}
	rep.Solved = hi - lo - done
	return rep, nil
}
