// Mergeable shard output: the on-disk handoff for multi-process matrix
// runs. Each `-shard i/n` process writes one ShardFile holding its cell
// range's records in cell order; a merge run reads any number of shard
// files (in any order), validates that they tile the cell space exactly,
// and replays the records as the single in-order stream the reducers
// would have seen unsharded. Records round-trip through encoding/json —
// Go prints float64 with the shortest exact representation, so merged
// digests stay bit-identical to single-process runs.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/bgpsim/bgpsim/internal/core"
)

// ShardFile is one shard's persisted slice of a matrix run.
type ShardFile[T any] struct {
	// Experiment names the workload (e.g. "fig2-vulnerability") so a
	// merge refuses to mix shards of different runs.
	Experiment string `json:"experiment"`
	// Cells and Groups pin the matrix dimensions the shard was cut from.
	Cells  int `json:"cells"`
	Groups int `json:"groups"`
	// Shard/Shards echo the -shard i/n selection; CellLo/CellHi is the
	// half-open cell range the records cover, in cell order.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	CellLo int `json:"cell_lo"`
	CellHi int `json:"cell_hi"`
	// MatrixDigest is the SHA-256 workload identity (MatrixDigest(m)) of
	// the matrix the shard was solved from; merge refuses shards whose
	// digest is missing or disagrees with the workload rebuilt from the
	// current flags.
	MatrixDigest string `json:"matrix_digest,omitempty"`
	Records      []T    `json:"records"`

	// Path/Line locate the file the shard was loaded from (Line points
	// at the matrix_digest field for JSON shards, 1 for recio headers);
	// set by readers, never serialized, used for merge diagnostics.
	Path string `json:"-"`
	Line int    `json:"-"`
}

// validate checks a decoded shard file's internal consistency.
func (f *ShardFile[T]) validate() error {
	if f.CellLo < 0 || f.CellHi > f.Cells || f.CellLo > f.CellHi {
		return fmt.Errorf("shard %d/%d: cell range [%d,%d) outside [0,%d)",
			f.Shard, f.Shards, f.CellLo, f.CellHi, f.Cells)
	}
	if len(f.Records) != f.CellHi-f.CellLo {
		return fmt.Errorf("shard %d/%d: %d records for cell range [%d,%d)",
			f.Shard, f.Shards, len(f.Records), f.CellLo, f.CellHi)
	}
	return nil
}

// loc renders the shard's source location for diagnostics: "path:line"
// when the shard came from a file, a shard-selector description when it
// was built in memory.
func (f *ShardFile[T]) loc() string {
	if f.Path != "" {
		line := f.Line
		if line < 1 {
			line = 1
		}
		return fmt.Sprintf("%s:%d", f.Path, line)
	}
	return fmt.Sprintf("shard %d/%d", f.Shard, f.Shards)
}

// WriteShardFile encodes one shard file as indented JSON.
func WriteShardFile[T any](w io.Writer, f *ShardFile[T]) error {
	if len(f.Records) != f.CellHi-f.CellLo {
		return fmt.Errorf("shard %d/%d: %d records for cell range [%d,%d)",
			f.Shard, f.Shards, len(f.Records), f.CellLo, f.CellHi)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadShardFile decodes one shard file and checks its internal
// consistency.
func ReadShardFile[T any](r io.Reader) (*ShardFile[T], error) {
	var f ShardFile[T]
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("decode shard file: %w", err)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// RunShard solves one shard of a matrix and returns it as a ShardFile
// ready for WriteShardFile; opts.Sel selects the shard (zero for an
// unsharded 0-of-1 run).
func RunShard[T any](m Matrix, opts MatrixOptions, experiment string, extract func(g, k int, o *core.Outcome) T) (*ShardFile[T], error) {
	cells := m.Cells()
	shard, shards, lo, hi, err := opts.Sel.span(cells)
	if err != nil {
		return nil, err
	}
	out := &ShardFile[T]{
		Experiment:   experiment,
		Cells:        cells,
		Groups:       m.Groups,
		Shard:        shard,
		Shards:       shards,
		CellLo:       lo,
		CellHi:       hi,
		MatrixDigest: MatrixDigest(m),
	}
	red := ReduceFunc[T]{EmitFn: func(_ int, v T) { out.Records = append(out.Records, v) }}
	if err := runShard(m, lo, hi, opts.Workers, red, extract); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeShards replays shard files as one in-order stream into the
// reducers. Input order is free — shards are sorted by cell range — but
// the set must belong to one experiment and tile [0, Cells) exactly:
// no gap, no overlap, no missing shard. The replayed stream is
// indistinguishable from an unsharded run's.
//
// wantDigest is the MatrixDigest of the workload the merging process
// rebuilt from its own flags; any shard carrying a different digest was
// produced from a different world/seed/defaults and aborts the merge
// with a file:line diagnostic. Every writer stamps a digest, so a shard
// without one — or an empty wantDigest — aborts the merge the same way:
// nothing would tie the shard to the workload.
func MergeShards[T any](files []*ShardFile[T], experiment, wantDigest string, reds ...Reducer[T]) error {
	if len(files) == 0 {
		return fmt.Errorf("merge %s: no shard files", experiment)
	}
	sorted := make([]*ShardFile[T], len(files))
	copy(sorted, files)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].CellLo < sorted[j].CellLo })
	ref := sorted[0]
	want := 0
	for _, f := range sorted {
		if f.Experiment != experiment {
			return fmt.Errorf("merge %s: shard %d/%d is from experiment %q", experiment, f.Shard, f.Shards, f.Experiment)
		}
		switch {
		case wantDigest == "":
			return fmt.Errorf("%s: merge %s: no workload digest to check shard %d/%d against",
				f.loc(), experiment, f.Shard, f.Shards)
		case f.MatrixDigest == "":
			return fmt.Errorf("%s: merge %s: shard %d/%d has no matrix digest, so nothing ties it to the workload rebuilt from the current flags",
				f.loc(), experiment, f.Shard, f.Shards)
		case f.MatrixDigest != wantDigest:
			return fmt.Errorf("%s: merge %s: shard %d/%d matrix digest %.12s… does not match the workload rebuilt from the current flags (%.12s…): different world, seed or defaults",
				f.loc(), experiment, f.Shard, f.Shards, f.MatrixDigest, wantDigest)
		}
		if f.Cells != ref.Cells || f.Groups != ref.Groups || f.Shards != ref.Shards {
			return fmt.Errorf("merge %s: shard %d/%d dimensions (%d cells, %d groups, %d shards) disagree with shard %d/%d (%d cells, %d groups, %d shards)",
				experiment, f.Shard, f.Shards, f.Cells, f.Groups, f.Shards, ref.Shard, ref.Shards, ref.Cells, ref.Groups, ref.Shards)
		}
		if f.CellLo != want {
			if f.CellLo < want {
				return fmt.Errorf("merge %s: shards overlap at cell %d", experiment, f.CellLo)
			}
			return fmt.Errorf("merge %s: missing cells [%d,%d)", experiment, want, f.CellLo)
		}
		want = f.CellHi
	}
	if want != ref.Cells {
		return fmt.Errorf("merge %s: missing cells [%d,%d)", experiment, want, ref.Cells)
	}
	final := Tee(reds...)
	idx := 0
	for _, f := range sorted {
		for i := range f.Records {
			final.Emit(idx, f.Records[i])
			idx++
		}
	}
	final.Finish()
	return nil
}

// ReadShardFiles loads a list of shard file paths for MergeShards,
// dispatching each to its format's codec by extension.
func ReadShardFiles[T any](paths []string) ([]*ShardFile[T], error) {
	files := make([]*ShardFile[T], 0, len(paths))
	for _, p := range paths {
		f, err := ReadShardAuto[T](p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// WriteShardFileTo writes one shard file to path, creating or truncating
// it.
func WriteShardFileTo[T any](path string, f *ShardFile[T]) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteShardFile(w, f); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
