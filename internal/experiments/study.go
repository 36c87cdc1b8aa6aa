package experiments

import (
	"encoding/binary"
	"fmt"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/sweep"
)

// Experiment tags embedded in shard files and used to name them on disk.
const (
	TagFig2     = "fig2"
	TagFig3     = "fig3"
	TagFig4     = "fig4"
	TagFig5     = "fig5"
	TagFig6     = "fig6"
	TagFig7     = "fig7"
	TagHoles    = "holes"
	TagScenario = "scenario"
)

// Study is one sweep-backed experiment in every run shape: whole in one
// process (Run), one `-shard i/n` slice in memory (Shard) or persisted
// into a store (Persist), and the merge of such slices (Merge). Each
// shape rebuilds the same plan from the world and the experiment's
// config — same seeds, same defaulting, same matrix digest — so a merged
// result is bit-identical to Run at any worker and shard count. World and
// config must match between the shard and merge invocations: the matrix
// digest covers the cells and whatever else the extractor reads
// (sweep.Matrix.Ident), and MergeShards rejects slices of any other.
//
// R is the per-cell record a shard file carries, Out the rendered result.
type Study[R, Out any] struct {
	tag     string
	workers int
	plan    func(w *World) (*studyPlan[R, Out], error)
}

// studyPlan is one study rebuilt against one world.
type studyPlan[R, Out any] struct {
	matrix  sweep.Matrix
	extract func(g, k int, o *core.Outcome) R
	// reduce returns a fresh reducer over the in-order record stream and
	// the assembler that builds the result once the stream has finished.
	reduce func() (sweep.Reducer[R], func() Out)
}

// sweepPlan is the plan of a study assembled from the workload's
// per-configuration sweep results.
func sweepPlan[Out any](wl *hijack.Workload, assemble func([]*hijack.SweepResult) Out) *studyPlan[hijack.Record, Out] {
	return &studyPlan[hijack.Record, Out]{
		matrix:  wl.Matrix,
		extract: wl.Extract(),
		reduce: func() (sweep.Reducer[hijack.Record], func() Out) {
			results, red := wl.Results()
			return red, func() Out { return assemble(results) }
		},
	}
}

// probeIdent encodes, for sweep.Matrix.Ident, what a detection
// extractor reads beyond its cells: one setting (trigger semantics, a
// success threshold) and the probes of every set it counts.
func probeIdent(setting int, sets ...detect.ProbeSet) []byte {
	b := binary.AppendVarint(nil, int64(setting))
	for _, s := range sets {
		b = binary.AppendUvarint(b, uint64(len(s.Probes)))
		for _, p := range s.Probes {
			b = binary.AppendVarint(b, int64(p))
		}
	}
	return b
}

// Tag names the study's shard files.
func (s Study[R, Out]) Tag() string { return s.tag }

// Workers is the solve parallelism the study's config asks for (0 =
// GOMAXPROCS).
func (s Study[R, Out]) Workers() int { return s.workers }

// Run solves the whole matrix in one streaming pass.
func (s Study[R, Out]) Run(w *World) (Out, error) {
	var zero Out
	p, err := s.plan(w)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", s.tag, err)
	}
	red, out := p.reduce()
	if err := sweep.RunMatrixReduce(p.matrix, sweep.MatrixOptions{Workers: s.workers}, p.extract, red); err != nil {
		return zero, fmt.Errorf("%s: %w", s.tag, err)
	}
	return out(), nil
}

// Shard solves one slice of the matrix into an in-memory shard file.
func (s Study[R, Out]) Shard(w *World, sel sweep.ShardSel) (*sweep.ShardFile[R], error) {
	p, err := s.plan(w)
	if err != nil {
		return nil, fmt.Errorf("%s shard: %w", s.tag, err)
	}
	sf, err := sweep.RunShard(p.matrix, sweep.MatrixOptions{Workers: s.workers, Sel: sel}, s.tag, p.extract)
	if err != nil {
		return nil, fmt.Errorf("%s shard: %w", s.tag, err)
	}
	return sf, nil
}

// Persist solves one slice of the matrix straight into the store,
// streaming with checkpoint/resume when the store selects recio.
func (s Study[R, Out]) Persist(w *World, sel sweep.ShardSel, store sweep.ShardStore) (sweep.ShardReport, error) {
	p, err := s.plan(w)
	if err != nil {
		return sweep.ShardReport{}, fmt.Errorf("%s shard: %w", s.tag, err)
	}
	rep, err := sweep.PersistShard(p.matrix, sweep.MatrixOptions{Workers: s.workers, Sel: sel}, s.tag, p.extract, store)
	if err != nil {
		return rep, fmt.Errorf("%s shard: %w", s.tag, err)
	}
	return rep, nil
}

// Merge checks that the shard files tile the study's cell space and
// replays their records through the study's reducer.
func (s Study[R, Out]) Merge(w *World, files []*sweep.ShardFile[R]) (Out, error) {
	var zero Out
	p, err := s.plan(w)
	if err != nil {
		return zero, fmt.Errorf("%s merge: %w", s.tag, err)
	}
	red, out := p.reduce()
	if err := sweep.MergeShards(files, s.tag, sweep.MatrixDigest(p.matrix), red); err != nil {
		return zero, err
	}
	return out(), nil
}
