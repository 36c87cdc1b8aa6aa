// The matrix runtime: target×attack×policy workloads flattened into one
// global cell index space, sharded into contiguous index ranges, solved
// in parallel on solvers taken from the policies' idle lists (warm across
// runs), and reduced as an in-order stream. A shard is the unit of both
// in-process concurrency and multi-process splitting (`-shard i/n` on the
// scan CLIs); because shard outputs are index-ordered record slices over
// an exact tiling of the cell space, merging them reproduces the unsharded
// stream bit-for-bit — the SHA-256 digest contract holds at any worker
// AND shard count.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/bgpsim/bgpsim/internal/core"
)

// Matrix describes a target×attack×policy workload as Groups contiguous
// groups of cells. Group g holds Size(g) attacks, all solved under
// Policy(g); Job(g, k) yields the k-th attack of group g. Cells are
// numbered group-major — group 0's cells first, then group 1's — and that
// global cell order is the workload order every reducer observes. All
// three callbacks are called from multiple workers and must be pure
// reads.
type Matrix struct {
	Groups int
	Size   func(g int) int
	Policy func(g int) *core.Policy
	Job    func(g, k int) (core.Attack, core.Defense)
	// Ident is what the extractor reads beyond the cells — probe sets,
	// thresholds — encoded by the experiment. MatrixDigest covers it, so
	// shards measured differently refuse to merge; a matrix without one
	// hashes exactly as its cells alone do.
	Ident []byte
}

// offsets returns the group→first-cell prefix sums (length Groups+1);
// offsets[Groups] is the total cell count.
func (m Matrix) offsets() []int {
	off := make([]int, m.Groups+1)
	for g := 0; g < m.Groups; g++ {
		off[g+1] = off[g] + m.Size(g)
	}
	return off
}

// Cells returns the total number of matrix cells.
func (m Matrix) Cells() int {
	n := 0
	for g := 0; g < m.Groups; g++ {
		n += m.Size(g)
	}
	return n
}

// ShardSel selects how a matrix's cell space is split. The zero value
// means unsharded. Shards > 1 with Shard in [0, Shards) runs only that
// shard — the multi-process `-shard i/n` path. Shards > 1 with Shard < 0
// runs every shard concurrently in one process.
type ShardSel struct {
	Shard  int
	Shards int
}

// AllShards selects an in-process run of all n shards.
func AllShards(n int) ShardSel { return ShardSel{Shard: -1, Shards: n} }

// OneShard selects shard i of n for a single-process partial run.
func OneShard(i, n int) ShardSel { return ShardSel{Shard: i, Shards: n} }

// ParseShardSel parses the CLI "i/n" form ("" = unsharded).
func ParseShardSel(s string) (ShardSel, error) {
	if s == "" {
		return ShardSel{}, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return ShardSel{}, fmt.Errorf("shard selector %q: want i/n, e.g. 0/4", s)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return ShardSel{}, fmt.Errorf("shard selector %q: bad shard index: %v", s, err)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return ShardSel{}, fmt.Errorf("shard selector %q: bad shard count: %v", s, err)
	}
	if n < 1 || i < 0 || i >= n {
		return ShardSel{}, fmt.Errorf("shard selector %q: need 0 <= i < n", s)
	}
	return ShardSel{Shard: i, Shards: n}, nil
}

// String renders the selector in the CLI "i/n" form.
func (s ShardSel) String() string {
	if s.Shards <= 1 {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Shard, s.Shards)
}

// ShardRange returns the half-open cell range [lo, hi) owned by shard sh
// of shards over n cells: contiguous, near-equal ranges that tile [0, n)
// exactly. Sharding is by cells, not groups, so a matrix with one huge
// group (a detector evaluation) still splits evenly.
func ShardRange(n, sh, shards int) (lo, hi int) {
	return sh * n / shards, (sh + 1) * n / shards
}

// MatrixOptions tune one matrix run.
type MatrixOptions struct {
	// Workers bounds total solve parallelism across all in-process
	// shards; 0 means GOMAXPROCS.
	Workers int
	// Window overrides the per-shard reorder-window capacity; 0 sizes it
	// from the shard's worker count.
	Window int
	// Sel splits the cell space; the zero value runs unsharded.
	Sel ShardSel
	// Progress, when non-nil, is called once per completed cell with the
	// running count over every cell this run covers. Serialized, but in
	// completion order — reporting only, never results.
	Progress func(done, total int)
}

// shardError tags a cell-level failure with its global cell index so a
// multi-shard run can report the lowest-indexed error deterministically,
// matching MapLocal's lowest-index-first contract within a shard.
type shardError struct {
	cell int
	err  error
}

func (e *shardError) Error() string { return e.err.Error() }
func (e *shardError) Unwrap() error { return e.err }

// RunMatrix solves the selected shards of a matrix, streaming each
// shard's records in cell order into the reducer reducerFor builds for
// it. reducerFor is called on the caller's goroutine, once per covered
// shard, before any solving starts; each shard's reducer then receives
// Emit(cell, rec) for exactly its [cellLo, cellHi) range in increasing
// order followed by one Finish. extract runs concurrently on the workers
// and must compress the transient outcome into a self-contained record.
//
// This is the low-level entry point used for partial (single-shard) runs
// whose output is persisted via WriteShards; RunMatrixReduce is the
// whole-matrix form that feeds one final reducer.
func RunMatrix[T any](m Matrix, opts MatrixOptions, extract func(g, k int, o *core.Outcome) T, reducerFor func(shard, cellLo, cellHi int) Reducer[T]) error {
	off := m.offsets()
	cells := off[m.Groups]
	shards := opts.Sel.Shards
	if shards < 1 {
		shards = 1
	}
	list := make([]int, 0, shards)
	if opts.Sel.Shard >= 0 && shards > 1 {
		if opts.Sel.Shard >= shards {
			return fmt.Errorf("sweep: shard %d out of range (shards=%d)", opts.Sel.Shard, shards)
		}
		list = append(list, opts.Sel.Shard)
	} else {
		for s := 0; s < shards; s++ {
			list = append(list, s)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	covered := 0
	for _, s := range list {
		lo, hi := ShardRange(cells, s, shards)
		covered += hi - lo
	}
	var prog func(done, total int)
	if opts.Progress != nil {
		// One counter across all shards: MapLocal's per-shard counts are
		// ignored in favour of a shared completion count.
		var pmu sync.Mutex
		pdone := 0
		user := opts.Progress
		prog = func(_, _ int) {
			pmu.Lock()
			pdone++
			user(pdone, covered)
			pmu.Unlock()
		}
	}

	if len(list) == 1 {
		s := list[0]
		lo, hi := ShardRange(cells, s, shards)
		return unwrapShardErr(runShard(m, off, lo, hi, workers, opts.Window, prog, reducerFor(s, lo, hi), extract))
	}

	// All shards in one process: divide the worker budget, run shards
	// concurrently. Each shard's stream is independent; determinism needs
	// only per-shard cell order, which the per-shard windows provide.
	type job struct {
		shard, lo, hi, workers int
		red                    Reducer[T]
	}
	jobs := make([]job, len(list))
	for i, s := range list {
		lo, hi := ShardRange(cells, s, shards)
		w := workers / len(list)
		if i < workers%len(list) {
			w++
		}
		if w < 1 {
			w = 1
		}
		jobs[i] = job{shard: s, lo: lo, hi: hi, workers: w, red: reducerFor(s, lo, hi)}
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := jobs[i]
			errs[i] = runShard(m, off, j.lo, j.hi, j.workers, opts.Window, prog, j.red, extract)
		}(i)
	}
	wg.Wait()

	// Report the lowest-celled failure so the error does not depend on
	// which shard's goroutine lost the race.
	var first error
	firstCell := -1
	for _, e := range errs {
		if e == nil {
			continue
		}
		var se *shardError
		if errors.As(e, &se) {
			if firstCell < 0 || se.cell < firstCell {
				first, firstCell = e, se.cell
			}
		} else if first == nil {
			first = e
		}
	}
	return unwrapShardErr(first)
}

func unwrapShardErr(err error) error {
	var se *shardError
	if errors.As(err, &se) {
		return se.err
	}
	return err
}

// batchKey is what the cells of one lane solve share: a group (hence a
// policy) and everything of the cell but its attacker.
type batchKey struct {
	group, target int
	kind          core.AttackKind
	subPrefix     bool
	def           core.Defense
}

// batchStarts cuts cells [lo, hi) into the runs runShard solves at once:
// maximal runs of at most core.LaneWidth consecutive cells with one
// batchKey. Run b is [starts[b], starts[b+1]); widest is the longest.
func batchStarts(m Matrix, off []int, lo, hi int) (starts []int, widest int) {
	var cur batchKey
	g := sort.SearchInts(off, lo+1) - 1
	for cell := lo; cell < hi; cell++ {
		for cell >= off[g+1] {
			g++
		}
		at, def := m.Job(g, cell-off[g])
		key := batchKey{g, at.Target, at.Kind, at.SubPrefix, def}
		if len(starts) == 0 || key != cur || cell-starts[len(starts)-1] == core.LaneWidth {
			starts, cur = append(starts, cell), key
		}
	}
	starts = append(starts, hi)
	for b := 1; b < len(starts); b++ {
		widest = max(widest, starts[b]-starts[b-1])
	}
	return starts, widest
}

// runShard solves cells [lo, hi) and delivers them in order to red
// through a bounded reorder window; on success it also calls red.Finish.
// Workers take whole batches (batchStarts): a run of two or more cells is
// one core.Solver.SolveLanes whose lanes go to extract one by one, a lone
// cell one SolveDefense — extract cannot tell which. Each worker takes its
// solvers from the policies' idle lists, and every one goes back once the
// workers are done, failed run or not. A solve failure aborts the window
// before returning so workers blocked on a full window are released
// (cancellation never deadlocks).
func runShard[T any](m Matrix, off []int, lo, hi, workers, window int, prog func(done, total int), red Reducer[T], extract func(g, k int, o *core.Outcome) T) error {
	n := hi - lo
	if n <= 0 {
		red.Finish()
		return nil
	}
	starts, widest := batchStarts(m, off, lo, hi)
	opts := Options{Workers: workers}
	cap := window
	if cap <= 0 {
		// Room for whole batches: a worker puts a batch's records back to
		// back, and would otherwise wait on the head's worker mid-batch.
		cap = widest * defaultWindow(opts.workers(len(starts)-1))
	}
	if cap > n {
		cap = n
	}
	win := NewWindow(lo, hi, cap, red.Emit)
	var (
		cachesMu sync.Mutex
		caches   []map[*core.Policy]*core.Solver
	)
	err := MapLocal(len(starts)-1, opts,
		// Per-worker solver cache keyed by policy identity: a worker that
		// crosses a group boundary keeps one warm solver per distinct
		// policy, taken from that policy's idle list on first use.
		func() map[*core.Policy]*core.Solver {
			cache := make(map[*core.Policy]*core.Solver, 2)
			cachesMu.Lock()
			caches = append(caches, cache)
			cachesMu.Unlock()
			return cache
		},
		func(cache map[*core.Policy]*core.Solver, b int) error {
			cell, width := starts[b], starts[b+1]-starts[b]
			g := sort.SearchInts(off, cell+1) - 1
			k := cell - off[g]
			pol := m.Policy(g)
			s := cache[pol]
			if s == nil {
				s = pol.AcquireSolver()
				cache[pol] = s
			}
			at, def := m.Job(g, k)
			fail := func(lane int, err error) error {
				win.Abort()
				at, _ := m.Job(g, k+lane)
				return &shardError{cell: cell + lane, err: fmt.Errorf("matrix cell %d (group %d attack %d, attacker %d → target %d): %w",
					cell+lane, g, k+lane, at.Attacker, at.Target, err)}
			}
			if width == 1 {
				o, err := s.SolveDefense(at, def)
				if err != nil {
					return fail(0, err)
				}
				win.Put(cell, extract(g, k, o))
			} else {
				var attackers [core.LaneWidth]int
				for i := range attackers[:width] {
					a, _ := m.Job(g, k+i)
					attackers[i] = a.Attacker
				}
				outs, err := s.SolveLanes(at.Target, attackers[:width], at.Kind, at.SubPrefix, def)
				if err != nil {
					var le *core.LaneError
					if errors.As(err, &le) {
						return fail(le.Lane, le.Err)
					}
					return fail(0, err)
				}
				for i := range outs {
					win.Put(cell+i, extract(g, k+i, &outs[i]))
				}
			}
			for i := 0; prog != nil && i < width; i++ {
				prog(0, 0) // RunMatrix's counter, once per cell
			}
			return nil
		})
	for _, cache := range caches {
		for pol, s := range cache { //bgplint:ignore maporder idle solvers are interchangeable; release order cannot change a result
			pol.ReleaseSolver(s)
		}
	}
	if err != nil {
		return err
	}
	red.Finish()
	return nil
}

// RunMatrixReduce solves the whole matrix and streams every cell's
// record, in global cell order, into the final reducers. Unsharded, the
// stream flows straight through a bounded window (memory stays O(window)
// plus whatever the reducers retain). With Sel = AllShards(n) the shards
// solve concurrently into per-shard collectors and the collected ranges
// replay in cell order afterwards — same stream, same digests, at the
// cost of buffering the shard outputs. A partial selection (Shard >= 0)
// is rejected: merging partial runs is WriteShards/MergeShards territory.
func RunMatrixReduce[T any](m Matrix, opts MatrixOptions, extract func(g, k int, o *core.Outcome) T, reds ...Reducer[T]) error {
	shards := opts.Sel.Shards
	if shards > 1 && opts.Sel.Shard >= 0 {
		return fmt.Errorf("sweep: RunMatrixReduce covers the full matrix; run shard %s via RunMatrix and merge with MergeShards", opts.Sel)
	}
	if shards <= 1 {
		final := Tee(reds...)
		return RunMatrix(m, opts, extract, func(_, _, _ int) Reducer[T] { return final })
	}
	parts := make([]*Collect[T], shards)
	err := RunMatrix(m, opts, extract, func(s, lo, hi int) Reducer[T] {
		parts[s] = &Collect[T]{Records: make([]T, 0, hi-lo)}
		return parts[s]
	})
	if err != nil {
		return err
	}
	final := Tee(reds...)
	idx := 0
	for _, p := range parts {
		for _, v := range p.Records {
			final.Emit(idx, v)
			idx++
		}
	}
	final.Finish()
	return nil
}

// RunReduce solves n attacks under one policy and streams the extracted
// per-attack records, in index order, into the reducers — the
// single-policy convenience over RunMatrixReduce.
func RunReduce[T any](pol *core.Policy, n int, job Job, opts Options, extract func(i int, o *core.Outcome) T, reds ...Reducer[T]) error {
	m := Matrix{
		Groups: 1,
		Size:   func(int) int { return n },
		Policy: func(int) *core.Policy { return pol },
		Job:    func(_, k int) (core.Attack, core.Defense) { return job(k) },
	}
	return RunMatrixReduce(m, MatrixOptions{Workers: opts.Workers, Progress: opts.Progress},
		func(_, k int, o *core.Outcome) T { return extract(k, o) }, reds...)
}
