// The matrix runtime: target×attack×policy workloads flattened into one
// global cell index space, sharded into contiguous index ranges, solved
// in parallel on solvers taken from the policies' idle lists (warm across
// runs), and reduced as an in-order stream. A run covers one cell range:
// the whole matrix, or one shard (`-shard i/n` on the scan CLIs, one
// process each). Because shard outputs are index-ordered record slices
// over an exact tiling of the cell space, merging them reproduces the
// unsharded stream bit-for-bit — the SHA-256 digest contract holds at any
// worker AND shard count.
package sweep

import (
	"errors"
	"fmt"
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

// ShardSel selects one contiguous slice of a matrix's cell space: shard
// Shard of Shards, the multi-process `-shard i/n` path. The zero value
// means unsharded, the whole matrix as shard 0 of 1.
type ShardSel struct {
	Shard  int
	Shards int
}

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

// span resolves the selection over a matrix of cells: the shard and shard
// count a shard file records (the zero value is shard 0 of 1) and the cell
// range [lo, hi) the run covers.
func (s ShardSel) span(cells int) (shard, shards, lo, hi int, err error) {
	shard, shards = s.Shard, max(1, s.Shards)
	if shard < 0 || shard >= shards {
		return 0, 0, 0, 0, fmt.Errorf("sweep: shard %d out of range (shards=%d)", s.Shard, s.Shards)
	}
	lo, hi = ShardRange(cells, shard, shards)
	return shard, shards, lo, hi, nil
}

// MatrixOptions tune one matrix run.
type MatrixOptions struct {
	// Workers bounds solve parallelism; 0 means GOMAXPROCS.
	Workers int
	// Sel picks the shard RunShard and PersistShard solve; the zero value
	// runs unsharded, the only selection RunMatrixReduce accepts.
	Sel ShardSel
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
func runShard[T any](m Matrix, lo, hi, workers int, red Reducer[T], extract func(g, k int, o *core.Outcome) T) error {
	n := hi - lo
	if n <= 0 {
		red.Finish()
		return nil
	}
	off := m.offsets()
	starts, widest := batchStarts(m, off, lo, hi)
	opts := Options{Workers: workers}
	// Room for whole batches: a worker puts a batch's records back to
	// back, and would otherwise wait on the head's worker mid-batch.
	win := NewWindow(lo, hi, min(n, widest*defaultWindow(opts.workers(len(starts)-1))), red.Emit)
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
				return fmt.Errorf("matrix cell %d (group %d attack %d, attacker %d → target %d): %w",
					cell+lane, g, k+lane, at.Attacker, at.Target, err)
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
// record, in global cell order, into the final reducers through a bounded
// window (memory stays O(window) plus whatever the reducers retain). A
// shard selection is rejected: a partial run goes through RunShard or
// PersistShard and merges with MergeShards.
func RunMatrixReduce[T any](m Matrix, opts MatrixOptions, extract func(g, k int, o *core.Outcome) T, reds ...Reducer[T]) error {
	_, shards, lo, hi, err := opts.Sel.span(m.Cells())
	if err != nil {
		return err
	}
	if shards > 1 {
		return fmt.Errorf("sweep: RunMatrixReduce covers the full matrix; run shard %s via RunShard and merge with MergeShards", opts.Sel)
	}
	return runShard(m, lo, hi, opts.Workers, Tee(reds...), extract)
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
	return RunMatrixReduce(m, MatrixOptions{Workers: opts.Workers},
		func(_, k int, o *core.Outcome) T { return extract(k, o) }, reds...)
}
