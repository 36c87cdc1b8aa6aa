// Package sweep is the repository's shared deterministic parallel solve
// runtime. Every experiment layer — the hijack vulnerability sweeps, the
// deployment ladders, the detector evaluations and greedy probe placement,
// the hole/sub-prefix/validation studies, the Section VII regional measure
// — maps some list of attacks through a core.Solver (or, for S*BGP's
// secure ranks and PGBGP's depref, a core.Engine per MapLocal worker) and
// aggregates per-attack measurements. This package owns that map exactly
// once: worker-pool setup, per-worker solver reuse, index-ordered result
// writes and first-error propagation with cancellation.
//
// Determinism contract (DESIGN.md §5 "Sweep runtime", §7): a run's results
// are a pure function of its inputs, bit-identical at any worker count and
// any GOMAXPROCS. The kernel guarantees this by construction — MapLocal
// hands each index out exactly once and callers write into pre-sized,
// index-disjoint slots; the solver-owning runs (matrix.go) extract one
// record per cell on the workers and deliver the records to a Reducer in
// cell order through a bounded window — so goroutine scheduling never
// orders anything observable, and order-sensitive aggregation (histograms,
// appends, map updates) belongs in the reducer.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/bgpsim/bgpsim/internal/core"
)

// Options tune one parallel run.
type Options struct {
	// Workers bounds solve parallelism; 0 means GOMAXPROCS.
	Workers int
}

// workers resolves the effective worker count for n items.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MapLocal runs fn(w, i) for every i in [0, n) across the configured
// workers. Each worker calls local() once and threads the value through
// every fn it runs, so expensive reusable buffers (a core.Solver, scratch
// slices) are allocated once per worker instead of once per item. Indices
// are handed out dynamically for load balance; determinism is the caller's
// index-disjoint writes, not the schedule. On error the run cancels:
// in-flight items finish, unstarted items never run, and the
// lowest-indexed observed error is returned.
//
//bgplint:hotpath the worker dispatch loop runs once per sweep cell
func MapLocal[W any](n int, opts Options, local func() W, fn func(w W, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := opts.workers(n)
	if workers == 1 {
		w := local()
		for i := 0; i < n; i++ {
			if err := fn(w, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64 // next index to hand out
		stop atomic.Bool  // set on first error: cancel unstarted work

		mu       sync.Mutex // guards firstErr/errIdx
		firstErr error
		errIdx   int
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := local()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(st, i); err != nil {
					mu.Lock()
					// Keep the lowest-indexed error so the reported failure
					// does not depend on scheduling when one item fails.
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Job yields the idx-th attack of a run and the defense deployment it
// runs under (the zero Defense = no prevention deployed). Job is called
// from multiple workers and must be a pure read.
type Job func(idx int) (core.Attack, core.Defense)
