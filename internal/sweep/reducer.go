// Streaming reduction: the replacement for the repository's historical
// buffer-then-reduce pattern (`make([]T, n)` filled index-disjoint by
// observers, then a serial pass). A Reducer consumes measurements as an
// in-order stream instead, so a run's working memory is bounded by the
// reorder window — not by the workload size — which is what lets the
// paper-scale 42,697-AS × 8,000-attack matrices fit in memory.
//
// Contract (DESIGN.md §5 "Matrix runtime"): Emit is called exactly once
// per index, in strictly increasing index order, from one goroutine at a
// time; Finish is called exactly once after the last Emit. Because
// delivery is index-ordered by construction, a reducer may freely append,
// histogram, or update maps — the aggregation order is the workload
// order, bit-identical at any worker or shard count.
package sweep

import (
	"sync"
)

// Reducer consumes one run's extracted measurements as an in-order
// stream. Emit(idx, v) is called exactly once per index in strictly
// increasing index order, serially; Finish is called once after the last
// Emit and carries the "summary" step of the old serial reduce.
type Reducer[T any] interface {
	Emit(idx int, v T)
	Finish()
}

// ReduceFunc adapts plain functions to the Reducer interface. FinishFn
// may be nil.
type ReduceFunc[T any] struct {
	EmitFn   func(idx int, v T)
	FinishFn func()
}

// Emit implements Reducer.
func (r ReduceFunc[T]) Emit(idx int, v T) { r.EmitFn(idx, v) }

// Finish implements Reducer.
func (r ReduceFunc[T]) Finish() {
	if r.FinishFn != nil {
		r.FinishFn()
	}
}

// Tee fans one in-order stream out to several reducers, preserving the
// single-goroutine in-order contract for each.
func Tee[T any](rs ...Reducer[T]) Reducer[T] {
	if len(rs) == 1 {
		return rs[0]
	}
	return ReduceFunc[T]{
		EmitFn: func(idx int, v T) {
			for _, r := range rs {
				r.Emit(idx, v)
			}
		},
		FinishFn: func() {
			for _, r := range rs {
				r.Finish()
			}
		},
	}
}

// Collect buffers every record of the stream, index-ordered. It is the
// buffered end of the spectrum — the shard-file payload and the test
// reference — and deliberately scales with the range it covers; use a
// streaming reducer when memory must stay bounded.
type Collect[T any] struct {
	Records []T
}

// Emit implements Reducer.
func (c *Collect[T]) Emit(_ int, v T) { c.Records = append(c.Records, v) }

// Finish implements Reducer.
func (c *Collect[T]) Finish() {}

// Groups reduces a group-major stream (group sizes known up front) with
// one reusable buffer: each completed group is flushed and the buffer
// recycled, so memory is O(largest group) instead of O(total cells) — a
// deployment ladder's memory stops scaling with rung count. flush
// receives the group index and its records in index order; the slice is
// only valid during the call. finish may be nil.
func Groups[T any](sizes []int, flush func(group int, vals []T), finish func()) Reducer[T] {
	g := &groupReducer[T]{sizes: sizes, flush: flush, finish: finish}
	g.skipEmpty()
	return g
}

type groupReducer[T any] struct {
	sizes  []int
	flush  func(group int, vals []T)
	finish func()
	g      int
	buf    []T
}

func (r *groupReducer[T]) skipEmpty() {
	for r.g < len(r.sizes) && r.sizes[r.g] == 0 {
		r.flush(r.g, nil)
		r.g++
	}
}

func (r *groupReducer[T]) Emit(_ int, v T) {
	r.buf = append(r.buf, v)
	if len(r.buf) == r.sizes[r.g] {
		r.flush(r.g, r.buf)
		r.buf = r.buf[:0]
		r.g++
		r.skipEmpty()
	}
}

func (r *groupReducer[T]) Finish() {
	if r.finish != nil {
		r.finish()
	}
}

// Window is the bounded reorder buffer between concurrent workers and an
// in-order Reducer: workers Put completed indices in any order; the
// window delivers them in strictly increasing index order and blocks a
// Put that runs more than capacity indices ahead of the delivery head.
// The worker holding the head index can always store immediately, so a
// blocked Put is released as soon as the head arrives — bounded memory
// without deadlock at any worker count ≥ 1 and capacity ≥ 1.
type Window[T any] struct {
	mu       sync.Mutex
	notFull  sync.Cond
	buf      []T
	present  []bool
	head     int // next index to deliver
	hi       int // exclusive end of the covered range
	aborted  bool
	deliver  func(idx int, v T)
	buffered int // currently held out-of-order items
	peak     int // high-water mark, for tests and telemetry
}

// NewWindow covers the half-open index range [lo, hi). deliver runs
// serially, in index order, under the window's lock — reduction must stay
// cheap relative to the work producing the records.
func NewWindow[T any](lo, hi, capacity int, deliver func(idx int, v T)) *Window[T] {
	if capacity < 1 {
		capacity = 1
	}
	w := &Window[T]{
		buf:     make([]T, capacity),
		present: make([]bool, capacity),
		head:    lo,
		hi:      hi,
		deliver: deliver,
	}
	w.notFull.L = &w.mu
	return w
}

// Put stores index idx's record, blocking while idx is more than capacity
// ahead of the delivery head. Whichever Put completes the head index
// drains every contiguous ready record to the reducer before returning.
// After an Abort, Put discards silently and never blocks.
func (w *Window[T]) Put(idx int, v T) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.aborted && idx-w.head >= len(w.buf) {
		//bgplint:ignore lockheld Cond.Wait atomically releases w.mu while parked
		w.notFull.Wait()
	}
	if w.aborted {
		return
	}
	slot := idx % len(w.buf)
	w.buf[slot] = v
	w.present[slot] = true
	w.buffered++
	if w.buffered > w.peak {
		w.peak = w.buffered
	}
	for w.head < w.hi && w.present[w.head%len(w.buf)] {
		s := w.head % len(w.buf)
		rec := w.buf[s]
		var zero T
		w.buf[s] = zero
		w.present[s] = false
		w.buffered--
		h := w.head
		w.head++
		w.deliver(h, rec)
	}
	w.notFull.Broadcast()
}

// Abort releases every blocked Put and turns subsequent Puts into no-ops;
// the error path calls it before propagating so cancellation never
// deadlocks on a full window.
func (w *Window[T]) Abort() {
	w.mu.Lock()
	w.aborted = true
	w.notFull.Broadcast()
	w.mu.Unlock()
}

// Peak reports the high-water mark of simultaneously buffered
// out-of-order records — the measured bound of the streaming contract.
func (w *Window[T]) Peak() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}

// defaultWindow sizes the reorder buffer for a worker count: enough slack
// that workers rarely block on stragglers, small enough that memory stays
// a constant multiple of parallelism.
func defaultWindow(workers int) int {
	return 4*workers + 16
}

// MapReduce runs compute(i) for every i in [0, n) on the MapLocal worker pool
// and streams the results, in index order through a bounded window, into
// the reducers. It carries non-solver workloads (e.g. RPKI validation
// checks) on the same streaming contract as RunReduce.
func MapReduce[T any](n int, opts Options, compute func(i int) (T, error), reds ...Reducer[T]) error {
	red := Tee(reds...)
	win := NewWindow(0, n, windowCap(opts, n), red.Emit)
	err := MapLocal(n, opts, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		v, err := compute(i)
		if err != nil {
			win.Abort()
			return err
		}
		win.Put(i, v)
		return nil
	})
	if err != nil {
		return err
	}
	red.Finish()
	return nil
}

// windowCap resolves the reorder-window capacity for a run.
func windowCap(opts Options, n int) int {
	c := defaultWindow(opts.workers(n))
	if c > n && n > 0 {
		c = n
	}
	return c
}
