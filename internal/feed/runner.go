package feed

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// Runner backoff defaults.
const (
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffMax  = 30 * time.Second
)

// RunnerStats is a snapshot of a ProbeRunner's transport counters.
type RunnerStats struct {
	// Dials counts connection attempts (successful or not).
	Dials int
	// Sessions counts completed handshakes.
	Sessions int
	// Reconnects counts sessions established after the first.
	Reconnects int
	// Sent counts UPDATE writes that succeeded, retransmissions
	// included.
	Sent int
	// Writes counts transport Write calls issued — handshakes, update
	// batches, keepalives, closing NOTIFICATIONs; Sent/Writes is what one
	// write syscall carries.
	Writes int
	// Shed counts updates dropped by the bounded pending queue
	// (MaxPending) before they were ever written.
	Shed int
	// Pending is the number of updates not yet written on the current
	// session.
	Pending int
	// Connected reports whether a session is currently established.
	Connected bool
}

// ProbeRunner is a self-healing probe session: it dials the collector,
// streams queued updates, answers keepalives, and reconnects with
// capped exponential backoff plus jitter when the transport fails.
// Like a real BGP speaker it retransmits its full table (every update
// ever enqueued) on each new session, so a connection reset can delay
// but never lose an announcement; the collector's detector deduplicates
// the replays. The table is wire bytes: each update is encoded once, on
// Enqueue, into one pointer-free buffer of back-to-back UPDATE messages,
// and every write — first send and retransmission alike — issues a run
// of those bytes as they are. Clock and jitter RNG are injected — there
// is no time.Now or global rand in the retry path — so the backoff
// schedule is exactly reproducible under a tick.Fake.
type ProbeRunner struct {
	AS       asn.ASN
	RouterID uint32
	// Dial establishes one transport connection per attempt — typically
	// a net.Dial wrapper (with its own timeout), or a chaos.Wrap around
	// one in fault-injection tests.
	Dial func() (io.ReadWriteCloser, error)
	// HoldTime is the hold time (seconds) offered in OPEN; 0 means
	// DefaultHoldTime.
	HoldTime uint16
	// BackoffBase and BackoffMax bound reconnect delays: consecutive
	// failure n (1-based) sleeps min(BackoffMax, BackoffBase<<(n-1)),
	// halved-and-jittered when Jitter is set. Zero values take the
	// defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxAttempts caps consecutive failed connect attempts before Run
	// gives up; 0 retries forever. A completed handshake resets the
	// count.
	MaxAttempts int
	// Clock injects time; nil means the wall clock.
	Clock tick.Clock
	// Jitter, when non-nil, randomizes each backoff delay uniformly in
	// [d/2, d) ("equal jitter") to de-synchronize reconnect storms.
	// Callers seed it explicitly; nil applies the full deterministic
	// delay.
	Jitter *rand.Rand
	// Logf, when non-nil, receives reconnect/backoff log lines.
	Logf func(format string, args ...any)
	// MaxPending bounds the unsent queue: when an Enqueue pushes the
	// pending count past it, the oldest unsent updates are shed (counted
	// in RunnerStats.Shed) down to LowPending, so a stalled or slow
	// collector degrades to measured drops instead of unbounded memory.
	// 0 means unbounded — the pre-backpressure behavior.
	MaxPending int
	// LowPending is the low watermark a shed drains the queue to;
	// 0 or an out-of-range value means MaxPending/2.
	LowPending int

	mu sync.Mutex
	// table holds every update enqueued and not shed, as UPDATE messages
	// back to back; update i ends at ends[i] and starts where update i−1
	// ends. Bytes in flight never move: a shed compacts only the unsent
	// tail behind the batch, and growth copies into a new array.
	table    []byte
	ends     []int
	next     int // updates next.. are not yet written on the current session
	inflight int // updates next..next+inflight-1 are the batch being written
	drainReq bool
	stats    RunnerStats
	notify   chan struct{}
	writes   atomic.Int64 // RunnerStats.Writes, bumped by the session's Probe
}

// maxBatchUpdates caps how many pending updates one write coalesces. The
// session takes what is pending now and never waits to fill a batch, so
// the cap only bounds how long a burst holds the session loop away from
// its reader and timers.
const maxBatchUpdates = 256

// CloseWhenDrained switches a running probe into drain mode: once every
// queued update has been written on a live session, the session closes
// with a Cease NOTIFICATION and Run returns nil — the graceful end of a
// replay, where a force-closed transport could strand written-but-unread
// updates in the peer's buffers. Safe from any goroutine; updates
// enqueued after the call still count toward the drain.
func (r *ProbeRunner) CloseWhenDrained() {
	r.mu.Lock()
	r.drainReq = true
	ch := r.notifyLocked()
	r.mu.Unlock()
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Enqueue encodes u onto the runner's table, shedding the oldest unsent
// updates when MaxPending is exceeded. The table keeps nothing of u, so
// the caller may reuse it at once. An update that cannot be encoded (an
// ORIGIN out of range, a prefix longer than 32 bits, a message over
// bgpwire.MaxMessageLen) is refused with an error and never enters the
// table. Safe from any goroutine, before or during Run.
func (r *ProbeRunner) Enqueue(u *bgpwire.Update) error {
	r.mu.Lock()
	r.reserveLocked(bgpwire.MaxMessageLen)
	table, err := bgpwire.AppendMessage(r.table, u)
	if err != nil {
		r.mu.Unlock()
		return fmt.Errorf("probe %v: enqueue: %w", r.AS, err)
	}
	r.table = table
	r.pushLocked()
	return nil
}

// EnqueueWire is Enqueue for an UPDATE already in wire form: msg is one
// whole message, header included, as a BGP4MP record or a frame reader
// carries it. It checks the marker, the length field and the type, then
// copies msg onto the table as it is — the body is not decoded, so
// attributes Enqueue would not encode (AS_SETs, confederation segments,
// unknown optional attributes) reach the collector as they were read.
// The caller may reuse msg at once.
func (r *ProbeRunner) EnqueueWire(msg []byte) error {
	typ, err := bgpwire.FrameType(msg)
	if err != nil {
		return fmt.Errorf("probe %v: enqueue: %w", r.AS, err)
	}
	if typ != bgpwire.TypeUpdate {
		return fmt.Errorf("probe %v: enqueue: message type %d is not an UPDATE", r.AS, typ)
	}
	r.mu.Lock()
	r.reserveLocked(len(msg))
	r.table = append(r.table, msg...)
	r.pushLocked()
	return nil
}

// reserveLocked makes room for n more table bytes, at least doubling
// the table when it grows: append's own policy grows a large slice by a
// quarter, which re-copies a long replay's table several times as often.
// slices.Grow copies the table into a new array, so a batch a session
// is still writing from the old one stays valid, and the runtime zeroes
// only the bytes past the copy.
func (r *ProbeRunner) reserveLocked(n int) {
	if len(r.table)+n > cap(r.table) {
		r.table = slices.Grow(r.table, max(n, cap(r.table), 4096))
	}
}

// pushLocked indexes the update just appended to the table, sheds, and
// wakes the session. It releases r.mu.
func (r *ProbeRunner) pushLocked() {
	r.ends = append(r.ends, len(r.table))
	r.shedLocked()
	ch := r.notifyLocked()
	r.mu.Unlock()
	select {
	case ch <- struct{}{}:
	default:
	}
}

// start is the table offset where update i begins.
func (r *ProbeRunner) start(i int) int {
	if i == 0 {
		return 0
	}
	return r.ends[i-1]
}

// lowPending is the effective low watermark a shed drains the queue to.
func (r *ProbeRunner) lowPending() int {
	if r.LowPending <= 0 || r.LowPending > r.MaxPending {
		return r.MaxPending / 2
	}
	return r.LowPending
}

// shedLocked enforces MaxPending: above the high watermark it drops the
// oldest unsent updates down to the low watermark. The batch a write has
// in flight and the newest update are never shed, so the session loop's
// position stays coherent and fresh data always wins over stale. The
// bytes after the dropped run move down over it; nothing before it —
// written updates and the batch in flight — moves.
func (r *ProbeRunner) shedLocked() {
	if r.MaxPending <= 0 {
		return
	}
	pending := len(r.ends) - r.next
	if pending <= r.MaxPending {
		return
	}
	drop := pending - r.lowPending()
	lo := r.next + r.inflight
	if max := len(r.ends) - 1 - lo; drop > max {
		drop = max
	}
	if drop <= 0 {
		return
	}
	from, to := r.start(lo), r.start(lo+drop)
	r.table = append(r.table[:from], r.table[to:]...)
	for i, end := range r.ends[lo+drop:] {
		r.ends[lo+i] = end - (to - from)
	}
	r.ends = r.ends[:len(r.ends)-drop]
	r.stats.Shed += drop
}

func (r *ProbeRunner) notifyLocked() chan struct{} {
	if r.notify == nil {
		r.notify = make(chan struct{}, 1)
	}
	return r.notify
}

// Pending returns how many updates await (re)transmission.
func (r *ProbeRunner) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ends) - r.next
}

// Stats returns a snapshot of the runner's counters.
func (r *ProbeRunner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Pending = len(r.ends) - r.next
	s.Writes = int(r.writes.Load())
	return s
}

// take claims the next batch to write: everything pending now, up to
// the batch cap and maxBatchBytes — an update joins while the bytes
// before it leave room for a largest possible message, so a batch never
// exceeds the cap and always holds at least one update. The batch is
// the table's bytes of its n updates, written as they are; it stays in
// the table, pinned against shedding until advance or rewind (shedLocked
// only moves what lies beyond it, and growth leaves the old array to the
// batch, so the returned slice stays valid outside the lock). With
// nothing pending it reports whether the runner has drained — static
// drain mode, or CloseWhenDrained called — as one decision under one
// lock hold, so a CloseWhenDrained that follows the last Enqueue can
// never be seen without that Enqueue.
//
// Under MaxPending a batch takes at most low−1 updates. A shed fires at
// pending = MaxPending+1 and owes pending−low drops; it may touch
// neither the newest update nor the k in flight, which leaves
// pending−1−k candidates — enough exactly when k ≤ low−1. So every shed
// drops pending−low whatever the session was doing, and shed counts stay
// independent of how sender and dispatcher interleave.
func (r *ProbeRunner) take(drain bool) (batch []byte, n int, drained bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	limit := maxBatchUpdates
	if r.MaxPending > 0 {
		limit = min(limit, max(1, r.lowPending()-1))
	}
	limit = min(limit, len(r.ends)-r.next)
	from := r.start(r.next)
	for n < limit && r.start(r.next+n)-from+bgpwire.MaxMessageLen <= maxBatchBytes {
		n++
	}
	r.inflight = n
	if n == 0 {
		return nil, 0, r.drainedLocked(drain)
	}
	return r.table[from:r.ends[r.next+n-1]], n, false
}

// drainedLocked reports whether the runner is in drain mode — statically
// (RunDrain) or because CloseWhenDrained was called — with nothing left
// to write.
func (r *ProbeRunner) drainedLocked(drain bool) bool {
	return (drain || r.drainReq) && r.next == len(r.ends)
}

// advance marks the first n updates of the batch in flight written and
// unpins the rest.
func (r *ProbeRunner) advance(n int) {
	r.mu.Lock()
	r.next += n
	r.inflight = 0
	r.stats.Sent += n
	r.mu.Unlock()
}

// rewind schedules a full-table retransmission for the next session.
func (r *ProbeRunner) rewind() {
	r.mu.Lock()
	r.next = 0
	r.inflight = 0
	r.mu.Unlock()
}

func (r *ProbeRunner) clock() tick.Clock {
	return tick.Or(r.Clock)
}

func (r *ProbeRunner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *ProbeRunner) setConnected(v bool) {
	r.mu.Lock()
	r.stats.Connected = v
	r.mu.Unlock()
}

// backoff returns the delay before retry n (1-based consecutive
// failure count).
func (r *ProbeRunner) backoff(n int) time.Duration {
	base, max := r.BackoffBase, r.BackoffMax
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if r.Jitter != nil && d > 1 {
		half := d / 2
		d = half + time.Duration(r.Jitter.Int63n(int64(half)))
	}
	return d
}

// Run drives the probe until ctx is cancelled: dial, handshake, stream,
// and reconnect on failure with capped exponential backoff. It returns
// ctx.Err() on cancellation or a terminal error once MaxAttempts
// consecutive connect attempts fail.
func (r *ProbeRunner) Run(ctx context.Context) error { return r.run(ctx, false) }

// RunDrain is Run, except it returns nil as soon as every enqueued
// update has been written on a live session (closing it with a Cease
// NOTIFICATION) — the mode batch feeders and the demo daemon use.
func (r *ProbeRunner) RunDrain(ctx context.Context) error { return r.run(ctx, true) }

func (r *ProbeRunner) run(ctx context.Context, drain bool) error {
	if r.Dial == nil {
		return fmt.Errorf("probe %v: runner needs a Dial function", r.AS)
	}
	clock := r.clock()
	fails := 0
	for {
		r.mu.Lock()
		drained := r.drainedLocked(drain)
		r.mu.Unlock()
		if drained {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		r.mu.Lock()
		r.stats.Dials++
		r.mu.Unlock()
		conn, err := r.Dial()
		if err == nil {
			// The runner owns its transport's teardown: a session wedged
			// in a write or a handshake read returns once ctx ends.
			stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
			var established bool
			established, err = r.session(ctx, conn, drain)
			stop()
			if err == nil {
				return nil // drain completed
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if established {
				fails = 0
				// The next session re-announces the full table, exactly
				// like a BGP speaker rebuilding Adj-RIB-Out after a
				// session reset.
				r.rewind()
			}
		}
		fails++
		if r.MaxAttempts > 0 && fails >= r.MaxAttempts {
			return fmt.Errorf("probe %v: giving up after %d consecutive failed attempts: %w", r.AS, fails, err)
		}
		delay := r.backoff(fails)
		r.logf("probe %v: session failed (%v); reconnecting in %v (attempt %d)", r.AS, err, delay, fails+1)
		t := clock.NewTimer(delay)
		select {
		case <-t.C():
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// session runs one established connection to completion. It returns
// established=false when the handshake itself failed. A nil error means
// drain mode finished the table.
func (r *ProbeRunner) session(ctx context.Context, conn io.ReadWriteCloser, drain bool) (established bool, err error) {
	p := &Probe{AS: r.AS, RouterID: r.RouterID, HoldTime: r.HoldTime, Clock: r.clock(), tx: sender{writes: &r.writes}}
	if err := p.Dial(conn); err != nil {
		return false, err // Dial closed conn
	}
	defer conn.Close()
	r.mu.Lock()
	r.stats.Sessions++
	if r.stats.Sessions > 1 {
		r.stats.Reconnects++
	}
	r.stats.Connected = true
	notify := r.notifyLocked()
	r.mu.Unlock()
	defer r.setConnected(false)

	lv := startLiveness(&p.tx, p.in, p.hold)
	defer lv.stop()

	// handleRead processes one batch of collector-to-probe messages; a
	// non-nil return ends the session.
	handleRead := func(batch []readResult) error {
		lv.heard(batch)
		for _, rr := range batch {
			if rr.err != nil {
				return fmt.Errorf("probe %v: read: %w", r.AS, rr.err)
			}
			if rr.malformed != nil {
				return fmt.Errorf("probe %v: malformed message from collector: %w", r.AS, rr.malformed)
			}
			if n, ok := rr.msg.(*bgpwire.Notification); ok {
				return fmt.Errorf("probe %v: collector closed session (NOTIFICATION code %d)", r.AS, n.Code)
			}
			// Keepalives (and any stray updates) just refresh the hold timer.
		}
		return nil
	}

	for {
		batch, n, drained := r.take(drain)
		if n > 0 {
			if err := p.tx.flush(batch, p.hold); err != nil {
				return true, err
			}
			r.advance(n)
			lv.wrote()
			// Drain reader/timer events without blocking between writes.
			select {
			case b := <-lv.reads:
				if err := handleRead(b); err != nil {
					return true, err
				}
			case <-ctx.Done():
				_ = p.Close()
				return true, ctx.Err()
			default:
			}
			continue
		}
		if drained {
			_ = p.Close() // Cease; the table is fully written
			return true, nil
		}
		select {
		case <-notify:
		case b := <-lv.reads:
			if err := handleRead(b); err != nil {
				return true, err
			}
		case <-lv.kaC:
			if err := lv.keepalive(); err != nil {
				return true, fmt.Errorf("probe %v: send KEEPALIVE: %w", r.AS, err)
			}
		case <-lv.holdC:
			lv.expire()
			return true, fmt.Errorf("probe %v: hold timer (%v) expired: collector silent", r.AS, p.hold)
		case <-ctx.Done():
			_ = p.Close()
			return true, ctx.Err()
		}
	}
}
