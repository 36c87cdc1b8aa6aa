// Package tick provides an injectable clock abstraction for the live
// feed pipeline. Hold-timer enforcement, keepalive scheduling and
// reconnect backoff must never read the wall clock directly: every
// duration-sensitive decision goes through a Clock so tests drive the
// exact same code with a deterministic Fake (see DESIGN.md, "Live
// pipeline robustness"). Real() is the production implementation; the
// cmd tools install it at the boundary.
package tick

import (
	"slices"
	"sync"
	"time"
)

// Clock abstracts "now" and timer creation.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
}

// Timer is the subset of *time.Timer the feed layer uses. Channel and
// Stop/Reset semantics match time.Timer under Go 1.22 rules: after a
// fire the value stays buffered in C until received, so callers reuse
// timers via the stop-drain-reset idiom (see Rearm).
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Rearm safely re-arms a possibly-fired, possibly-drained timer for d,
// encapsulating the classic stop-drain-reset dance. It must only be
// called from the goroutine that receives on t.C().
func Rearm(t Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C():
		default:
		}
	}
	t.Reset(d)
}

// Real returns the wall-clock Clock backed by package time.
func Real() Clock { return realClock{} }

// Or returns c if non-nil, else the wall clock. It is the one sanctioned
// nil-Clock fallback: library structs whose zero value must work call
// tick.Or(x.Clock) instead of reaching for Real() themselves, keeping
// every wall-clock escape hatch in this package where the walltime
// analyzer's suppressions are audited together.
func Or(c Clock) Clock {
	if c != nil {
		return c
	}
	//bgplint:ignore walltime sanctioned nil-Clock fallback; tests inject Fake through the Clock field
	return Real()
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() } //bgplint:ignore walltime Real is the sanctioned wall-clock implementation behind Clock

//bgplint:ignore walltime Real is the sanctioned wall-clock implementation behind Clock
func (realClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time        { return r.t.C }
func (r realTimer) Stop() bool                 { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }

// Fake is a manually advanced Clock for deterministic tests: timers
// fire only inside Advance/AdvanceToNext, on the advancing goroutine.
// It is safe for concurrent use.
type Fake struct {
	mu   sync.Mutex
	cond *sync.Cond
	now  time.Time
	// timers holds the armed timers, in arming order: a fire or Stop
	// removes one and Reset puts it back, so a long test that arms and
	// stops timers by the thousand keeps none of them.
	timers []*fakeTimer
}

// NewFake returns a Fake clock starting at a fixed epoch. The epoch is
// deliberately far in the real future: code under test may arm real
// socket deadlines (net.Conn.SetReadDeadline) from Clock.Now(), and a
// past-dated deadline would make every read fail instantly. Only
// durations matter to the feed layer, so the absolute value is
// otherwise arbitrary.
func NewFake() *Fake {
	f := &Fake{now: time.Unix(1<<40, 0)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Now returns the fake clock's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// NewTimer arms a fake timer d from the fake now. A non-positive d
// fires on the next Advance(0).
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{clock: f, ch: make(chan time.Time, 1)}
	f.armLocked(t, d)
	return t
}

// Advance moves the clock forward by d, firing every armed timer whose
// deadline is reached, earliest first.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advanceTo(f.now.Add(d))
}

// AdvanceToNext jumps to the earliest armed deadline and fires it,
// returning how far the clock moved. It returns false when no timer is
// armed.
func (f *Fake) AdvanceToNext() (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var next *fakeTimer
	for _, t := range f.timers {
		if next == nil || t.deadline.Before(next.deadline) {
			next = t
		}
	}
	if next == nil {
		return 0, false
	}
	d := next.deadline.Sub(f.now)
	if d < 0 {
		d = 0
	}
	f.advanceTo(f.now.Add(d))
	return d, true
}

// BlockUntilTimers waits until at least n timers are armed — the
// rendezvous a test needs before advancing past a deadline the code
// under test is still arming.
func (f *Fake) BlockUntilTimers(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.timers) < n {
		//bgplint:ignore lockheld Cond.Wait atomically releases f.mu while parked
		f.cond.Wait()
	}
}

// armLocked (re-)arms t to fire d from now; the caller holds f.mu.
func (f *Fake) armLocked(t *fakeTimer, d time.Duration) {
	t.deadline = f.now.Add(d)
	f.timers = append(f.timers, t)
	f.cond.Broadcast()
}

// disarmLocked removes t from the armed set, reporting whether it was
// armed; the caller holds f.mu.
func (f *Fake) disarmLocked(t *fakeTimer) bool {
	i := slices.Index(f.timers, t)
	if i < 0 {
		return false
	}
	f.timers = slices.Delete(f.timers, i, i+1)
	return true
}

// advanceTo fires due timers in deadline order; the caller holds f.mu.
func (f *Fake) advanceTo(target time.Time) {
	for {
		var next *fakeTimer
		for _, t := range f.timers {
			if !t.deadline.After(target) && (next == nil || t.deadline.Before(next.deadline)) {
				next = t
			}
		}
		if next == nil {
			break
		}
		if next.deadline.After(f.now) {
			f.now = next.deadline
		}
		f.disarmLocked(next)
		select {
		case next.ch <- next.deadline:
		default: // a previous fire is still buffered; drop, like time.Timer
		}
	}
	if target.After(f.now) {
		f.now = target
	}
}

// fakeTimer is armed while it is in its clock's timers list.
type fakeTimer struct {
	clock    *Fake
	ch       chan time.Time
	deadline time.Time
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	return t.clock.disarmLocked(t)
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	was := t.clock.disarmLocked(t)
	t.clock.armLocked(t, d)
	return was
}
