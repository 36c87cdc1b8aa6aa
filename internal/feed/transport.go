package feed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// DefaultHoldTime is the hold time (seconds) offered in OPEN when a
// Collector or Probe does not set one — RFC 4271's recommended 180s,
// which the previous implementation advertised but never enforced.
const DefaultHoldTime uint16 = 180

// DefaultMaxMalformed bounds how many malformed-but-correctly-framed
// messages one session tolerates before the collector closes that peer.
const DefaultMaxMalformed = 4

// minHoldTime is RFC 4271 §6.2's floor: a non-zero hold time below 3
// seconds is unacceptable and rejected with an OPEN error NOTIFICATION.
const minHoldTime = 3

// DefaultLoadWindow is the collector's read-rate accounting window when
// LoadWindow is unset.
const DefaultLoadWindow = time.Second

// ErrSessionShed marks a session the collector closed under global load:
// the aggregate update rate crossed MaxLoad and this session was the
// noisiest in the current window.
var ErrSessionShed = errors.New("feed: session shed under collector load")

// CollectorStats is a snapshot of the collector's robustness counters.
type CollectorStats struct {
	// Sessions counts sessions accepted so far.
	Sessions int
	// RecorderErrors counts MRT recorder write failures. The first one
	// demotes the collector to degraded mode (recording disabled,
	// sessions stay up) instead of tearing down the session that
	// happened to trigger it.
	RecorderErrors int
	// RecorderDropped counts updates not recorded while degraded.
	RecorderDropped int
	// Degraded reports whether recording has been disabled by a write
	// failure.
	Degraded bool
	// MalformedMessages counts correctly framed messages that failed to
	// decode, across all sessions.
	MalformedMessages int
	// HoldExpiries counts peers reaped by the hold timer.
	HoldExpiries int
	// Updates counts UPDATE messages received across all sessions,
	// including the ones dropped by load shedding.
	Updates int
	// LoadSheds counts sessions closed because the aggregate update rate
	// crossed MaxLoad.
	LoadSheds int
	// Reads counts transport Read calls issued across all sessions,
	// handshakes included; Updates/Reads is what one read syscall
	// delivers.
	Reads int
}

// SessionLoad is one session's read-rate accounting snapshot.
type SessionLoad struct {
	// AS is the peer AS (zero until its OPEN arrives).
	AS asn.ASN
	// Window is the update count in the current accounting window.
	Window int
	// Total is the lifetime update count.
	Total int
	// Shed reports whether the session was closed by load shedding.
	Shed bool
}

// sessLoad is one live session's entry in the collector: its conn, for
// force-close and load shedding, and its accounting record. Guarded by
// Collector.mu; Collector.live keeps registration order so victim
// selection and SessionLoads are deterministic.
type sessLoad struct {
	conn   io.Closer
	as     asn.ASN
	window int
	total  int
	shed   bool
}

// Collector is a BGP route collector: probe routers open BGP sessions to
// it and stream UPDATEs, which it hands to a Detector — the architecture
// of BGPmon and the hijack detectors built on it. The zero value plus
// LocalAS/RouterID is usable; robustness knobs (hold time, malformed
// budget, clock) default sensibly.
type Collector struct {
	LocalAS  asn.ASN
	RouterID uint32
	Detector *Detector
	// Recorder, when non-nil, logs every received UPDATE as an MRT
	// BGP4MP record — the format RouteViews publishes its update feeds
	// in. Callers own flushing/closing the underlying writer after
	// Shutdown. A write failure degrades recording (counted, logged)
	// rather than killing the session that hit it.
	Recorder *mrt.Writer
	// HoldTime is the hold time (seconds) offered in the collector's
	// OPEN; 0 means DefaultHoldTime. Each session enforces the minimum
	// of this and the peer's offer (RFC 4271 §4.2); a negotiated 0
	// disables the timer.
	HoldTime uint16
	// MaxMalformed bounds per-session tolerated malformed messages;
	// 0 means DefaultMaxMalformed.
	MaxMalformed int
	// Clock injects time for hold/keepalive enforcement. Nil means the
	// wall clock; tests substitute a tick.Fake.
	Clock tick.Clock
	// MaxLoad bounds the aggregate UPDATE count the collector accepts
	// per LoadWindow across every session. When an update pushes the
	// total past it, the collector sheds the noisiest session of the
	// window — Cease NOTIFICATION, connection closed, ErrSessionShed —
	// so one runaway feed degrades to one lost peer, never a melted
	// collector. 0 disables load shedding.
	MaxLoad int
	// LoadWindow is the read-rate accounting window; 0 means
	// DefaultLoadWindow. Sessions read the clock once per run of UPDATEs
	// a transport read delivered, so a window rolls between batches.
	LoadWindow time.Duration
	// Validator, when non-nil, puts the collector in route-server mode:
	// every announcement is origin-validated once, at the collector
	// boundary — the IXP middlebox model — instead of by each probe.
	// A Detector built over this same RouteServer raises its alerts
	// from those verdicts without validating again; a Detector over
	// any other validator still validates each update itself. Sessions
	// call it concurrently with no lock around it, so the validator
	// under it must be fully loaded before the first session starts.
	// See RouteServer.
	Validator *RouteServer
	// Logf, when non-nil, receives operational log lines (degraded
	// mode, reaped peers).
	Logf func(format string, args ...any)

	// mu guards sessions, live, closed, stats, the load window, and (in
	// session.go) writes through Recorder, which is not itself
	// concurrency-safe. The accept loop checks closed and registers with
	// wg under the same critical section so Shutdown can never miss an
	// in-flight session.
	mu          sync.Mutex
	sessions    int
	live        []*sessLoad // live sessions, in registration order
	wg          sync.WaitGroup
	closed      bool
	stats       CollectorStats
	windowStart time.Time
	windowCount int
	reads       atomic.Int64 // CollectorStats.Reads, bumped by session reader goroutines
}

// Serve accepts sessions on l until l is closed. It returns the listener's
// close error (net.ErrClosed after Shutdown).
func (c *Collector) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			c.wg.Wait()
			return err
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			c.wg.Wait()
			return net.ErrClosed
		}
		// Pre-register the session goroutine under the same critical
		// section as the closed check, so Shutdown's wait can never miss
		// a conn that was accepted but whose HandleSession (which
		// registers itself) has not started yet.
		c.wg.Add(1)
		c.mu.Unlock()
		go func() {
			defer c.wg.Done()
			// Session errors are per-peer: a broken probe must not take
			// the collector down.
			_ = c.HandleSession(conn)
		}()
	}
}

// Sessions returns the number of sessions accepted so far.
func (c *Collector) Sessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions
}

// Stats returns a snapshot of the collector's robustness counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Sessions = c.sessions
	s.Reads = int(c.reads.Load())
	return s
}

// Shutdown stops accepting new sessions and waits for active ones to
// drain naturally (peer EOF or NOTIFICATION). If ctx expires first,
// every live session connection is force-closed, the wait completes,
// and ctx's error is returned.
func (c *Collector) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	c.mu.Lock()
	for _, l := range c.live {
		_ = l.conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return ctx.Err()
}

// register enrolls one session with the collector: it joins the
// Shutdown wait group, is counted, and joins the live list, where its
// conn is force-closable and its load is accounted. The session hands
// the returned entry to every later call about itself. It fails once
// Shutdown has begun.
func (c *Collector) register(conn io.Closer) (*sessLoad, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, net.ErrClosed
	}
	c.sessions++
	c.wg.Add(1)
	l := &sessLoad{conn: conn}
	c.live = append(c.live, l)
	return l, nil
}

// unregister is register's counterpart: l leaves the live list, keeping
// the others in registration order, and the Shutdown wait group is
// released. A finished session leaves no trace but the counters in
// Stats.
func (c *Collector) unregister(l *sessLoad) {
	c.mu.Lock()
	i := slices.Index(c.live, l)
	c.live = slices.Delete(c.live, i, i+1)
	c.mu.Unlock()
	c.wg.Done()
}

// noteOpen records the peer AS on the session's entry once its OPEN
// arrives.
func (c *Collector) noteOpen(l *sessLoad, as asn.ASN) {
	c.mu.Lock()
	l.as = as
	c.mu.Unlock()
}

// loadWindow returns the accounting window length.
func (c *Collector) loadWindow() time.Duration {
	if c.LoadWindow > 0 {
		return c.LoadWindow
	}
	return DefaultLoadWindow
}

// noteUpdates accounts a run of n UPDATEs session l received in one
// read batch, under one critical section and one clock reading, while
// deciding each update on its own against the session's window and the
// global MaxLoad threshold. Crossing the threshold sheds the noisiest
// unshed session of the window (earliest-registered on ties): its conn
// is closed here — never a blocking write under mu — and its session
// loop translates the resulting read error into ErrSessionShed. The
// first admitted of the n updates pass on to detection. shedSelf
// reports that l's own session is now shed: the update right after
// the admitted ones found it so, is counted like every update received,
// and is dropped; the caller stops processing and closes with a Cease
// of its own.
//
//bgplint:hotpath the decision loop runs once per received UPDATE
func (c *Collector) noteUpdates(l *sessLoad, n int) (admitted int, shedSelf bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock().Now()
	if c.windowStart.IsZero() || now.Sub(c.windowStart) >= c.loadWindow() {
		c.windowStart = now
		c.windowCount = 0
		for _, s := range c.live {
			s.window = 0
		}
	}
	for ; admitted < n; admitted++ {
		l.window++
		l.total++
		c.windowCount++
		c.stats.Updates++
		if c.shedFor(l) {
			return admitted, true
		}
	}
	return n, false
}

// shedFor decides the update just counted against l, with c.mu held: it
// reports whether l's session is shed — earlier, or now because this
// update crossed MaxLoad and l is the noisiest session of the window.
// When another session is the victim, its conn is closed here.
func (c *Collector) shedFor(l *sessLoad) bool {
	if l.shed {
		return true
	}
	if c.MaxLoad <= 0 || c.windowCount <= c.MaxLoad {
		return false
	}
	var victim *sessLoad
	for _, cand := range c.live {
		if cand.shed {
			continue
		}
		if victim == nil || cand.window > victim.window {
			victim = cand
		}
	}
	if victim == nil {
		return false
	}
	victim.shed = true
	c.windowCount -= victim.window
	c.stats.LoadSheds++
	c.logf("collector: %d updates in %v exceeds MaxLoad %d; shedding noisiest session %v (%d in window)",
		c.stats.Updates, c.loadWindow(), c.MaxLoad, victim.as, victim.window)
	if victim != l {
		_ = victim.conn.Close()
		return false
	}
	return true
}

// wasShed reports whether l's session was closed by load shedding.
func (c *Collector) wasShed(l *sessLoad) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return l.shed
}

// SessionLoads returns each live session's read-rate accounting
// snapshot, in registration order. A finished session, shed or not, is
// no longer listed; Stats keeps the collector-wide counts.
func (c *Collector) SessionLoads() []SessionLoad {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SessionLoad, 0, len(c.live))
	for _, l := range c.live {
		out = append(out, SessionLoad{AS: l.as, Window: l.window, Total: l.total, Shed: l.shed})
	}
	return out
}

func (c *Collector) clock() tick.Clock {
	return tick.Or(c.Clock)
}

func (c *Collector) holdTime() uint16 {
	if c.HoldTime != 0 {
		return c.HoldTime
	}
	return DefaultHoldTime
}

func (c *Collector) maxMalformed() int {
	if c.MaxMalformed != 0 {
		return c.MaxMalformed
	}
	return DefaultMaxMalformed
}

func (c *Collector) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// deadlineReader is the transport under a session's frame reader. Every
// Read first arms conn's read deadline (real sockets only) one hold
// period ahead on the injected clock — the kernel-level backstop for the
// select-based hold timer, paid once per transport read rather than once
// per frame.
type deadlineReader struct {
	conn  io.Reader
	clock tick.Clock
	hold  time.Duration // 0 reads without a deadline
	reads *atomic.Int64 // transport reads issued; nil when nobody counts
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	if dl, ok := d.conn.(bgpwire.ReadDeadliner); ok && d.hold > 0 {
		// A deadline-set failure (typically a conn the peer already
		// closed) is deliberately not surfaced: the read below reports
		// the true condition — io.EOF for a clean remote close — which
		// callers must be able to tell apart from a fault.
		_ = dl.SetReadDeadline(d.clock.Now().Add(d.hold))
	}
	if d.reads != nil {
		d.reads.Add(1)
	}
	return d.conn.Read(p)
}

// setHold switches from the handshake bound to the negotiated hold time.
// A negotiated 0 disables the timer, so the deadline the handshake left
// armed is cleared.
func (d *deadlineReader) setHold(hold time.Duration) {
	d.hold = hold
	if dl, ok := d.conn.(bgpwire.ReadDeadliner); ok && hold == 0 {
		_ = dl.SetReadDeadline(time.Time{})
	}
}

// Probe is the router side of a collector session: it opens the session
// and streams updates. For automatic reconnection with backoff, wrap it
// in a ProbeRunner.
type Probe struct {
	AS       asn.ASN
	RouterID uint32
	// HoldTime is the hold time (seconds) offered in OPEN; 0 means
	// DefaultHoldTime. The session value is the negotiated minimum with
	// the peer's offer.
	HoldTime uint16
	// Clock injects time for handshake deadlines; nil means the wall
	// clock.
	Clock tick.Clock

	// tx holds the session's conn (nil outside a session) and writes all
	// the probe sends, a ProbeRunner's table bytes included.
	tx sender
	// in frames everything the collector sends, handshake included: the
	// session's one reader, so nothing it read ahead is ever stranded.
	in   *bgpwire.FrameReader
	hold time.Duration
	peer bgpwire.Open
}

func (p *Probe) holdTime() uint16 {
	if p.HoldTime != 0 {
		return p.HoldTime
	}
	return DefaultHoldTime
}

// maxBatchBytes bounds one coalesced update write: the frame reader's
// buffer on the other side.
const maxBatchBytes = 64 << 10

// Dial performs the BGP handshake over an established connection,
// validating the peer's OPEN (version 4, non-zero hold time of at least
// 3s per RFC 4271 §6.2) and recording the negotiated hold time — the
// minimum of both offers — for NegotiatedHold. Each handshake read and
// write is bounded by the local hold offer, so a silent peer cannot hang
// Dial forever on a real socket. A failed Dial closes conn.
func (p *Probe) Dial(conn io.ReadWriteCloser) (err error) {
	offer := time.Duration(p.holdTime()) * time.Second
	clock := tick.Or(p.Clock)
	dr := &deadlineReader{conn: conn, clock: clock, hold: offer}
	p.tx.conn, p.tx.clock, p.in = conn, clock, bgpwire.NewFrameReader(dr)
	defer func() {
		if err != nil {
			conn.Close()
			p.tx.conn, p.in = nil, nil
		}
	}()
	if err := p.tx.send(&bgpwire.Open{
		Version: 4, AS: p.AS, HoldTime: p.holdTime(), RouterID: p.RouterID,
	}, offer); err != nil {
		return fmt.Errorf("probe %v: send OPEN: %w", p.AS, err)
	}
	open, hold, err := p.tx.readOpen(p.in, p.holdTime(), false, offer)
	if err != nil {
		return fmt.Errorf("probe %v: %w", p.AS, err)
	}
	msg, err := p.in.ReadMessage()
	if err != nil {
		return fmt.Errorf("probe %v: read KEEPALIVE: %w", p.AS, err)
	}
	if _, ok := msg.(bgpwire.Keepalive); !ok {
		return fmt.Errorf("probe %v: expected KEEPALIVE, got %T", p.AS, msg)
	}
	p.peer, p.hold = *open, hold
	dr.setHold(hold)
	return nil
}

// NegotiatedHold returns the hold time agreed during Dial (zero when
// disabled or before Dial succeeds).
func (p *Probe) NegotiatedHold() time.Duration { return p.hold }

// PeerOpen returns the collector's OPEN as received during Dial.
func (p *Probe) PeerOpen() bgpwire.Open { return p.peer }

// Send streams one UPDATE on the session: a batch of one.
func (p *Probe) Send(u *bgpwire.Update) error {
	if p.tx.conn == nil {
		return fmt.Errorf("probe %v: session not established", p.AS)
	}
	return p.tx.send(u, p.hold)
}

// Close ends the session with a Cease NOTIFICATION.
func (p *Probe) Close() error {
	if p.tx.conn == nil {
		return nil
	}
	_ = p.tx.send(&bgpwire.Notification{Code: 6 /* cease */}, p.hold)
	err := p.tx.conn.Close()
	p.tx.conn = nil
	p.hold = 0
	return err
}
