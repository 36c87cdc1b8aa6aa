package feed

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// readResult is one reader-goroutine event: a decoded message, a
// malformed-but-framed message (stream still aligned), or a fatal
// transport/framing error.
type readResult struct {
	msg       any
	err       error
	malformed error
}

// readLoop frames and decodes what the peer sends and ships it to out
// one batch per channel send: the message a blocking transport read
// completes plus every message that read already buffered, so the
// session loop wakes (and re-arms its hold timer) once per read, not
// once per message. A fatal error is the last result of its batch. The
// two batch slices alternate, and each has its own pool of Updates that
// its UPDATEs decode into: out is unbuffered, so by the time a send
// completes the receiver is done with the slice it took before, and
// with every Update in it. So a receiver may use a batch's Updates
// until its next receive and must keep nothing of them past it.
//
//bgplint:hotpath the frame-decode loop runs once per received message
func readLoop(in *bgpwire.FrameReader, out chan<- []readResult, done <-chan struct{}) {
	var batches [2][]readResult
	var pools [2][]*bgpwire.Update
	for i := 0; ; i ^= 1 {
		batches[i] = batches[i][:0]
		used := 0
		var rr readResult
		for more := true; more; more = rr.err == nil && in.Buffered() {
			rr = readResult{}
			if used == len(pools[i]) {
				pools[i] = append(pools[i], new(bgpwire.Update))
			}
			if frame, err := in.Next(); err != nil {
				rr.err = err
			} else if msg, uerr := bgpwire.UnmarshalInto(frame, pools[i][used]); uerr != nil {
				rr.malformed = uerr
			} else {
				rr.msg = msg
				if _, ok := msg.(*bgpwire.Update); ok {
					used++
				}
			}
			batches[i] = append(batches[i], rr)
		}
		select {
		case out <- batches[i]:
		case <-done:
			return
		}
		if rr.err != nil {
			return
		}
	}
}

// sender is the one writer of either session end: every message the
// collector or a probe sends goes out through it.
type sender struct {
	conn   io.ReadWriteCloser
	clock  tick.Clock
	out    []byte        // the encode buffer every send reuses
	writes *atomic.Int64 // transport Write calls; nil when nobody counts
}

// flush issues b as one transport write under a write deadline timeout
// ahead (0 = none), so a peer that stops reading cannot block the
// session goroutine forever.
func (s *sender) flush(b []byte, timeout time.Duration) error {
	if d, ok := s.conn.(bgpwire.WriteDeadliner); ok && timeout > 0 {
		// As with reads: let the write itself report a closed conn.
		_ = d.SetWriteDeadline(s.clock.Now().Add(timeout))
	}
	if s.writes != nil {
		s.writes.Add(1)
	}
	_, err := s.conn.Write(b)
	return err
}

// send encodes one message into the reused buffer and writes it.
func (s *sender) send(msg any, timeout time.Duration) (err error) {
	if s.out, err = bgpwire.AppendMessage(s.out[:0], msg); err != nil {
		return err
	}
	return s.flush(s.out, timeout)
}

// readOpen reads the peer's OPEN off in and returns it with the session
// hold time (RFC 4271 §4.2): the lesser offer, 0 from either side
// disabling the timer. A bad OPEN gets a best-effort OPEN error
// NOTIFICATION (§6.2). Only a collector (allowZeroHold) accepts an offer
// of 0: a probe needs a live hold timer from its collector.
func (s *sender) readOpen(in *bgpwire.FrameReader, local uint16, allowZeroHold bool, timeout time.Duration) (*bgpwire.Open, time.Duration, error) {
	msg, err := in.ReadMessage()
	if err != nil {
		return nil, 0, fmt.Errorf("read OPEN: %w", err)
	}
	o, ok := msg.(*bgpwire.Open)
	if !ok {
		return nil, 0, fmt.Errorf("expected OPEN, got %T", msg)
	}
	subcode := uint8(6) // unacceptable hold time
	switch {
	case o.Version != 4:
		err, subcode = fmt.Errorf("peer OPEN: unsupported BGP version %d", o.Version), 1
	case o.HoldTime == 0 && !allowZeroHold:
		err = fmt.Errorf("peer OPEN: zero hold time (peer would never be reaped)")
	case o.HoldTime != 0 && o.HoldTime < minHoldTime:
		err = fmt.Errorf("peer OPEN: hold time %ds below the %ds floor", o.HoldTime, minHoldTime)
	}
	if err != nil {
		_ = s.send(&bgpwire.Notification{Code: 2, Subcode: subcode}, timeout)
		return nil, 0, err
	}
	return o, time.Duration(min(local, o.HoldTime)) * time.Second, nil
}

// liveness keeps an established session alive from either end: the
// reader goroutine that ships the peer's messages on reads, and the
// hold/keepalive timer pair. A hold of 0 disables both timers; their
// nil channels keep those select arms permanently silent.
type liveness struct {
	tx         *sender
	hold       time.Duration
	reads      chan []readResult
	done       chan struct{}
	holdT, kaT tick.Timer
	holdC, kaC <-chan time.Time
}

// startLiveness starts reading in and arms the timers for the
// negotiated hold; the session loop calls stop when it ends.
func startLiveness(tx *sender, in *bgpwire.FrameReader, hold time.Duration) *liveness {
	l := &liveness{tx: tx, hold: hold, reads: make(chan []readResult), done: make(chan struct{})}
	go readLoop(in, l.reads, l.done)
	if hold > 0 {
		l.holdT = tx.clock.NewTimer(hold)
		l.holdC = l.holdT.C()
		l.kaT = tx.clock.NewTimer(hold / 3)
		l.kaC = l.kaT.C()
	}
	return l
}

// stop releases the reader goroutine and the timers.
func (l *liveness) stop() {
	close(l.done)
	if l.hold > 0 {
		l.holdT.Stop()
		l.kaT.Stop()
	}
}

// heard re-arms the hold timer once for a whole batch off reads: any
// received message, even a malformed one, proves the peer alive.
func (l *liveness) heard(batch []readResult) {
	if l.hold > 0 && batch[0].err == nil {
		tick.Rearm(l.holdT, l.hold)
	}
}

// wrote defers the next keepalive: a write of our own already proved
// liveness to the peer.
func (l *liveness) wrote() {
	if l.hold > 0 {
		tick.Rearm(l.kaT, l.hold/3)
	}
}

// keepalive answers a tick of kaC with a KEEPALIVE.
func (l *liveness) keepalive() error {
	err := l.tx.send(bgpwire.Keepalive{}, l.hold)
	l.wrote()
	return err
}

// expire answers a tick of holdC with a best-effort hold-timer-expired
// NOTIFICATION; the session then ends.
func (l *liveness) expire() {
	_ = l.tx.send(&bgpwire.Notification{Code: 4 /* hold timer expired */}, l.hold)
}

// HandleSession runs one collector-side BGP session on conn: OPEN
// exchange, KEEPALIVE, then UPDATE stream into the detector until the
// peer closes, sends NOTIFICATION, or the negotiated hold timer
// expires. Malformed messages are tolerated up to the per-session
// budget; recorder failures degrade recording instead of ending the
// session.
func (c *Collector) HandleSession(conn io.ReadWriteCloser) error {
	defer conn.Close()
	sess, err := c.register(conn)
	if err != nil {
		return err
	}
	defer c.unregister(sess)

	tx := &sender{conn: conn, clock: c.clock()}
	localHold := time.Duration(c.holdTime()) * time.Second
	// One frame reader for the whole session, handshake included: what it
	// reads ahead of the OPEN is the start of the update stream.
	dr := &deadlineReader{conn: conn, clock: tx.clock, hold: localHold, reads: &c.reads}
	in := bgpwire.NewFrameReader(dr)
	// Each handshake write is bounded by the local hold offer, as the
	// probe's are.
	open, hold, err := tx.readOpen(in, c.holdTime(), true, localHold)
	if err != nil {
		return fmt.Errorf("collector: %w", err)
	}
	c.noteOpen(sess, open.AS)
	if err := tx.send(&bgpwire.Open{
		Version: 4, AS: c.LocalAS, HoldTime: c.holdTime(), RouterID: c.RouterID,
	}, localHold); err != nil {
		return fmt.Errorf("collector: send OPEN: %w", err)
	}
	if err := tx.send(bgpwire.Keepalive{}, localHold); err != nil {
		return fmt.Errorf("collector: send KEEPALIVE: %w", err)
	}
	dr.setHold(hold)
	lv := startLiveness(tx, in, hold)
	defer lv.stop()

	var seq uint32
	malformed := 0
	// In route-server mode the detector validates through the
	// collector's own RouteServer, so the Invalid prefixes observe
	// reports are its verdicts too: it raises from them instead of
	// validating again.
	shared := c.Detector != nil && c.Detector.validatesVia(c.Validator)
	var invalid []prefix.Prefix
	// accept hands one admitted UPDATE to recording, validation and
	// detection. m is readLoop's storage, refilled once this batch is
	// done, so nothing here keeps it: the recorder encodes it at once,
	// validation keeps verdicts, and an alert copies the path.
	accept := func(m *bgpwire.Update) {
		seq++
		c.record(open, m, seq)
		tu := TimedUpdate{Time: seq, PeerAS: open.AS, Update: m}
		if c.Validator != nil {
			invalid = c.Validator.observe(invalid[:0], m)
		}
		switch {
		case shared:
			c.Detector.raiseInvalid(tu, invalid)
		case c.Detector != nil:
			c.Detector.Process(tu)
		}
	}
	// handle processes one reader event other than an UPDATE; done ends
	// the session with err (nil for a clean close).
	handle := func(rr readResult) (done bool, err error) {
		if rr.err != nil {
			// A read error on a conn that load shedding closed is the
			// shed itself, not a transport fault.
			if c.wasShed(sess) {
				return true, fmt.Errorf("collector: session with %v: %w", open.AS, ErrSessionShed)
			}
			if errors.Is(rr.err, io.EOF) {
				return true, nil
			}
			return true, fmt.Errorf("collector: session with %v: %w", open.AS, rr.err)
		}
		if rr.malformed != nil {
			malformed++
			c.mu.Lock()
			c.stats.MalformedMessages++
			c.mu.Unlock()
			if malformed > c.maxMalformed() {
				c.logf("collector: closing %v after %d malformed messages (last: %v)", open.AS, malformed, rr.malformed)
				_ = tx.send(&bgpwire.Notification{Code: 1 /* message header error */}, hold)
				return true, fmt.Errorf("collector: session with %v: malformed budget exhausted: %w", open.AS, rr.malformed)
			}
			return false, nil
		}
		switch rr.msg.(type) {
		case bgpwire.Keepalive:
			// Its arrival refreshed the hold timer; nothing else to do.
		case *bgpwire.Notification:
			return true, nil // peer is closing the session
		default:
			_ = tx.send(&bgpwire.Notification{Code: 5 /* FSM error */}, hold)
			return true, fmt.Errorf("collector: unexpected %T mid-session", rr.msg)
		}
		return false, nil
	}

	for {
		select {
		case batch := <-lv.reads:
			lv.heard(batch)
			for len(batch) > 0 {
				n := leadingUpdates(batch)
				if n == 0 {
					if done, err := handle(batch[0]); done {
						return err
					}
					batch = batch[1:]
					continue
				}
				// One lock and one clock reading account the whole run;
				// the decision is still made update by update.
				admitted, shedSelf := c.noteUpdates(sess, n)
				for _, rr := range batch[:admitted] {
					accept(rr.msg.(*bgpwire.Update))
				}
				if shedSelf {
					// This session is the load-shed victim: the update
					// that found it shed is dropped, the peer gets a
					// Cease.
					_ = tx.send(&bgpwire.Notification{Code: 6 /* cease */}, hold)
					return fmt.Errorf("collector: session with %v: %w", open.AS, ErrSessionShed)
				}
				batch = batch[n:]
			}
		case <-lv.kaC:
			if err := lv.keepalive(); err != nil {
				return fmt.Errorf("collector: send KEEPALIVE to %v: %w", open.AS, err)
			}
		case <-lv.holdC:
			c.mu.Lock()
			c.stats.HoldExpiries++
			c.mu.Unlock()
			c.logf("collector: hold timer (%v) expired for %v; reaping session", hold, open.AS)
			lv.expire()
			return fmt.Errorf("collector: session with %v: hold timer expired", open.AS)
		}
	}
}

// leadingUpdates counts the UPDATEs that open batch, up to its first
// other result: the run the collector accounts in one critical section.
func leadingUpdates(batch []readResult) int {
	for i, rr := range batch {
		if _, ok := rr.msg.(*bgpwire.Update); !ok {
			return i
		}
	}
	return len(batch)
}

// record logs one update to the MRT recorder, degrading to a counted,
// logged no-op on the first write failure — a full disk must cost the
// operator the recording, not the live detection feed.
func (c *Collector) record(open *bgpwire.Open, m *bgpwire.Update, seq uint32) {
	if c.Recorder == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.Degraded {
		c.stats.RecorderDropped++
		return
	}
	err := c.Recorder.WriteBGP4MP(&mrt.BGP4MPMessage{
		Timestamp: seq,
		PeerAS:    open.AS,
		LocalAS:   c.LocalAS,
		Message:   m,
	})
	if err != nil {
		c.stats.RecorderErrors++
		c.stats.Degraded = true
		c.logf("collector: MRT recorder failed (%v); degraded mode: recording disabled, sessions stay up", err)
	}
}
