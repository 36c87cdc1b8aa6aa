package feed

import (
	"errors"
	"fmt"
	"io"
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

	clock := c.clock()
	localHold := time.Duration(c.holdTime()) * time.Second
	handshakeDeadline := clock.Now().Add(localHold)
	// One frame reader for the whole session, handshake included: what it
	// reads ahead of the OPEN is the start of the update stream.
	dr := &deadlineReader{conn: conn, clock: clock, hold: localHold, reads: &c.reads}
	in := bgpwire.NewFrameReader(dr)
	msg, err := in.ReadMessage()
	if err != nil {
		return fmt.Errorf("collector: read OPEN: %w", err)
	}
	open, ok := msg.(*bgpwire.Open)
	if !ok {
		return fmt.Errorf("collector: expected OPEN, got %T", msg)
	}
	if err := validateOpen(open, true); err != nil {
		_ = bgpwire.WriteMessageDeadline(conn, &bgpwire.Notification{Code: 2, Subcode: openErrSubcode(open)}, handshakeDeadline)
		return fmt.Errorf("collector: %w", err)
	}
	c.noteOpen(sess, open.AS)
	if err := bgpwire.WriteMessageDeadline(conn, &bgpwire.Open{
		Version: 4, AS: c.LocalAS, HoldTime: c.holdTime(), RouterID: c.RouterID,
	}, handshakeDeadline); err != nil {
		return fmt.Errorf("collector: send OPEN: %w", err)
	}
	if err := bgpwire.WriteMessageDeadline(conn, bgpwire.Keepalive{}, handshakeDeadline); err != nil {
		return fmt.Errorf("collector: send KEEPALIVE: %w", err)
	}
	hold := negotiateHold(c.holdTime(), open.HoldTime)
	dr.setHold(hold)

	readCh := make(chan []readResult)
	readerDone := make(chan struct{})
	defer close(readerDone)
	go readLoop(in, readCh, readerDone)

	// A negotiated hold of 0 disables both timers; nil channels keep
	// those select arms permanently silent.
	var holdT, kaT tick.Timer
	var holdC, kaC <-chan time.Time
	if hold > 0 {
		holdT = clock.NewTimer(hold)
		holdC = holdT.C()
		kaT = clock.NewTimer(hold / 3)
		kaC = kaT.C()
		defer holdT.Stop()
		defer kaT.Stop()
	}

	writeDeadline := func() time.Time {
		if hold == 0 {
			return time.Time{}
		}
		return clock.Now().Add(hold)
	}

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
				_ = bgpwire.WriteMessageDeadline(conn, &bgpwire.Notification{Code: 1 /* message header error */}, writeDeadline())
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
			_ = bgpwire.WriteMessageDeadline(conn, &bgpwire.Notification{Code: 5 /* FSM error */}, writeDeadline())
			return true, fmt.Errorf("collector: unexpected %T mid-session", rr.msg)
		}
		return false, nil
	}

	for {
		select {
		case batch := <-readCh:
			// Any received message, even a malformed one, proves liveness:
			// one re-arm covers the whole batch.
			if hold > 0 && batch[0].err == nil {
				tick.Rearm(holdT, hold)
			}
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
					_ = bgpwire.WriteMessageDeadline(conn, &bgpwire.Notification{Code: 6 /* cease */}, writeDeadline())
					return fmt.Errorf("collector: session with %v: %w", open.AS, ErrSessionShed)
				}
				batch = batch[n:]
			}
		case <-kaC:
			if err := bgpwire.WriteMessageDeadline(conn, bgpwire.Keepalive{}, writeDeadline()); err != nil {
				return fmt.Errorf("collector: send KEEPALIVE to %v: %w", open.AS, err)
			}
			tick.Rearm(kaT, hold/3)
		case <-holdC:
			c.mu.Lock()
			c.stats.HoldExpiries++
			c.mu.Unlock()
			c.logf("collector: hold timer (%v) expired for %v; reaping session", hold, open.AS)
			_ = bgpwire.WriteMessageDeadline(conn, &bgpwire.Notification{Code: 4 /* hold timer expired */}, writeDeadline())
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
