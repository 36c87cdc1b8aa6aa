package feed

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// TestRunnerBackoffSchedule: with a fake clock and no jitter, the
// reconnect delays must follow the exact capped-exponential schedule —
// base, 2×, 4×, capped — with no wall-clock time passing.
func TestRunnerBackoffSchedule(t *testing.T) {
	fc := tick.NewFake()
	dialErr := errors.New("connection refused")
	r := &ProbeRunner{
		AS: 65001, RouterID: 1,
		Dial:        func() (io.ReadWriteCloser, error) { return nil, dialErr },
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  800 * time.Millisecond,
		MaxAttempts: 6,
		Clock:       fc,
	}
	done := make(chan error, 1)
	go func() { done <- r.Run(context.Background()) }()

	// 6 attempts → 5 sleeps: 100, 200, 400, 800, 800 (capped).
	want := []time.Duration{100, 200, 400, 800, 800}
	for i, w := range want {
		fc.BlockUntilTimers(1)
		d, ok := fc.AdvanceToNext()
		if !ok || d != w*time.Millisecond {
			t.Fatalf("sleep %d = %v (ok=%v), want %v", i+1, d, ok, w*time.Millisecond)
		}
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "giving up after 6") {
			t.Fatalf("Run = %v, want give-up error after 6 attempts", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runner never gave up")
	}
	if st := r.Stats(); st.Dials != 6 {
		t.Errorf("Dials = %d, want 6", st.Dials)
	}
}

// TestRunnerBackoffJitter: a seeded jitter source keeps every delay
// inside [d/2, d) and stays reproducible across runs with the same
// seed.
func TestRunnerBackoffJitter(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		r := &ProbeRunner{
			BackoffBase: 100 * time.Millisecond,
			BackoffMax:  800 * time.Millisecond,
			Jitter:      rand.New(rand.NewSource(seed)),
		}
		var out []time.Duration
		for n := 1; n <= 5; n++ {
			out = append(out, r.backoff(n))
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	full := []time.Duration{100, 200, 400, 800, 800}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("delay %d not reproducible: %v vs %v", i, a[i], b[i])
		}
		d := full[i] * time.Millisecond
		if a[i] < d/2 || a[i] >= d {
			t.Errorf("delay %d = %v outside [%v, %v)", i, a[i], d/2, d)
		}
	}
}

// TestRunnerReconnectsAndRetransmits: when the first session dies under
// the runner, it must reconnect with backoff and re-announce its full
// table, so the collector's detector still sees every update.
func TestRunnerReconnectsAndRetransmits(t *testing.T) {
	var store rpki.Store
	if err := store.Add(rpki.ROA{Prefix: prefix.MustParse("10.0.0.0/16"), MaxLength: 24, Origin: 100}); err != nil {
		t.Fatal(err)
	}
	det := NewDetector(&store, nil)
	det.NotePublished(prefix.MustParse("10.0.0.0/16"))
	collector := &Collector{LocalAS: 65535, RouterID: 1, Detector: det}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The first accepted session handshakes and then slams the
	// connection shut; later sessions get the real collector.
	var first atomic.Bool
	first.Store(true)
	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			doomed := first.CompareAndSwap(true, false)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if doomed {
					if _, err := bgpwire.ReadMessage(conn); err == nil {
						_ = bgpwire.WriteMessage(conn, &bgpwire.Open{Version: 4, AS: 65535, HoldTime: 90, RouterID: 1})
						_ = bgpwire.WriteMessage(conn, bgpwire.Keepalive{})
					}
					conn.Close()
					return
				}
				_ = collector.HandleSession(conn)
			}()
		}
	}()

	r := &ProbeRunner{
		AS: 65001, RouterID: 2,
		Dial: func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
		},
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	// One benign update and one alert-raiser.
	r.Enqueue(&bgpwire.Update{
		Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001, 100}, NextHop: 1,
		NLRI: []prefix.Prefix{prefix.MustParse("10.0.0.0/16")},
	})
	r.Enqueue(&bgpwire.Update{
		Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001, 666}, NextHop: 1,
		NLRI: []prefix.Prefix{prefix.MustParse("10.0.0.0/16")},
	})

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- r.Run(ctx) }()

	deadline := time.Now().Add(20 * time.Second)
	for len(det.Alerts()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alert never delivered through reconnects")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-runDone; err != context.Canceled {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
	st := r.Stats()
	if st.Sessions < 2 || st.Reconnects < 1 {
		t.Errorf("stats = %+v, want ≥2 sessions and ≥1 reconnect", st)
	}
	l.Close()
	wg.Wait()
	if n := len(det.Alerts()); n != 1 {
		t.Errorf("alerts = %d, want exactly 1 (retransmissions must deduplicate)", n)
	}
}

// TestEnqueueShedOldest pins the watermark arithmetic without a session:
// every Enqueue past MaxPending sheds the oldest unsent updates down to
// LowPending, never the newest.
func TestEnqueueShedOldest(t *testing.T) {
	r := &ProbeRunner{MaxPending: 8, LowPending: 4}
	for i := 0; i < 20; i++ {
		r.Enqueue(&bgpwire.Update{
			Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{asn.ASN(i + 1)}, NextHop: 1,
			NLRI: []prefix.Prefix{prefix.MustParse("192.0.2.0/24")},
		})
		if p := r.Pending(); p > r.MaxPending+1 {
			t.Fatalf("pending = %d after enqueue %d, want ≤ %d", p, i, r.MaxPending+1)
		}
	}
	// 20 enqueues: pending hits 9 at #9 (shed 5 → 4), again at #14 and
	// #19 — 15 shed, 5 pending.
	st := r.Stats()
	if st.Shed != 15 || st.Pending != 5 {
		t.Errorf("stats = %+v, want Shed 15 / Pending 5", st)
	}
	// The newest update must have survived every shed.
	r.mu.Lock()
	last, err := bgpwire.Unmarshal(r.table[r.start(len(r.ends)-1):])
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := last.(*bgpwire.Update).ASPath[0]; got != 20 {
		t.Errorf("newest queued update is from AS %v, want 20", got)
	}
	// Unbounded runner never sheds.
	u := &ProbeRunner{}
	for i := 0; i < 100; i++ {
		u.Enqueue(&bgpwire.Update{})
	}
	if st := u.Stats(); st.Shed != 0 || st.Pending != 100 {
		t.Errorf("unbounded stats = %+v, want Shed 0 / Pending 100", st)
	}
}

// stalledConn scripts the collector half of a handshake from a buffer,
// lets the probe's OPEN through, and then blocks every later write until
// Close — a collector that accepted the session and stopped reading.
type stalledConn struct {
	mu         sync.Mutex
	script     []byte // collector→probe bytes served by Read
	wrote      int
	stalled    chan struct{} // closed when a post-handshake write blocks
	starved    chan struct{} // closed when a read finds the script spent and blocks
	closed     chan struct{}
	stallOnce  sync.Once
	starveOnce sync.Once
	closeOnce  sync.Once
}

// collectorScript is the collector half of a handshake as wire bytes:
// OPEN (hold 30s) then KEEPALIVE.
func collectorScript(t *testing.T) []byte {
	t.Helper()
	var script bytes.Buffer
	for _, msg := range []any{&bgpwire.Open{Version: 4, AS: 65535, HoldTime: 30, RouterID: 1}, bgpwire.Keepalive{}} {
		if err := bgpwire.WriteMessage(&script, msg); err != nil {
			t.Fatal(err)
		}
	}
	return script.Bytes()
}

func newStalledConn(t *testing.T) *stalledConn {
	t.Helper()
	return &stalledConn{
		script:  collectorScript(t),
		stalled: make(chan struct{}),
		starved: make(chan struct{}),
		closed:  make(chan struct{}),
	}
}

func (c *stalledConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if len(c.script) > 0 {
		n := copy(p, c.script)
		c.script = c.script[n:]
		c.mu.Unlock()
		return n, nil
	}
	c.mu.Unlock()
	c.starveOnce.Do(func() { close(c.starved) })
	<-c.closed
	return 0, io.EOF
}

func (c *stalledConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote++
	first := c.wrote == 1
	c.mu.Unlock()
	if first {
		return len(p), nil // the probe's OPEN
	}
	c.stallOnce.Do(func() { close(c.stalled) })
	<-c.closed
	return 0, io.ErrClosedPipe
}

func (c *stalledConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// TestRunnerBoundedUnderStalledTransport: with a collector that stops
// reading mid-session, a MaxPending-bounded runner must keep accepting
// Enqueues at bounded memory, shedding an exactly predictable count —
// all under a fake clock, so no wall time passes and no timer fires.
func TestRunnerBoundedUnderStalledTransport(t *testing.T) {
	fc := tick.NewFake()
	conn := newStalledConn(t)
	r := &ProbeRunner{
		AS: 65001, RouterID: 2,
		Dial: func() (io.ReadWriteCloser, error) {
			select {
			case <-conn.closed:
				return nil, errors.New("no second conn in this test")
			default:
				return conn, nil
			}
		},
		HoldTime:    30,
		MaxAttempts: 1,
		Clock:       fc,
		MaxPending:  8,
		LowPending:  4,
	}
	r.Enqueue(&bgpwire.Update{
		Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001}, NextHop: 1,
		NLRI: []prefix.Prefix{prefix.MustParse("192.0.2.0/24")},
	})
	done := make(chan error, 1)
	go func() { done <- r.Run(context.Background()) }()

	// Wait until the first update's write is wedged in the stalled
	// transport, so the shed arithmetic below is exact: the in-flight
	// update is pinned, every shed drops 5.
	select {
	case <-conn.stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("session never reached the stalled write")
	}
	for i := 1; i < 100; i++ {
		r.Enqueue(&bgpwire.Update{
			Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{asn.ASN(i + 1)}, NextHop: 1,
			NLRI: []prefix.Prefix{prefix.MustParse("192.0.2.0/24")},
		})
		if p := r.Pending(); p > r.MaxPending+1 {
			t.Fatalf("pending = %d after enqueue %d, want ≤ %d", p, i, r.MaxPending+1)
		}
	}
	// 100 enqueues against a stalled session: sheds of 5 fire at #9,
	// #14, …, #99 → exactly 95 shed, 5 pending, none sent.
	st := r.Stats()
	if st.Shed != 95 || st.Pending != 5 || st.Sent != 0 {
		t.Errorf("stats = %+v, want Shed 95 / Pending 5 / Sent 0", st)
	}

	conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Run = nil, want terminal error after the stalled session died")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runner never exited after conn close")
	}
}

// TestRunnerCancelClosesWedgedTransport: a runner owns its transport's
// teardown. Over a conn with no deadlines, a runner cancelled while it
// is wedged in a write the collector never reads, or in a handshake
// read the collector never answers, must close the conn itself and
// return context.Canceled: nothing else holds the conn to close it.
func TestRunnerCancelClosesWedgedTransport(t *testing.T) {
	for _, tc := range []struct {
		name      string
		handshake bool // whether the collector answers the OPEN
	}{{"write", true}, {"handshake read", false}} {
		t.Run(tc.name, func(t *testing.T) {
			conn := newStalledConn(t)
			wedged := conn.stalled
			if !tc.handshake {
				conn.script, wedged = nil, conn.starved
			}
			r := &ProbeRunner{
				AS: 65001, RouterID: 2,
				Dial:        func() (io.ReadWriteCloser, error) { return conn, nil },
				HoldTime:    30,
				MaxAttempts: 1,
				Clock:       tick.NewFake(),
			}
			if err := r.Enqueue(&bgpwire.Update{
				Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001}, NextHop: 1,
				NLRI: []prefix.Prefix{prefix.MustParse("192.0.2.0/24")},
			}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- r.Run(ctx) }()
			select {
			case <-wedged:
			case <-time.After(10 * time.Second):
				t.Fatal("session never wedged")
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("Run = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled runner never returned: nothing closed its wedged transport")
			}
		})
	}
}

// TestRunnerProbeSideHoldTimer: a collector that completes the
// handshake and then falls silent must trip the probe-side hold timer
// — driven entirely by the fake clock.
func TestRunnerProbeSideHoldTimer(t *testing.T) {
	fc := tick.NewFake()
	server, client := net.Pipe()
	defer server.Close()
	// Scripted collector: handshake, then eternal silence (but keep
	// reading so probe writes never block).
	go func() {
		if _, err := bgpwire.ReadMessage(server); err != nil {
			return
		}
		_ = bgpwire.WriteMessage(server, &bgpwire.Open{Version: 4, AS: 65535, HoldTime: 30, RouterID: 1})
		_ = bgpwire.WriteMessage(server, bgpwire.Keepalive{})
		for {
			if _, err := bgpwire.ReadMessage(server); err != nil {
				return
			}
		}
	}()

	dialed := make(chan struct{})
	r := &ProbeRunner{
		AS: 65001, RouterID: 2,
		Dial: func() (io.ReadWriteCloser, error) {
			select {
			case <-dialed:
				return nil, errors.New("no second conn in this test")
			default:
			}
			close(dialed)
			return client, nil
		},
		HoldTime:    30,
		MaxAttempts: 1, // surface the session error instead of retrying
		Clock:       fc,
	}
	done := make(chan error, 1)
	go func() { done <- r.Run(context.Background()) }()

	<-dialed
	fc.BlockUntilTimers(2) // session armed hold + keepalive timers
	fc.Advance(31 * time.Second)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "hold timer") {
			t.Fatalf("Run = %v, want probe-side hold expiry", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("probe never tripped its hold timer")
	}
}

// TestRunnerRejectsBadCollectorOpen: Probe.Dial validation — version
// and zero/short hold times — must surface through the runner as
// handshake failures that count against MaxAttempts.
func TestRunnerRejectsBadCollectorOpen(t *testing.T) {
	cases := []struct {
		name string
		open *bgpwire.Open
	}{
		{"version 3", &bgpwire.Open{Version: 3, AS: 65535, HoldTime: 90, RouterID: 1}},
		{"zero hold", &bgpwire.Open{Version: 4, AS: 65535, HoldTime: 0, RouterID: 1}},
		{"hold below floor", &bgpwire.Open{Version: 4, AS: 65535, HoldTime: 2, RouterID: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			server, client := net.Pipe()
			defer server.Close()
			go func() {
				if _, err := bgpwire.ReadMessage(server); err != nil {
					return
				}
				_ = bgpwire.WriteMessage(server, tc.open)
				// No KEEPALIVE: a rejecting probe never reads one, and an
				// unread write would wedge both sides of the pipe. Drain
				// the probe's OPEN-error NOTIFICATION instead.
				for {
					if _, err := bgpwire.ReadMessage(server); err != nil {
						return
					}
				}
			}()
			p := &Probe{AS: 65001, RouterID: 2}
			if err := p.Dial(client); err == nil {
				t.Fatal("Dial accepted a bad collector OPEN")
			}
		})
	}
}

// TestProbeNegotiatedHold: the session hold time is the minimum of both
// offers.
func TestProbeNegotiatedHold(t *testing.T) {
	cases := []struct {
		mine, theirs uint16
		want         time.Duration
	}{
		{90, 30, 30 * time.Second},
		{30, 90, 30 * time.Second},
		{180, 180, 180 * time.Second},
	}
	for _, tc := range cases {
		server, client := net.Pipe()
		go func() {
			if _, err := bgpwire.ReadMessage(server); err != nil {
				return
			}
			_ = bgpwire.WriteMessage(server, &bgpwire.Open{Version: 4, AS: 65535, HoldTime: tc.theirs, RouterID: 1})
			_ = bgpwire.WriteMessage(server, bgpwire.Keepalive{})
			// Keep draining so the probe's Cease write can complete:
			// net.Pipe writes block until read.
			for {
				if _, err := bgpwire.ReadMessage(server); err != nil {
					return
				}
			}
		}()
		p := &Probe{AS: 65001, RouterID: 2, HoldTime: tc.mine}
		if err := p.Dial(client); err != nil {
			t.Fatalf("hold %d/%d: %v", tc.mine, tc.theirs, err)
		}
		if got := p.NegotiatedHold(); got != tc.want {
			t.Errorf("NegotiatedHold(%d,%d) = %v, want %v", tc.mine, tc.theirs, got, tc.want)
		}
		_ = p.Close()
		server.Close()
	}
}

// TestRunnerDrainMode: RunDrain returns once the table is written and
// the collector has been sent a Cease.
func TestRunnerDrainMode(t *testing.T) {
	var store rpki.Store
	det := NewDetector(&store, nil)
	collector := &Collector{LocalAS: 65535, RouterID: 1, Detector: det}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = collector.Serve(l)
	}()

	r := &ProbeRunner{
		AS: 65001, RouterID: 2,
		Dial: func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
		},
	}
	for i := 0; i < 3; i++ {
		r.Enqueue(&bgpwire.Update{
			Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001}, NextHop: 1,
			NLRI: []prefix.Prefix{prefix.MustParse("192.0.2.0/24")},
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := r.RunDrain(ctx); err != nil {
		t.Fatalf("RunDrain: %v", err)
	}
	st := r.Stats()
	if st.Sent != 3 || st.Pending != 0 {
		t.Errorf("stats = %+v, want 3 sent / 0 pending", st)
	}
	l.Close()
	if err := collector.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-serveDone
}

// TestUnencodableUpdateRefused: an update that cannot be encoded is
// refused at Enqueue and never enters the table, so the good updates on
// either side of it still arrive. A runner that took it in would fail
// every send on every session, and since each handshake resets the
// failure count it would reconnect forever without delivering even the
// update before it. EnqueueWire refuses what is not one whole UPDATE.
func TestUnencodableUpdateRefused(t *testing.T) {
	rs := NewRouteServer(&rpki.Store{})
	collector := &Collector{LocalAS: 65535, RouterID: 1, Detector: NewDetector(rs, nil), Validator: rs}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = collector.Serve(l)
	}()
	r := &ProbeRunner{
		AS: 65001, RouterID: 2, BackoffBase: time.Millisecond, MaxAttempts: 3,
		Dial: func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
		},
	}
	good := func(i int) *bgpwire.Update {
		return &bgpwire.Update{
			Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001, asn.ASN(100 + i)}, NextHop: 1,
			NLRI: []prefix.Prefix{prefix.New(uint32(i)<<8|0xc0000200, 24)},
		}
	}
	if err := r.Enqueue(good(0)); err != nil {
		t.Fatal(err)
	}
	bad := good(1)
	bad.Origin = 7
	if err := r.Enqueue(bad); err == nil || !strings.Contains(err.Error(), "ORIGIN") {
		t.Fatalf("Enqueue(ORIGIN 7) = %v, want the encode error", err)
	}
	keepalive, err := bgpwire.Marshal(bgpwire.Keepalive{})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := bgpwire.Marshal(good(2))
	if err != nil {
		t.Fatal(err)
	}
	badMarker := append([]byte(nil), wire...)
	badMarker[3] = 0
	for i, msg := range [][]byte{keepalive, badMarker, wire[:len(wire)-1]} {
		if err := r.EnqueueWire(msg); err == nil {
			t.Errorf("EnqueueWire accepted bad message %d: % x", i, msg)
		}
	}
	if err := r.EnqueueWire(wire); err != nil {
		t.Fatal(err)
	}
	if p := r.Pending(); p != 2 {
		t.Fatalf("%d updates pending, want the 2 good ones", p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := r.RunDrain(ctx); err != nil {
		t.Fatalf("RunDrain: %v", err)
	}
	if st := r.Stats(); st.Sent != 2 || st.Sessions != 1 {
		t.Errorf("stats = %+v, want 2 sent over 1 session", st)
	}
	l.Close()
	if err := collector.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-serveDone
	if obs := rs.Stats().Observed; obs != 2 {
		t.Errorf("collector observed %d announcements, want 2", obs)
	}
}
