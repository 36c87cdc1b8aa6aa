package feed

import (
	"bytes"
	"context"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// numbered is an update whose first path element is its serial number.
func numbered(i int) *bgpwire.Update {
	return &bgpwire.Update{
		Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{asn.ASN(i), 65001}, NextHop: 1,
		NLRI: []prefix.Prefix{prefix.MustParse("192.0.2.0/24")},
	}
}

func serial(u *bgpwire.Update) int { return int(u.ASPath[0]) }

// serials decodes a run of back-to-back UPDATE messages into their
// serial numbers.
func serials(t *testing.T, b []byte) []int {
	t.Helper()
	var out []int
	for r := bytes.NewReader(b); r.Len() > 0; {
		msg, err := bgpwire.ReadMessage(r)
		if err != nil {
			t.Fatalf("table bytes are not whole UPDATE messages: %v", err)
		}
		out = append(out, serial(msg.(*bgpwire.Update)))
	}
	return out
}

// recordConn scripts the collector half of a handshake and then accepts
// and records every write — a collector that always keeps up.
type recordConn struct {
	mu        sync.Mutex
	script    []byte
	writes    [][]byte
	closed    chan struct{}
	closeOnce sync.Once
}

func newRecordConn(t *testing.T) *recordConn {
	t.Helper()
	return &recordConn{script: collectorScript(t), closed: make(chan struct{})}
}

func (c *recordConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if len(c.script) > 0 {
		n := copy(p, c.script)
		c.script = c.script[n:]
		c.mu.Unlock()
		return n, nil
	}
	c.mu.Unlock()
	<-c.closed
	return 0, io.EOF
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return len(p), nil
}

func (c *recordConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// updateWrites decodes every recorded write and returns, per write that
// carried UPDATEs, their serial numbers; total counts all writes.
func (c *recordConn) updateWrites(t *testing.T) (batches [][]int, total int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.writes {
		var batch []int
		for r := bytes.NewReader(w); r.Len() > 0; {
			msg, err := bgpwire.ReadMessage(r)
			if err != nil {
				t.Fatalf("a write does not hold whole, decodable frames: %v", err)
			}
			if u, ok := msg.(*bgpwire.Update); ok {
				batch = append(batch, serial(u))
			}
		}
		if batch != nil {
			batches = append(batches, batch)
		}
	}
	return batches, len(c.writes)
}

// TestTakeDrainDecision pins the drain race fix on the function that
// owns it: "nothing pending and drain requested" is one answer from one
// lock hold, so a CloseWhenDrained issued right after the last Enqueue
// is never seen without that Enqueue.
func TestTakeDrainDecision(t *testing.T) {
	r := &ProbeRunner{}
	if batch, n, drained := r.take(false); batch != nil || n != 0 || drained {
		t.Fatalf("idle runner: take = %d updates, drained %v; want nothing and keep waiting", n, drained)
	}
	r.Enqueue(numbered(1))
	r.CloseWhenDrained()
	_, n, drained := r.take(false)
	if n != 1 || drained {
		t.Fatalf("drain requested with one update pending: take = %d updates, drained %v; want the update first", n, drained)
	}
	r.advance(1)
	if _, n, drained = r.take(false); n != 0 || !drained {
		t.Fatalf("after the last write: take = %d updates, drained %v; want drained", n, drained)
	}
	// An update enqueued after the drain request still counts toward it.
	r.Enqueue(numbered(2))
	if _, n, drained = r.take(false); n != 1 || drained {
		t.Fatalf("late enqueue: take = %d updates, drained %v; want the update", n, drained)
	}

	static := &ProbeRunner{}
	static.Enqueue(numbered(1))
	if _, n, drained = static.take(true); n != 1 || drained {
		t.Fatalf("RunDrain with one pending: take = %d updates, drained %v", n, drained)
	}
	static.advance(1)
	if _, _, drained = static.take(true); !drained {
		t.Fatal("RunDrain with an empty queue is not drained")
	}
}

// TestRunnerWritesPerBatch: updates-per-write is a machine-independent
// quantity. N updates queued before the session starts, unbounded queue:
// exactly ⌈N / maxBatchUpdates⌉ writes carry them, in order, and
// RunnerStats.Writes counts every transport write the conn saw.
func TestRunnerWritesPerBatch(t *testing.T) {
	const n = 1000
	conn := newRecordConn(t)
	r := &ProbeRunner{
		AS: 65001, RouterID: 2, HoldTime: 30, MaxAttempts: 1, Clock: tick.NewFake(),
		Dial: func() (io.ReadWriteCloser, error) { return conn, nil },
	}
	for i := 1; i <= n; i++ {
		r.Enqueue(numbered(i))
	}
	if err := r.RunDrain(context.Background()); err != nil {
		t.Fatal(err)
	}
	batches, total := conn.updateWrites(t)
	if want := (n + maxBatchUpdates - 1) / maxBatchUpdates; len(batches) != want {
		t.Errorf("%d updates went out in %d writes, want %d", n, len(batches), want)
	}
	next := 1
	for i, b := range batches {
		if len(b) > maxBatchUpdates {
			t.Errorf("write %d carries %d updates, cap is %d", i, len(b), maxBatchUpdates)
		}
		for _, s := range b {
			if s != next {
				t.Fatalf("write %d carries update %d, want %d: order or completeness lost", i, s, next)
			}
			next++
		}
	}
	st := r.Stats()
	if st.Sent != n || next != n+1 {
		t.Errorf("Sent = %d, %d updates on the wire, want %d", st.Sent, next-1, n)
	}
	// OPEN + the batches + the closing Cease.
	if st.Writes != total || total != len(batches)+2 {
		t.Errorf("Writes = %d, conn saw %d writes, want both %d", st.Writes, total, len(batches)+2)
	}
}

// TestSendBatchByteCap: maximum-size messages cut a batch short at
// maxBatchBytes; the rest of the claimed batch goes back to pending and
// leaves in later writes.
func TestSendBatchByteCap(t *testing.T) {
	big := make([]prefix.Prefix, 1000) // 4 bytes each: a ~4 KB UPDATE
	for i := range big {
		big[i] = prefix.New(uint32(i)<<8, 24)
	}
	const n = 40
	conn := newRecordConn(t)
	r := &ProbeRunner{
		AS: 65001, RouterID: 2, HoldTime: 30, MaxAttempts: 1, Clock: tick.NewFake(),
		Dial: func() (io.ReadWriteCloser, error) { return conn, nil },
	}
	for i := 1; i <= n; i++ {
		u := numbered(i)
		u.NLRI = big
		r.Enqueue(u)
	}
	if err := r.RunDrain(context.Background()); err != nil {
		t.Fatal(err)
	}
	conn.mu.Lock()
	for i, w := range conn.writes {
		if len(w) > maxBatchBytes {
			t.Errorf("write %d is %d bytes, cap is %d", i, len(w), maxBatchBytes)
		}
	}
	conn.mu.Unlock()
	batches, _ := conn.updateWrites(t)
	sent := 0
	for _, b := range batches {
		sent += len(b)
	}
	if len(batches) < 2 || sent != n || r.Stats().Sent != n {
		t.Errorf("%d big updates: %d on the wire over %d writes, Sent %d; want all of them over several", n, sent, len(batches), r.Stats().Sent)
	}
}

// TestBatchPinnedAgainstShedding drives the queue primitives through a
// fixed schedule of enqueue bursts around claimed batches at every
// watermark shape: the batch in flight is never touched by a shed, what
// is written leaves in order, every shed under a roomy low watermark
// drops exactly pending−low, and Sent + Shed + Pending == enqueued holds
// after every step.
func TestBatchPinnedAgainstShedding(t *testing.T) {
	for _, maxPending := range []int{0, 1, 2, 8, 4096} {
		r := &ProbeRunner{MaxPending: maxPending}
		enqueued, lastSent := 0, 0
		check := func(when string) {
			t.Helper()
			st := r.Stats()
			if st.Sent+st.Shed+st.Pending != enqueued {
				t.Fatalf("MaxPending %d, %s: Sent %d + Shed %d + Pending %d != %d enqueued", maxPending, when, st.Sent, st.Shed, st.Pending, enqueued)
			}
		}
		enqueue := func(k int) {
			for ; k > 0; k-- {
				before := r.Stats()
				enqueued++
				r.Enqueue(numbered(enqueued))
				after := r.Stats()
				if drop := after.Shed - before.Shed; drop != 0 && r.lowPending() >= 2 {
					if want := maxPending + 1 - r.lowPending(); before.Pending != maxPending || drop != want {
						t.Fatalf("MaxPending %d: shed at pending %d dropped %d, want %d at %d whatever is in flight",
							maxPending, before.Pending+1, drop, want, maxPending+1)
					}
				}
			}
			check("after enqueue")
		}
		for step := 0; step < 400; step++ {
			enqueue(step*7%23 + 1)
			batch, n, _ := r.take(false)
			held := serials(t, batch)
			if len(held) != n {
				t.Fatalf("MaxPending %d step %d: a batch of %d updates holds %d messages", maxPending, step, n, len(held))
			}
			enqueue(step * 5 % 190) // sheds land while the batch is in flight
			r.mu.Lock()
			from := r.start(r.next)
			if !bytes.Equal(r.table[from:r.ends[r.next+n-1]], batch) || !slices.Equal(serials(t, batch), held) {
				t.Fatalf("MaxPending %d step %d: in-flight updates %v changed under a shed", maxPending, step, held)
			}
			r.mu.Unlock()
			if step%3 == 0 && n > 1 {
				n-- // a byte-capped write carries a prefix of the batch
			}
			for _, s := range held[:n] {
				if s <= lastSent {
					t.Fatalf("MaxPending %d step %d: update %d written after %d", maxPending, step, s, lastSent)
				}
				lastSent = s
			}
			r.advance(n)
			check("after advance")
		}
		if st := r.Stats(); maxPending > 0 && st.Pending > maxPending+1 {
			t.Errorf("MaxPending %d: %d pending at rest", maxPending, st.Pending)
		} else if maxPending == 0 && st.Shed != 0 {
			t.Errorf("unbounded queue shed %d updates", st.Shed)
		}
	}
}

// TestRunnerAccountsEveryUpdate is the same invariant end to end and
// concurrent (this is a -race test): a sender racing the session's
// batch writes, then CloseWhenDrained right behind the last Enqueue.
// Whatever the interleaving, every update is either on the wire, once
// and in order, or counted shed — and none is stranded.
func TestRunnerAccountsEveryUpdate(t *testing.T) {
	const n = 3000
	for _, maxPending := range []int{0, 1, 2, 8, 4096} {
		conn := newRecordConn(t)
		r := &ProbeRunner{
			AS: 65001, RouterID: 2, HoldTime: 30, MaxAttempts: 1, Clock: tick.NewFake(),
			Dial:       func() (io.ReadWriteCloser, error) { return conn, nil },
			MaxPending: maxPending,
		}
		done := make(chan error, 1)
		go func() { done <- r.Run(context.Background()) }()
		for i := 1; i <= n; i++ {
			r.Enqueue(numbered(i))
		}
		r.CloseWhenDrained()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("MaxPending %d: Run = %v", maxPending, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("MaxPending %d: runner never drained: %+v", maxPending, r.Stats())
		}
		st := r.Stats()
		if st.Pending != 0 || st.Sent+st.Shed != n {
			t.Errorf("MaxPending %d: %+v, want Pending 0 and Sent+Shed == %d", maxPending, st, n)
		}
		if maxPending == 0 && st.Shed != 0 {
			t.Errorf("unbounded queue shed %d updates", st.Shed)
		}
		batches, _ := conn.updateWrites(t)
		last, wire := 0, 0
		for _, b := range batches {
			for _, s := range b {
				if s <= last {
					t.Fatalf("MaxPending %d: update %d on the wire after %d", maxPending, s, last)
				}
				last = s
				wire++
			}
		}
		if wire != st.Sent {
			t.Errorf("MaxPending %d: %d updates on the wire, Sent = %d", maxPending, wire, st.Sent)
		}
		if last != n {
			t.Errorf("MaxPending %d: newest update on the wire is %d, want %d (the newest is never shed)", maxPending, last, n)
		}
	}
}

// deadlineLog records, for every transport Read, the read deadline armed
// since the Read before it (zero: none).
type deadlineLog struct {
	net.Conn
	mu    sync.Mutex
	armed time.Time
	reads []time.Time
}

func (d *deadlineLog) SetReadDeadline(t time.Time) error {
	d.mu.Lock()
	d.armed = t
	d.mu.Unlock()
	return d.Conn.SetReadDeadline(t)
}

func (d *deadlineLog) Read(p []byte) (int, error) {
	d.mu.Lock()
	d.reads = append(d.reads, d.armed)
	d.armed = time.Time{}
	d.mu.Unlock()
	return d.Conn.Read(p)
}

// TestReadDeadlineArmedPerTransportRead: DESIGN §8's kernel-level
// backstop. Every blocking transport Read is preceded by its own
// SetReadDeadline one hold period ahead on the injected clock — the
// local offer while the OPEN is outstanding, the negotiated minimum from
// then on — and CollectorStats.Reads counts exactly those reads.
func TestReadDeadlineArmedPerTransportRead(t *testing.T) {
	fc := tick.NewFake()
	c := &Collector{LocalAS: 65535, RouterID: 1, HoldTime: 90, Clock: fc}
	server, client := net.Pipe()
	logged := &deadlineLog{Conn: server}
	errCh := make(chan error, 1)
	go func() { errCh <- c.HandleSession(logged) }()
	peerHandshake(t, client, 30)
	_ = drainUntilNotification(client)
	for i := 1; i <= 5; i++ {
		if err := bgpwire.WriteMessage(client, numbered(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "five updates", func() bool { return c.Stats().Updates == 5 })
	client.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("session: %v", err)
	}

	logged.mu.Lock()
	defer logged.mu.Unlock()
	if len(logged.reads) < 3 {
		t.Fatalf("only %d transport reads logged", len(logged.reads))
	}
	for i, armed := range logged.reads {
		want := fc.Now().Add(30 * time.Second)
		if i == 0 {
			want = fc.Now().Add(90 * time.Second) // handshake: the local offer
		}
		if !armed.Equal(want) {
			t.Errorf("transport read %d ran under deadline %v, want %v armed just before it", i, armed, want)
		}
	}
	if got := c.Stats().Reads; got != len(logged.reads) {
		t.Errorf("CollectorStats.Reads = %d, conn saw %d reads", got, len(logged.reads))
	}
}

// TestHoldTimerReapsTricklingPeer: the hold timer is re-armed per batch,
// and a batch can be a single frame. A peer trickling one frame per read
// inside the hold window stays up; once it stops, it is reaped exactly
// one hold period after its last frame — not earlier, not never.
func TestHoldTimerReapsTricklingPeer(t *testing.T) {
	fc := tick.NewFake()
	c := &Collector{LocalAS: 65535, RouterID: 1, HoldTime: 90, Clock: fc}
	server, client := net.Pipe()
	defer client.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- c.HandleSession(server) }()
	peerHandshake(t, client, 90)
	notifCh := drainUntilNotification(client)

	fc.BlockUntilTimers(2)
	for i := 1; i <= 4; i++ {
		fc.Advance(60 * time.Second)
		if err := bgpwire.WriteMessage(client, numbered(i)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the trickled update", func() bool { return c.Stats().Updates == i })
	}
	fc.Advance(89 * time.Second)
	select {
	case err := <-errCh:
		t.Fatalf("reaped 89s after the last frame of a 90s hold: %v", err)
	default:
	}
	fc.Advance(2 * time.Second)
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "hold timer expired") {
			t.Fatalf("session error = %v, want hold timer expiry", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("silent peer was not reaped 91s after its last frame")
	}
	if n, ok := <-notifCh; !ok || n.Code != 4 {
		t.Errorf("NOTIFICATION = %+v (ok=%v), want code 4 (hold timer expired)", n, ok)
	}
	if st := c.Stats(); st.HoldExpiries != 1 {
		t.Errorf("HoldExpiries = %d, want 1", st.HoldExpiries)
	}
}
