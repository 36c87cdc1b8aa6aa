package firehose_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/feed"
	"github.com/bgpsim/bgpsim/internal/firehose"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// -firehose.update regenerates the checked-in fixtures from the
// generators in incident.go:
//
//	go test ./internal/firehose/ -run 'Fixtures|PinnedDigest' -args -firehose.update
var updateFixtures = flag.Bool("firehose.update", false, "rewrite testdata fixtures from the incident generators")

func fixturePath(name string) string { return filepath.Join("testdata", name) }

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(fixturePath(name))
	if err != nil {
		t.Fatalf("read fixture %s (regenerate with -args -firehose.update): %v", name, err)
	}
	return b
}

// genROAs renders IncidentROAs in the "prefix maxlen origin" line format
// rpki.LoadROAs and cmd/mrtreplay consume.
func genROAs() []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# route origin authorizations in force during the incident\n")
	for _, roa := range firehose.IncidentROAs() {
		fmt.Fprintf(&buf, "%v %d %d\n", roa.Prefix, roa.MaxLength, roa.Origin.Uint32())
	}
	return buf.Bytes()
}

// TestFixturesInSync pins the checked-in MRT fixtures byte-for-byte to
// the generators, so fixture edits can only happen deliberately via
// -firehose.update.
func TestFixturesInSync(t *testing.T) {
	var rib, upd bytes.Buffer
	if err := firehose.WriteIncidentRIB(&rib); err != nil {
		t.Fatal(err)
	}
	if err := firehose.WriteIncidentUpdates(&upd); err != nil {
		t.Fatal(err)
	}
	gen := map[string][]byte{
		"incident_rib.mrt":  rib.Bytes(),
		"incident.mrt":      upd.Bytes(),
		"incident_roas.txt": genROAs(),
	}
	if *updateFixtures {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"incident_rib.mrt", "incident.mrt", "incident_roas.txt"} {
			if err := os.WriteFile(fixturePath(name), gen[name], 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", fixturePath(name), len(gen[name]))
		}
		return
	}
	for _, name := range []string{"incident_rib.mrt", "incident.mrt", "incident_roas.txt"} {
		if got := readFixture(t, name); !bytes.Equal(got, gen[name]) {
			t.Errorf("%s is out of sync with its generator (%d vs %d bytes); regenerate with -args -firehose.update", name, len(got), len(gen[name]))
		}
	}
}

// incidentDetector builds the detection stack the incident replay runs
// against: the ROAs in force, one route-server validator at the
// collector boundary, and a detector sharing its verdicts.
func incidentDetector(t *testing.T) (*feed.Detector, *feed.RouteServer) {
	t.Helper()
	var store rpki.Store
	rs := feed.NewRouteServer(&store)
	det := feed.NewDetector(rs, nil)
	for _, roa := range firehose.IncidentROAs() {
		if err := store.Add(roa); err != nil {
			t.Fatal(err)
		}
		det.NotePublished(roa.Prefix)
	}
	return det, rs
}

// pipeCollector starts a collector and returns a Dial that opens
// net.Pipe sessions into it. sessions.Wait() joins every session
// goroutine; the engine's drain closes all conns, so the join cannot
// hang.
func pipeCollector(t *testing.T, det *feed.Detector, rs *feed.RouteServer, clock tick.Clock) (*feed.Collector, func() (io.ReadWriteCloser, error), *sync.WaitGroup) {
	t.Helper()
	c := &feed.Collector{
		LocalAS: 65535, RouterID: 1,
		Clock:     clock,
		Detector:  det,
		Validator: rs,
	}
	var sessions sync.WaitGroup
	dial := func() (io.ReadWriteCloser, error) {
		server, client := net.Pipe()
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			_ = c.HandleSession(server)
		}()
		return client, nil
	}
	return c, dial, &sessions
}

// replayIncident runs the checked-in incident fixture through a full
// pipe-backed stack and returns the stats and the detector.
func replayIncident(t *testing.T, sessions int) (firehose.Stats, *feed.Detector) {
	t.Helper()
	det, rs := incidentDetector(t)
	_, dial, join := pipeCollector(t, det, rs, tick.NewFake())
	e := firehose.New(firehose.Config{
		RIB:      bytes.NewReader(readFixture(t, "incident_rib.mrt")),
		Updates:  bytes.NewReader(readFixture(t, "incident.mrt")),
		Dial:     dial,
		Sessions: sessions,
		Clock:    tick.NewFake(),
	})
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	join.Wait()
	return stats, det
}

// TestIncidentReplayPinnedDigest is the fixture's contract: the damaged
// update stream replays to exactly IncidentAlerts alerts whose set
// digest matches the checked-in testdata/incident.digest — two records
// skipped, the truncated tail detected, nothing shed and nothing lost.
func TestIncidentReplayPinnedDigest(t *testing.T) {
	stats, det := replayIncident(t, 0)

	peers := len(firehose.IncidentPeers())
	wantRoutes := peers * 5 // the victim /22 plus four padding prefixes, per peer
	if stats.RIBRoutes != wantRoutes {
		t.Errorf("RIBRoutes = %d, want %d", stats.RIBRoutes, wantRoutes)
	}
	if stats.Peers != peers || stats.Sessions != peers {
		t.Errorf("Peers/Sessions = %d/%d, want %d/%d", stats.Peers, stats.Sessions, peers, peers)
	}
	wantUpdates := wantRoutes + 7 // the seven BGP4MP events in incidentEvents
	if stats.Updates != wantUpdates || stats.Sent != wantUpdates {
		t.Errorf("Updates/Sent = %d/%d, want %d/%d (every dispatched update written)", stats.Updates, stats.Sent, wantUpdates, wantUpdates)
	}
	if stats.Skipped != 2 {
		t.Errorf("Skipped = %d, want 2 (one unknown type, one malformed body)", stats.Skipped)
	}
	if !stats.Truncated {
		t.Error("Truncated = false, want true (the fixture ends mid-record)")
	}
	if stats.Shed != 0 {
		t.Errorf("Shed = %d, want 0 (nothing backpressured this replay)", stats.Shed)
	}

	alerts := det.Alerts()
	if len(alerts) != firehose.IncidentAlerts {
		t.Fatalf("alerts = %d, want %d", len(alerts), firehose.IncidentAlerts)
	}
	var sub, invalid int
	for _, a := range alerts {
		switch a.Reason {
		case feed.ReasonSubPrefix:
			sub++
		case feed.ReasonInvalidOrigin:
			invalid++
		}
		if a.Origin != firehose.IncidentHijackerAS {
			t.Errorf("alert %v origin = %v, want %v", a.Prefix, a.Origin, firehose.IncidentHijackerAS)
		}
	}
	if sub != 4 || invalid != 1 {
		t.Errorf("reasons = %d sub-prefix / %d invalid-origin, want 4/1", sub, invalid)
	}

	digest := feed.AlertSetDigest(alerts)
	got := hex.EncodeToString(digest[:]) + "\n"
	if *updateFixtures {
		if err := os.WriteFile(fixturePath("incident.digest"), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s", fixturePath("incident.digest"), got)
		return
	}
	if want := string(readFixture(t, "incident.digest")); got != want {
		t.Errorf("alert-set digest = %s, pinned %s", got, want)
	}
}

// TestReplaySessionCoalescing: capping Sessions below the peer count
// funnels peers onto shared slots deterministically — the alert set stays
// complete and two identical runs agree byte-for-byte.
func TestReplaySessionCoalescing(t *testing.T) {
	stats1, det1 := replayIncident(t, 2)
	if stats1.Sessions != 2 {
		t.Errorf("Sessions = %d, want 2", stats1.Sessions)
	}
	if stats1.Peers != len(firehose.IncidentPeers()) {
		t.Errorf("Peers = %d, want %d (coalescing must not hide peers)", stats1.Peers, len(firehose.IncidentPeers()))
	}
	if n := len(det1.Alerts()); n != firehose.IncidentAlerts {
		t.Fatalf("alerts = %d, want %d", n, firehose.IncidentAlerts)
	}
	_, det2 := replayIncident(t, 2)
	if feed.AlertSetDigest(det1.Alerts()) != feed.AlertSetDigest(det2.Alerts()) {
		t.Error("two identical coalesced replays produced different digests")
	}
}

// TestReplayPacing: with Speed set, the engine spaces dispatches by the
// records' timestamp deltas on the injected clock — 9 seconds of capture
// at Speed 2 must advance the fake clock by at least 4.5 seconds.
func TestReplayPacing(t *testing.T) {
	var buf bytes.Buffer
	for i, ts := range []uint32{10, 13, 19} {
		mw := mrt.NewWriter(&buf, ts)
		err := mw.WriteBGP4MP(&mrt.BGP4MPMessage{
			Timestamp: ts, PeerAS: 65001, LocalAS: 65535, PeerAddr: 1, LocalAddr: 2,
			Message: &bgpwire.Update{
				Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001}, NextHop: 1,
				NLRI: []prefix.Prefix{prefix.New(uint32(0xC6336400+i*4), 30)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mw.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// A write-sink transport stands in for the collector: pacing happens
	// in the dispatch loop, and a synchronous pipe would deadlock the
	// clock driver against keepalive timers it happens to fire.
	fc := tick.NewFake()
	e := firehose.New(firehose.Config{
		Updates: bytes.NewReader(buf.Bytes()),
		Dial:    func() (io.ReadWriteCloser, error) { return newSinkConn(t), nil },
		Speed:   2,
		Clock:   fc,
	})
	start := fc.Now()
	var stats firehose.Stats
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		stats, runErr = e.Run(context.Background())
	}()
	// Drive the fake clock: fire whichever timer is due next until the
	// replay completes. Only pacing timers have near deadlines, so the
	// clock advances by the scaled capture gaps.
	for {
		select {
		case <-done:
			if runErr != nil {
				t.Fatalf("replay: %v", runErr)
			}
			if stats.Updates != 3 {
				t.Errorf("Updates = %d, want 3", stats.Updates)
			}
			if elapsed := fc.Now().Sub(start); elapsed < 4500*time.Millisecond {
				t.Errorf("fake clock advanced %v, want ≥ 4.5s (9s of capture at Speed 2)", elapsed)
			}
			return
		default:
		}
		if _, ok := fc.AdvanceToNext(); !ok {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// sinkConn scripts the collector half of a handshake and then accepts
// every write — a collector that always keeps up, for tests where only
// the dispatch side matters.
type sinkConn struct {
	mu        sync.Mutex
	script    []byte
	closed    chan struct{}
	closeOnce sync.Once
}

func newSinkConn(t *testing.T) *sinkConn {
	t.Helper()
	var script bytes.Buffer
	if err := bgpwire.WriteMessage(&script, &bgpwire.Open{Version: 4, AS: 65535, HoldTime: 30, RouterID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := bgpwire.WriteMessage(&script, bgpwire.Keepalive{}); err != nil {
		t.Fatal(err)
	}
	return &sinkConn{script: script.Bytes(), closed: make(chan struct{})}
}

func (c *sinkConn) Read(p []byte) (int, error) {
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

func (c *sinkConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, io.ErrClosedPipe
	default:
		return len(p), nil
	}
}

func (c *sinkConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// TestReplayDrainNeverStrands: the drain request lands right behind the
// last Enqueue while sessions that keep up with dispatch sit on empty
// queues — the window in which a runner that decided "empty" and
// "draining" under separate lock holds closed its session over pending
// updates and reported success. Hundreds of short replays (this is a
// -race test) must each write everything they dispatched.
func TestReplayDrainNeverStrands(t *testing.T) {
	var buf bytes.Buffer
	mw := mrt.NewWriter(&buf, 0)
	for i := 0; i < 120; i++ {
		err := mw.WriteBGP4MP(&mrt.BGP4MPMessage{
			PeerAS: asn.FromUint32(uint32(65001 + i%3)), LocalAS: 65535, PeerAddr: 1, LocalAddr: 2,
			Message: &bgpwire.Update{
				Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{asn.FromUint32(uint32(65001 + i%3)), 100}, NextHop: 1,
				NLRI: []prefix.Prefix{prefix.New(uint32(0x0A000000+i*256), 24)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		e := firehose.New(firehose.Config{
			Updates: bytes.NewReader(buf.Bytes()),
			Dial:    func() (io.ReadWriteCloser, error) { return newSinkConn(t), nil },
			Clock:   tick.NewFake(),
		})
		stats, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if stats.Updates != 120 || stats.Sent != stats.Updates || stats.Shed != 0 {
			t.Fatalf("replay %d: dispatched %d, sent %d, shed %d; runners %+v", i, stats.Updates, stats.Sent, stats.Shed, stats.Runners)
		}
	}
}

// stallConn scripts the collector half of a handshake and then stops
// reading forever: the probe's OPEN write succeeds, every later write
// blocks until Close. It deliberately implements no deadline methods, so
// only the engine's force-close teardown can unblock it.
type stallConn struct {
	mu        sync.Mutex
	script    []byte
	wrote     int
	stalled   chan struct{}
	closed    chan struct{}
	stallOnce sync.Once
	closeOnce sync.Once
}

func newStallConn(t *testing.T) *stallConn {
	t.Helper()
	var script bytes.Buffer
	if err := bgpwire.WriteMessage(&script, &bgpwire.Open{Version: 4, AS: 65535, HoldTime: 30, RouterID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := bgpwire.WriteMessage(&script, bgpwire.Keepalive{}); err != nil {
		t.Fatal(err)
	}
	return &stallConn{
		script:  script.Bytes(),
		stalled: make(chan struct{}),
		closed:  make(chan struct{}),
	}
}

func (c *stallConn) Read(p []byte) (int, error) {
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

func (c *stallConn) Write(p []byte) (int, error) {
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

func (c *stallConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// TestReplayStalledCollectorBounded is the backpressure acceptance
// check: replaying 100 updates into a collector that never reads must
// complete dispatch at bounded memory with an exactly predictable shed
// count — 19 sheds of 5 as the queue crests MaxPending, so 95 shed and 5
// retained — and nothing ever sent.
func TestReplayStalledCollectorBounded(t *testing.T) {
	var buf bytes.Buffer
	mw := mrt.NewWriter(&buf, 0)
	for i := 0; i < 100; i++ {
		err := mw.WriteBGP4MP(&mrt.BGP4MPMessage{
			PeerAS: 65001, LocalAS: 65535, PeerAddr: 1, LocalAddr: 2,
			Message: &bgpwire.Update{
				Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001, asn.FromUint32(uint32(1000 + i))}, NextHop: 1,
				NLRI: []prefix.Prefix{prefix.New(uint32(0x0A000000+i*256), 24)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}

	conn := newStallConn(t)
	e := firehose.New(firehose.Config{
		Updates:     bytes.NewReader(buf.Bytes()),
		Dial:        func() (io.ReadWriteCloser, error) { return conn, nil },
		MaxPending:  8,
		LowPending:  4,
		MaxAttempts: 1,
		Clock:       tick.NewFake(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stats firehose.Stats
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		stats, runErr = e.Run(ctx)
	}()

	// Dispatch completes against the stalled transport; the drain then
	// has nowhere to go, which is exactly the cancellation path.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := e.Snapshot()
		if snap.Updates == 100 && snap.Shed == 95 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: snapshot %+v, want Updates 100 / Shed 95", snap)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	if !errors.Is(runErr, context.Canceled) {
		t.Errorf("Run error = %v, want context.Canceled", runErr)
	}
	if stats.Shed != 95 {
		t.Errorf("Shed = %d, want exactly 95 (19 crossings of MaxPending, 5 dropped each)", stats.Shed)
	}
	if stats.Sent != 0 {
		t.Errorf("Sent = %d, want 0 (the transport never accepted an update)", stats.Sent)
	}
	if len(stats.Runners) != 1 {
		t.Fatalf("Runners = %d, want 1", len(stats.Runners))
	}
	if p := stats.Runners[0].Stats.Pending; p > 8 {
		t.Errorf("Pending = %d, want ≤ MaxPending 8: memory must stay bounded", p)
	}
}

// TestReplayGracefulStop: a closed Stop channel ends dispatch at the
// next record boundary and the replay drains cleanly — the contract
// behind mrtreplay's first-SIGINT behavior, as opposed to ctx
// cancellation's force-close (which surfaces context.Canceled).
func TestReplayGracefulStop(t *testing.T) {
	det, rs := incidentDetector(t)
	clock := tick.NewFake()
	_, dial, join := pipeCollector(t, det, rs, clock)
	stop := make(chan struct{})
	close(stop)
	e := firehose.New(firehose.Config{
		RIB:     bytes.NewReader(readFixture(t, "incident_rib.mrt")),
		Updates: bytes.NewReader(readFixture(t, "incident.mrt")),
		Dial:    dial,
		Stop:    stop,
		Clock:   clock,
	})
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("Run after graceful stop: %v", err)
	}
	if stats.Updates != 0 || stats.Sessions != 0 {
		t.Errorf("stopped-before-start replay dispatched %d updates over %d sessions, want none",
			stats.Updates, stats.Sessions)
	}
	join.Wait()
}

// TestReplayMalformedBudgetFatal: a stream more damaged than its budget
// fails loudly instead of degrading silently.
func TestReplayMalformedBudgetFatal(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		buf.Write([]byte{0, 0, 0, 0, 0, 99, 0, 1, 0, 0, 0, 0}) // unknown type, empty body
	}
	det, rs := incidentDetector(t)
	_, dial, join := pipeCollector(t, det, rs, tick.NewFake())
	e := firehose.New(firehose.Config{
		Updates:         bytes.NewReader(buf.Bytes()),
		Dial:            dial,
		MalformedBudget: 2,
		Clock:           tick.NewFake(),
	})
	_, err := e.Run(context.Background())
	if !errors.Is(err, mrt.ErrBudgetExhausted) {
		t.Errorf("Run error = %v, want ErrBudgetExhausted", err)
	}
	join.Wait()
}
