package feed

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// dialRaw opens one collector session over a pipe and completes the
// probe-side handshake by hand, so tests control every subsequent frame.
func dialRaw(t *testing.T, c *Collector, as asn.ASN) (net.Conn, chan error) {
	t.Helper()
	server, client := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- c.HandleSession(server) }()
	if err := bgpwire.WriteMessage(client, &bgpwire.Open{Version: 4, AS: as, HoldTime: 30, RouterID: as.Uint32()}); err != nil {
		t.Fatalf("probe %v: send OPEN: %v", as, err)
	}
	if _, err := bgpwire.ReadMessage(client); err != nil { // collector OPEN
		t.Fatalf("probe %v: read OPEN: %v", as, err)
	}
	if _, err := bgpwire.ReadMessage(client); err != nil { // collector KEEPALIVE
		t.Fatalf("probe %v: read KEEPALIVE: %v", as, err)
	}
	return client, errCh
}

func benignUpdate(origin asn.ASN) *bgpwire.Update {
	return &bgpwire.Update{
		Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65010, origin}, NextHop: 1,
		NLRI: []prefix.Prefix{prefix.MustParse("192.0.2.0/24")},
	}
}

// waitFor polls cond with a long wall-clock cap; the collector runs on a
// fake clock, so only goroutine scheduling is being waited out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCollectorLoadShedsNoisiest: when the aggregate rate crosses
// MaxLoad, only the noisiest session dies — with ErrSessionShed — and
// quieter sessions keep streaming.
func TestCollectorLoadShedsNoisiest(t *testing.T) {
	c := &Collector{
		LocalAS: 65535, RouterID: 1,
		Clock:      tick.NewFake(),
		MaxLoad:    10,
		LoadWindow: time.Hour,
	}
	loud, loudErr := dialRaw(t, c, 65001)
	quiet, quietErr := dialRaw(t, c, 65002)
	defer quiet.Close()
	defer loud.Close()

	for i := 0; i < 9; i++ {
		if err := bgpwire.WriteMessage(loud, benignUpdate(100)); err != nil {
			t.Fatalf("loud update %d: %v", i, err)
		}
	}
	waitFor(t, "9 updates accounted", func() bool { return c.Stats().Updates == 9 })
	for i := 0; i < 2; i++ {
		if err := bgpwire.WriteMessage(quiet, benignUpdate(100)); err != nil {
			t.Fatalf("quiet update %d: %v", i, err)
		}
	}

	// Update #11 crosses MaxLoad: the loud session (9 in window) is the
	// victim, even though the quiet one triggered the threshold.
	var errLoud error
	select {
	case errLoud = <-loudErr:
	case <-time.After(10 * time.Second):
		t.Fatal("loud session never shed")
	}
	if !errors.Is(errLoud, ErrSessionShed) {
		t.Errorf("loud session error = %v, want ErrSessionShed", errLoud)
	}
	st := c.Stats()
	if st.LoadSheds != 1 || st.Updates != 11 {
		t.Errorf("stats = %+v, want LoadSheds 1 / Updates 11", st)
	}
	// The shed session has ended, so only the quiet one is listed.
	loads := c.SessionLoads()
	if len(loads) != 1 {
		t.Fatalf("SessionLoads = %+v, want the quiet session only", loads)
	}
	if loads[0].Shed || loads[0].AS != 65002 || loads[0].Total != 2 {
		t.Errorf("quiet load = %+v, want unshed with 2 total", loads[0])
	}

	// The quiet session is still live.
	if err := bgpwire.WriteMessage(quiet, benignUpdate(100)); err != nil {
		t.Fatalf("quiet post-shed update: %v", err)
	}
	waitFor(t, "post-shed update accounted", func() bool { return c.Stats().Updates == 12 })
	quiet.Close()
	if err := <-quietErr; err != nil && !errors.Is(err, ErrSessionShed) {
		// A closed pipe surfaces as a transport error; only a shed would
		// be wrong here.
		_ = err
	}
}

// TestCollectorSessionChurn: a peer that connects, opens and closes
// over and over, one session after another, leaves the collector as it
// found it — no session listed, no goroutine left behind — however many
// sessions it has run.
func TestCollectorSessionChurn(t *testing.T) {
	const cycles = 10000
	c := &Collector{LocalAS: 65535, RouterID: 1, Clock: tick.NewFake()}
	baseline := runtime.NumGoroutine()
	for i := 0; i < cycles; i++ {
		probe, errCh := dialRaw(t, c, 65001)
		probe.Close()
		if err := <-errCh; err != nil {
			t.Fatalf("cycle %d: session error %v, want a clean close", i, err)
		}
	}
	if n := c.Sessions(); n != cycles {
		t.Errorf("Sessions = %d, want %d", n, cycles)
	}
	if loads := c.SessionLoads(); len(loads) != 0 {
		t.Errorf("SessionLoads lists %d sessions after every one closed, want none", len(loads))
	}
	waitFor(t, "session goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestCollectorSelfShed: a single session that alone crosses MaxLoad is
// its own victim — the crossing update is dropped, the peer receives a
// Cease NOTIFICATION.
func TestCollectorSelfShed(t *testing.T) {
	var store rpki.Store
	rs := NewRouteServer(&store)
	c := &Collector{
		LocalAS: 65535, RouterID: 1,
		Clock:      tick.NewFake(),
		MaxLoad:    5,
		LoadWindow: time.Hour,
		Validator:  rs,
	}
	probe, errCh := dialRaw(t, c, 65001)
	defer probe.Close()
	for i := 0; i < 6; i++ {
		if err := bgpwire.WriteMessage(probe, benignUpdate(100)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	msg, err := bgpwire.ReadMessage(probe)
	if err != nil {
		t.Fatalf("read shed NOTIFICATION: %v", err)
	}
	n, ok := msg.(*bgpwire.Notification)
	if !ok || n.Code != 6 {
		t.Errorf("got %T %+v, want Cease NOTIFICATION", msg, msg)
	}
	if err := <-errCh; !errors.Is(err, ErrSessionShed) {
		t.Errorf("session error = %v, want ErrSessionShed", err)
	}
	// The crossing update was dropped before the boundary validator.
	if obs := rs.Stats().Observed; obs != 5 {
		t.Errorf("validator observed %d announcements, want 5 (crossing update dropped)", obs)
	}
	if st := c.Stats(); st.Updates != 6 || st.LoadSheds != 1 {
		t.Errorf("stats = %+v, want Updates 6 / LoadSheds 1", st)
	}
}

// TestCollectorLoadWindowRolls: advancing the fake clock past LoadWindow
// resets the accounting, so a steady in-budget rate never sheds.
func TestCollectorLoadWindowRolls(t *testing.T) {
	fc := tick.NewFake()
	c := &Collector{
		LocalAS: 65535, RouterID: 1,
		Clock:      fc,
		MaxLoad:    10,
		LoadWindow: time.Second,
	}
	probe, errCh := dialRaw(t, c, 65001)
	for i := 0; i < 8; i++ {
		if err := bgpwire.WriteMessage(probe, benignUpdate(100)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	waitFor(t, "first window accounted", func() bool { return c.Stats().Updates == 8 })
	fc.Advance(2 * time.Second)
	for i := 0; i < 8; i++ {
		if err := bgpwire.WriteMessage(probe, benignUpdate(100)); err != nil {
			t.Fatalf("second-window update %d: %v", i, err)
		}
	}
	waitFor(t, "second window accounted", func() bool { return c.Stats().Updates == 16 })
	if st := c.Stats(); st.LoadSheds != 0 {
		t.Errorf("LoadSheds = %d, want 0: the window rolled", st.LoadSheds)
	}
	loads := c.SessionLoads()
	if len(loads) != 1 || loads[0].Window != 8 || loads[0].Total != 16 {
		t.Errorf("SessionLoads = %+v, want one entry with Window 8 / Total 16", loads)
	}
	probe.Close()
	<-errCh
}

// writeBatch sends n benign UPDATEs as one Write of concatenated frames,
// which the collector's frame reader takes in one transport read: one
// batch for the session loop.
func writeBatch(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		var err error
		if buf, err = bgpwire.AppendMessage(buf, benignUpdate(100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatalf("batch write: %v", err)
	}
}

// TestCollectorLoadShedMidBatch: UPDATEs that arrive in one read are
// accounted together but decided one by one, so a batch that crosses
// MaxLoad is neither dropped whole nor admitted whole.
func TestCollectorLoadShedMidBatch(t *testing.T) {
	// The crossing session is its own victim: the updates before the
	// crossing one reach the validator, the crossing one is counted and
	// dropped, the ones after it are never counted, and the peer gets a
	// Cease.
	t.Run("self", func(t *testing.T) {
		var store rpki.Store
		rs := NewRouteServer(&store)
		c := &Collector{
			LocalAS: 65535, RouterID: 1,
			Clock:      tick.NewFake(),
			MaxLoad:    5,
			LoadWindow: time.Hour,
			Validator:  rs,
		}
		probe, errCh := dialRaw(t, c, 65001)
		defer probe.Close()
		writeBatch(t, probe, 8)
		msg, err := bgpwire.ReadMessage(probe)
		if err != nil {
			t.Fatalf("read shed NOTIFICATION: %v", err)
		}
		if n, ok := msg.(*bgpwire.Notification); !ok || n.Code != 6 {
			t.Errorf("got %T %+v, want Cease NOTIFICATION", msg, msg)
		}
		if err := <-errCh; !errors.Is(err, ErrSessionShed) {
			t.Errorf("session error = %v, want ErrSessionShed", err)
		}
		if obs := rs.Stats().Observed; obs != c.MaxLoad {
			t.Errorf("validator observed %d announcements, want MaxLoad = %d", obs, c.MaxLoad)
		}
		if st := c.Stats(); st.Updates != c.MaxLoad+1 || st.LoadSheds != 1 {
			t.Errorf("stats = %+v, want Updates %d (the crossing update counted) / LoadSheds 1", st, c.MaxLoad+1)
		}
	})

	// A quieter session crosses MaxLoad mid-batch: the noisier session
	// is shed and its conn closed, and the whole batch is admitted.
	t.Run("other", func(t *testing.T) {
		var store rpki.Store
		rs := NewRouteServer(&store)
		c := &Collector{
			LocalAS: 65535, RouterID: 1,
			Clock:      tick.NewFake(),
			MaxLoad:    5,
			LoadWindow: time.Hour,
			Validator:  rs,
		}
		loud, loudErr := dialRaw(t, c, 65001)
		quiet, quietErr := dialRaw(t, c, 65002)
		defer loud.Close()
		writeBatch(t, loud, 4)
		waitFor(t, "loud batch accounted", func() bool { return rs.Stats().Observed == 4 })
		writeBatch(t, quiet, 3)
		select {
		case err := <-loudErr:
			if !errors.Is(err, ErrSessionShed) {
				t.Errorf("loud session error = %v, want ErrSessionShed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("loud session never shed")
		}
		waitFor(t, "quiet batch validated", func() bool { return rs.Stats().Observed == 7 })
		if st := c.Stats(); st.Updates != 7 || st.LoadSheds != 1 {
			t.Errorf("stats = %+v, want Updates 7 / LoadSheds 1", st)
		}
		quiet.Close()
		if err := <-quietErr; errors.Is(err, ErrSessionShed) {
			t.Errorf("quiet session error = %v, want no shed", err)
		}
	})
}
