package feed

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/internal/topology"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

// attackWorld runs one hijack on a synthetic world and returns the pieces
// a feed pipeline needs.
func attackWorld(t *testing.T) (*topology.Graph, *topology.Classification, *core.Outcome, int, int) {
	t.Helper()
	g := topology.MustGenerate(topology.DefaultParams(600))
	con, err := topology.ContractSiblings(g)
	if err != nil {
		t.Fatal(err)
	}
	cg := con.Graph
	c := topology.Classify(cg, topology.ClassifyOptions{})
	pol, err := core.NewPolicy(cg, c.Tier1)
	if err != nil {
		t.Fatal(err)
	}
	target, err := topology.FindTarget(cg, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	attacker := c.Tier1[0]
	o, err := core.NewSolver(pol).Solve(core.Attack{Target: target, Attacker: attacker}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cg, c, o.Clone(), target, attacker
}

func TestFromOutcome(t *testing.T) {
	g, c, o, target, attacker := attackWorld(t)
	contested := mp("129.82.0.0/16")
	probes := detect.TopDegreeProbes(g, 10).Probes
	updates, err := FromOutcome(g, o, contested, prefix.Prefix{}, probes)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no feed events")
	}
	// Events must be time-ordered and carry plausible AS paths ending at
	// one of the two origins.
	targetASN, attackerASN := g.ASN(target), g.ASN(attacker)
	var last uint32
	for _, tu := range updates {
		if tu.Time < last {
			t.Fatal("events out of order")
		}
		last = tu.Time
		origin, ok := tu.Update.OriginAS()
		if !ok {
			t.Fatal("feed update without origin")
		}
		if origin != targetASN && origin != attackerASN {
			t.Fatalf("feed origin %v is neither target nor attacker", origin)
		}
		if tu.Update.ASPath[0] != tu.PeerAS {
			t.Error("AS path must start at the reporting peer")
		}
	}
	if _, err := FromOutcome(g, o, contested, prefix.Prefix{}, []int{-1}); err == nil {
		t.Error("bad probe index accepted")
	}
	_ = c
}

func TestDetectorRaisesOnHijack(t *testing.T) {
	g, _, o, target, attacker := attackWorld(t)
	contested := mp("129.82.0.0/16")
	targetASN, attackerASN := g.ASN(target), g.ASN(attacker)

	var store rpki.Store
	if err := store.Add(rpki.ROA{Prefix: contested, MaxLength: 24, Origin: targetASN}); err != nil {
		t.Fatal(err)
	}
	var fired []Alert
	det := NewDetector(&store, func(a Alert) { fired = append(fired, a) })
	det.NotePublished(contested)

	probes := detect.TopDegreeProbes(g, 16).Probes
	updates, err := FromOutcome(g, o, contested, prefix.Prefix{}, probes)
	if err != nil {
		t.Fatal(err)
	}
	sawBogus := false
	for _, tu := range updates {
		if origin, _ := tu.Update.OriginAS(); origin == attackerASN {
			sawBogus = true
		}
		det.Process(tu)
	}
	if !sawBogus {
		t.Skip("no probe selected the bogus route in this world")
	}
	alerts := det.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want exactly 1 (deduplicated)", len(alerts))
	}
	a := alerts[0]
	if a.Origin != attackerASN || a.Prefix != contested || a.Reason != ReasonInvalidOrigin {
		t.Errorf("alert = %+v", a)
	}
	if len(fired) != len(alerts) {
		t.Error("callback count mismatch")
	}
	// Legitimate announcements must not alert.
	for _, a := range alerts {
		if a.Origin == targetASN {
			t.Error("alert raised for the legitimate origin")
		}
	}
}

func TestDetectorSubPrefixClassification(t *testing.T) {
	var store rpki.Store
	if err := store.Add(rpki.ROA{Prefix: mp("129.82.0.0/16"), MaxLength: 16, Origin: 100}); err != nil {
		t.Fatal(err)
	}
	det := NewDetector(&store, nil)
	det.NotePublished(mp("129.82.0.0/16"))
	det.Process(TimedUpdate{
		PeerAS: 7,
		Update: &bgpwire.Update{
			Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{7, 666}, NextHop: 1,
			NLRI: []prefix.Prefix{mp("129.82.4.0/24")},
		},
	})
	alerts := det.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	if alerts[0].Reason != ReasonSubPrefix {
		t.Errorf("reason = %v, want subprefix", alerts[0].Reason)
	}
}

func TestDetectorIgnoresUnpublishedAndWithdrawals(t *testing.T) {
	var store rpki.Store
	det := NewDetector(&store, nil)
	det.Process(TimedUpdate{
		PeerAS: 7,
		Update: &bgpwire.Update{
			Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{7, 666}, NextHop: 1,
			NLRI: []prefix.Prefix{mp("10.0.0.0/8")},
		},
	})
	det.Process(TimedUpdate{
		PeerAS: 7,
		Update: &bgpwire.Update{Withdrawn: []prefix.Prefix{mp("10.0.0.0/8")}},
	})
	if n := len(det.Alerts()); n != 0 {
		t.Errorf("alerts on unpublished space / withdrawals: %d", n)
	}
}

// TestCollectorEndToEnd runs the full pipeline over real TCP: probes dial
// the collector, stream a hijack's feed, and the detector raises the
// alert.
func TestCollectorEndToEnd(t *testing.T) {
	g, _, o, target, attacker := attackWorld(t)
	contested := mp("129.82.0.0/16")
	targetASN, attackerASN := g.ASN(target), g.ASN(attacker)

	var store rpki.Store
	if err := store.Add(rpki.ROA{Prefix: contested, MaxLength: 24, Origin: targetASN}); err != nil {
		t.Fatal(err)
	}
	alertCh := make(chan Alert, 16)
	det := NewDetector(&store, func(a Alert) { alertCh <- a })
	det.NotePublished(contested)

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

	probes := detect.TopDegreeProbes(g, 12).Probes
	updates, err := FromOutcome(g, o, contested, prefix.Prefix{}, probes)
	if err != nil {
		t.Fatal(err)
	}
	sawBogus := false
	var wg sync.WaitGroup
	for _, pr := range probes {
		peerUpdates := make([]*bgpwire.Update, 0, 1)
		for _, tu := range updates {
			if tu.PeerAS == g.ASN(pr) {
				peerUpdates = append(peerUpdates, tu.Update)
				if origin, _ := tu.Update.OriginAS(); origin == attackerASN {
					sawBogus = true
				}
			}
		}
		if len(peerUpdates) == 0 {
			continue
		}
		wg.Add(1)
		go func(as asn.ASN, us []*bgpwire.Update) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			p := &Probe{AS: as, RouterID: uint32(as)}
			if err := p.Dial(conn); err != nil {
				t.Error(err)
				return
			}
			defer p.Close()
			for _, u := range us {
				if err := p.Send(u); err != nil {
					t.Error(err)
					return
				}
			}
		}(g.ASN(pr), peerUpdates)
	}
	wg.Wait()
	if !sawBogus {
		l.Close()
		<-serveDone
		t.Skip("no probe carried the bogus route in this world")
	}
	select {
	case a := <-alertCh:
		if a.Origin != attackerASN {
			t.Errorf("alert origin = %v, want %v", a.Origin, attackerASN)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no alert within 5s")
	}
	_ = collector.Shutdown(context.Background())
	l.Close()
	<-serveDone
	if collector.Sessions() == 0 {
		t.Error("collector accepted no sessions")
	}
}

func TestProbeHandshakeErrors(t *testing.T) {
	// A server that immediately closes: Dial must fail cleanly.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p := &Probe{AS: 65001}
	if err := p.Dial(conn); err == nil {
		t.Error("handshake against closing server succeeded")
	}
	if err := p.Send(&bgpwire.Update{}); err == nil {
		t.Error("Send without session succeeded")
	}
}

// TestCollectorRecordsMRT: the collector's MRT recorder must log every
// received UPDATE as a BGP4MP record readable by the mrt package.
func TestCollectorRecordsMRT(t *testing.T) {
	var store rpki.Store
	var log bytes.Buffer
	collector := &Collector{
		LocalAS:  65535,
		RouterID: 1,
		Detector: NewDetector(&store, nil),
		Recorder: mrt.NewWriter(&log, 0),
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = collector.Serve(l)
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p := &Probe{AS: 65001, RouterID: 2}
	if err := p.Dial(conn); err != nil {
		t.Fatal(err)
	}
	updates := []*bgpwire.Update{
		{Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001, 12145}, NextHop: 1,
			NLRI: []prefix.Prefix{mp("129.82.0.0/16")}},
		{Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65001}, NextHop: 1,
			NLRI: []prefix.Prefix{mp("192.0.2.0/24")}},
	}
	for _, u := range updates {
		if err := p.Send(u); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	l.Close()
	_ = collector.Shutdown(context.Background())
	<-serveDone
	if err := collector.Recorder.Flush(); err != nil {
		t.Fatal(err)
	}

	r := mrt.NewReader(bytes.NewReader(log.Bytes()))
	var recorded []*mrt.BGP4MPMessage
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		if m, ok := rec.(*mrt.BGP4MPMessage); ok {
			recorded = append(recorded, m)
		}
	}
	if len(recorded) != len(updates) {
		t.Fatalf("recorded %d BGP4MP records, want %d", len(recorded), len(updates))
	}
	for i, m := range recorded {
		if m.PeerAS != 65001 || m.LocalAS != 65535 {
			t.Errorf("record %d: peer/local AS = %v/%v", i, m.PeerAS, m.LocalAS)
		}
		u, ok := m.Message.(*bgpwire.Update)
		if !ok {
			t.Fatalf("record %d: message is %T", i, m.Message)
		}
		if len(u.NLRI) != 1 || u.NLRI[0] != updates[i].NLRI[0] {
			t.Errorf("record %d: NLRI mismatch", i)
		}
	}
}

// TestCollectorFailureInjection: malformed and mid-session garbage must
// error the one session, never crash or wedge the collector.
func TestCollectorFailureInjection(t *testing.T) {
	var store rpki.Store
	collector := &Collector{LocalAS: 65535, RouterID: 1, Detector: NewDetector(&store, nil)}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = collector.Serve(l)
	}()

	// Session 1: raw garbage instead of an OPEN.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("definitely not BGP at all, sorry")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Session 2: valid OPEN, then a KEEPALIVE-typed frame with a body.
	conn2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := bgpwire.WriteMessage(conn2, &bgpwire.Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: 2}); err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, bgpwire.HeaderLen+3)
	for i := 0; i < 16; i++ {
		bad[i] = 0xff
	}
	bad[17] = byte(len(bad))
	bad[18] = bgpwire.TypeKeepalive
	if _, err := conn2.Write(bad); err != nil {
		t.Fatal(err)
	}
	conn2.Close()

	// Session 3: a healthy session must still work after the carnage.
	conn3, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p := &Probe{AS: 65002, RouterID: 3}
	if err := p.Dial(conn3); err != nil {
		t.Fatalf("healthy session failed after garbage sessions: %v", err)
	}
	if err := p.Send(&bgpwire.Update{
		Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65002}, NextHop: 1,
		NLRI: []prefix.Prefix{mp("192.0.2.0/24")},
	}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	// An accepted garbage session may not have reached register yet, and
	// Shutdown (correctly) refuses, uncounted, one that arrives after it:
	// wait for all three to be counted before closing.
	waitFor(t, "all three sessions to be counted", func() bool { return collector.Sessions() >= 3 })
	l.Close()
	_ = collector.Shutdown(context.Background())
	<-serveDone
	if collector.Sessions() < 3 {
		t.Errorf("sessions = %d, want ≥ 3", collector.Sessions())
	}
}
