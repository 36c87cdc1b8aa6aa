package feed

import (
	"sync/atomic"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// routeServerStream is the stream both route-server tests replay: two
// peers each announce the same valid route and the same sub-prefix
// hijack of a ROA-covered /16.
type routeServerStream struct {
	store         rpki.Store
	valid, hijack *bgpwire.Update
	peers         []asn.ASN
}

func newRouteServerStream(t *testing.T) *routeServerStream {
	t.Helper()
	s := &routeServerStream{
		valid: &bgpwire.Update{
			Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65010, 100}, NextHop: 1,
			NLRI: []prefix.Prefix{prefix.MustParse("10.0.0.0/16")},
		},
		hijack: &bgpwire.Update{
			Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{65010, 666}, NextHop: 1,
			NLRI: []prefix.Prefix{prefix.MustParse("10.0.1.0/24")},
		},
		peers: []asn.ASN{65001, 65002},
	}
	if err := s.store.Add(rpki.ROA{Prefix: prefix.MustParse("10.0.0.0/16"), MaxLength: 24, Origin: 100}); err != nil {
		t.Fatal(err)
	}
	return s
}

// detector builds a detector over v that knows the stream's published
// prefix.
func (s *routeServerStream) detector(v rpki.OriginValidator) *Detector {
	det := NewDetector(v, nil)
	det.NotePublished(prefix.MustParse("10.0.0.0/16"))
	return det
}

// replay sends the stream through c, one session per peer.
func (s *routeServerStream) replay(t *testing.T, c *Collector) {
	t.Helper()
	for _, as := range s.peers {
		probe, errCh := dialRaw(t, c, as)
		if err := bgpwire.WriteMessage(probe, s.valid); err != nil {
			t.Fatal(err)
		}
		if err := bgpwire.WriteMessage(probe, s.hijack); err != nil {
			t.Fatal(err)
		}
		probe.Close()
		<-errCh
	}
}

// wantDigest is the alert-set digest of per-probe validation over the
// stream.
func (s *routeServerStream) wantDigest() [32]byte {
	ref := s.detector(&s.store)
	for _, as := range s.peers {
		ref.Process(TimedUpdate{Time: 1, PeerAS: as, Update: s.valid})
		ref.Process(TimedUpdate{Time: 1, PeerAS: as, Update: s.hijack})
	}
	return AlertSetDigest(ref.Alerts())
}

// requireBoundaryStats checks the boundary validator's counters after
// one replay, and that the validator under it ran once per
// announcement.
func requireBoundaryStats(t *testing.T, rs *RouteServer, under *countingValidator) {
	t.Helper()
	if st := rs.Stats(); st.Observed != 4 || st.Invalid != 2 {
		t.Errorf("stats = %+v, want Observed 4 / Invalid 2", st)
	}
	if n := under.calls.Load(); n != 4 {
		t.Errorf("boundary's validator ran %d times, want 4: once per announcement", n)
	}
}

// TestRouteServerValidatesOnce: in route-server mode the collector
// validates each announcement exactly once — the detector raises from
// the boundary's verdicts without validating again — and the detector's
// alert set is identical to per-probe validation over the same stream.
func TestRouteServerValidatesOnce(t *testing.T) {
	s := newRouteServerStream(t)
	under := &countingValidator{v: &s.store}
	rs := NewRouteServer(under)
	det := s.detector(rs)
	s.replay(t, &Collector{
		LocalAS: 65535, RouterID: 1,
		Clock:     tick.NewFake(),
		Validator: rs,
		Detector:  det,
	})

	requireBoundaryStats(t, rs, under)
	alerts := det.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want exactly 1 (deduplicated)", len(alerts))
	}
	if alerts[0].Reason != ReasonSubPrefix || alerts[0].Origin != 666 {
		t.Errorf("alert = %+v, want subprefix-hijack by 666", alerts[0])
	}
	if AlertSetDigest(alerts) != s.wantDigest() {
		t.Error("route-server alert digest differs from per-probe validation")
	}
}

// countingValidator counts the calls it passes on.
type countingValidator struct {
	v     rpki.OriginValidator
	calls atomic.Int64
}

func (cv *countingValidator) Validate(p prefix.Prefix, origin asn.ASN) rpki.Validity {
	cv.calls.Add(1)
	return cv.v.Validate(p, origin)
}

// TestRouteServerBesideOwnValidator: a detector over its own validator,
// beside a RouteServer at the collector boundary, still validates every
// announcement itself through Process and raises the same alert set,
// while the boundary keeps its own accounting.
func TestRouteServerBesideOwnValidator(t *testing.T) {
	s := newRouteServerStream(t)
	under := &countingValidator{v: &s.store}
	rs := NewRouteServer(under)
	own := &countingValidator{v: &s.store}
	det := s.detector(own)
	s.replay(t, &Collector{
		LocalAS: 65535, RouterID: 1,
		Clock:     tick.NewFake(),
		Validator: rs,
		Detector:  det,
	})

	requireBoundaryStats(t, rs, under)
	if n := own.calls.Load(); n != 4 {
		t.Errorf("detector's own validator ran %d times, want 4: once per announcement", n)
	}
	if AlertSetDigest(det.Alerts()) != s.wantDigest() {
		t.Error("alert digest with the detector's own validator differs from per-probe validation")
	}
}
