// Package feed implements the live hijack-detection pipeline the paper's
// Section VI models statistically: BGP UPDATE streams from probe ASes
// (BGPmon-style vantage feeds), an origin-validating detector that raises
// alerts on announcements contradicting published route origins
// (PHAS/ROVER-style), and a BGP-over-TCP collector transport so the whole
// path — wire format, session, validation, alerting — runs end to end.
package feed

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// TimedUpdate is one feed event: a BGP UPDATE as reported by a peer AS at
// a logical time (the simulator uses propagation distance as time).
type TimedUpdate struct {
	Time   uint32
	PeerAS asn.ASN
	Update *bgpwire.Update
}

// FromOutcome reconstructs the announcement stream a collector peering
// with the given probe ASes records once an attack converges: each probe
// reports its selected AS path for the contested prefix. In a sub-prefix
// attack the attacker's more-specific prefix is announced instead.
func FromOutcome(g *topology.Graph, o *core.Outcome, contested prefix.Prefix, attackerPrefix prefix.Prefix, probes []int) ([]TimedUpdate, error) {
	var out []TimedUpdate
	for _, p := range probes {
		if p < 0 || p >= g.N() {
			return nil, fmt.Errorf("feed: probe index %d out of range", p)
		}
		path := o.Path(p)
		if path == nil {
			continue // probe has no route: nothing to report
		}
		asPath := make([]asn.ASN, 0, len(path))
		for _, node := range path {
			asPath = append(asPath, g.ASN(node))
		}
		announced := contested
		if o.Origin(p) == core.OriginAttacker && attackerPrefix != (prefix.Prefix{}) {
			announced = attackerPrefix
		}
		out = append(out, TimedUpdate{
			Time:   uint32(o.Dist(p)),
			PeerAS: g.ASN(p),
			Update: &bgpwire.Update{
				Origin:  bgpwire.OriginIGP,
				ASPath:  asPath,
				NextHop: uint32(p),
				NLRI:    []prefix.Prefix{announced},
			},
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// AlertReason classifies why the detector fired.
type AlertReason string

const (
	// ReasonInvalidOrigin: the announced origin contradicts published
	// route-origin data.
	ReasonInvalidOrigin AlertReason = "invalid-origin"
	// ReasonSubPrefix: the announcement is a more-specific of a published
	// prefix and its origin is not authorized for it.
	ReasonSubPrefix AlertReason = "subprefix-hijack"
)

// Alert is one detector finding.
type Alert struct {
	Time   uint32
	PeerAS asn.ASN
	Prefix prefix.Prefix
	Origin asn.ASN
	Path   []asn.ASN
	Reason AlertReason
}

// Detector validates announcement streams against an origin oracle and
// raises deduplicated alerts. It is safe for concurrent Process calls
// (collector sessions run per-connection goroutines). A detector built
// over the collector's own RouteServer (route-server mode) does not
// validate again: the collector hands it the Invalid prefixes its
// boundary validation found. Any other detector, one over its own
// rpki.Store for instance, validates each update through Process.
type Detector struct {
	validator rpki.OriginValidator
	onAlert   func(Alert)

	// mu guards seen, alerts, and published; every concurrent session
	// goroutine funnels through it in raise/NotePublished. onAlert fires
	// while it is held, so callbacks must not re-enter the detector.
	mu     sync.Mutex
	seen   map[alertKey]bool
	alerts []Alert
	// published marks prefixes with authoritative data, to classify
	// sub-prefix alerts.
	published *prefix.Trie[struct{}]
}

type alertKey struct {
	p      prefix.Prefix
	origin asn.ASN
}

// NewDetector builds a detector over the validator. onAlert (optional) is
// invoked synchronously for every new alert.
func NewDetector(v rpki.OriginValidator, onAlert func(Alert)) *Detector {
	return &Detector{
		validator: v,
		onAlert:   onAlert,
		seen:      make(map[alertKey]bool),
		published: &prefix.Trie[struct{}]{},
	}
}

// NotePublished registers a prefix as having authoritative origin data,
// enabling sub-prefix classification for its more-specifics.
func (d *Detector) NotePublished(p prefix.Prefix) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.published.Insert(p, struct{}{})
}

// Process validates one feed event, possibly raising an alert.
func (d *Detector) Process(tu TimedUpdate) {
	u := tu.Update
	origin, ok := u.OriginAS()
	if !ok {
		return // withdrawals carry no origin
	}
	for _, p := range u.NLRI {
		if d.validator.Validate(p, origin) != rpki.Invalid {
			continue
		}
		d.raise(tu, p, origin)
	}
}

// validatesVia reports whether d validates through rs, so that rs's
// verdicts are d's own.
func (d *Detector) validatesVia(rs *RouteServer) bool {
	return rs != nil && d.validator == rpki.OriginValidator(rs)
}

// raiseInvalid raises alerts for the prefixes of tu's announcement that
// the detector's own validator already judged Invalid.
func (d *Detector) raiseInvalid(tu TimedUpdate, invalid []prefix.Prefix) {
	if len(invalid) == 0 {
		return
	}
	origin, _ := tu.Update.OriginAS()
	for _, p := range invalid {
		d.raise(tu, p, origin)
	}
}

func (d *Detector) raise(tu TimedUpdate, p prefix.Prefix, origin asn.ASN) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := alertKey{p, origin}
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	reason := ReasonInvalidOrigin
	if _, exact := d.published.Exact(p); !exact {
		if _, _, covered := d.published.LongestMatch(p); covered {
			reason = ReasonSubPrefix
		}
	}
	a := Alert{
		Time:   tu.Time,
		PeerAS: tu.PeerAS,
		Prefix: p,
		Origin: origin,
		Path:   append([]asn.ASN(nil), tu.Update.ASPath...),
		Reason: reason,
	}
	d.alerts = append(d.alerts, a)
	if d.onAlert != nil {
		d.onAlert(a)
	}
}

// Alerts returns a copy of all alerts raised so far.
func (d *Detector) Alerts() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Alert(nil), d.alerts...)
}

// AlertSetDigest returns a SHA-256 digest over the alert set's identity
// fields — prefix, origin, reporting peer, AS path, reason — sorted
// into a canonical order. Arrival times are deliberately excluded: they
// depend on transport interleaving and retransmission, while the *set*
// of alerts is the detection outcome the chaos suite pins. A run over a
// fault-injected transport must produce a byte-identical digest to the
// fault-free run (see internal/chaos).
func AlertSetDigest(alerts []Alert) [32]byte {
	lines := make([]string, 0, len(alerts))
	for _, a := range alerts {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%v|%v|%v|%s|", a.Prefix, a.Origin, a.PeerAS, a.Reason)
		for i, as := range a.Path {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%v", as)
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
