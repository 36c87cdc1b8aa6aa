package feed

import (
	"sync/atomic"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
)

// RouteServer applies origin validation once at the collector boundary —
// the IXP route-server / middlebox deployment model ("Keep Your Friends
// Close", PAPERS.md): instead of every probe AS validating independently,
// one validator serves the whole collector. The verdicts — and therefore
// the detector's alert set — are identical to per-probe validation,
// because RFC 6811 validation is a pure function of prefix and origin.
//
// RouteServer is itself an rpki.OriginValidator. Set it as both
// Collector.Validator and the detector's validator to run the full
// route-server mode: each session then validates an update's prefixes
// once and hands the detector the Invalid ones, so the detector never
// validates a second time.
//
// RouteServer takes no lock: sessions call the underlying validator
// concurrently, which rpki.OriginValidator's contract allows once
// loading ends, and count through atomics.
type RouteServer struct {
	validator rpki.OriginValidator
	observed  atomic.Int64
	invalid   atomic.Int64
}

// RouteServerStats counts the boundary validator's work.
type RouteServerStats struct {
	// Observed counts announcements seen via Observe or a collector
	// session.
	Observed int
	// Invalid counts observed announcements whose verdict was Invalid.
	Invalid int
}

var _ rpki.OriginValidator = (*RouteServer)(nil)

// NewRouteServer wraps v in a counting collector-boundary validator.
func NewRouteServer(v rpki.OriginValidator) *RouteServer {
	return &RouteServer{validator: v}
}

// Validate returns the underlying validator's RFC 6811 verdict for
// (p, origin).
func (rs *RouteServer) Validate(p prefix.Prefix, origin asn.ASN) rpki.Validity {
	return rs.validator.Validate(p, origin)
}

// Observe validates every prefix one update announces, counting Invalid
// verdicts — the per-announcement accounting a collector session runs
// in route-server mode.
func (rs *RouteServer) Observe(peer asn.ASN, u *bgpwire.Update) {
	rs.observe(nil, u)
}

// observe is Observe for a session: it validates all of u's prefixes,
// appends the Invalid ones to invalid, which it returns, and adds to
// the counters once for the whole update.
//
//bgplint:hotpath the validation loop runs once per announced prefix
func (rs *RouteServer) observe(invalid []prefix.Prefix, u *bgpwire.Update) []prefix.Prefix {
	origin, ok := u.OriginAS()
	if !ok {
		return invalid // withdrawals carry no origin
	}
	n := len(invalid)
	for _, p := range u.NLRI {
		if rs.validator.Validate(p, origin) == rpki.Invalid {
			invalid = append(invalid, p)
		}
	}
	rs.observed.Add(int64(len(u.NLRI)))
	if bad := len(invalid) - n; bad > 0 {
		rs.invalid.Add(int64(bad))
	}
	return invalid
}

// Stats returns a snapshot of the boundary validator's counters.
func (rs *RouteServer) Stats() RouteServerStats {
	return RouteServerStats{Observed: int(rs.observed.Load()), Invalid: int(rs.invalid.Load())}
}
