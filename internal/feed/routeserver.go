package feed

import (
	"sync"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
)

// RouteServer applies origin validation once at the collector boundary —
// the IXP route-server / middlebox deployment model ("Keep Your Friends
// Close", PAPERS.md): instead of every probe AS validating independently,
// one validator serves the whole collector and memoizes each distinct
// (prefix, origin) verdict. A burst of identical announcements from
// hundreds of peers then costs one trie lookup, not hundreds; the
// verdicts — and therefore the detector's alert set — are identical to
// per-probe validation, because RFC 6811 validation is a pure function
// of prefix and origin.
//
// RouteServer is itself an rpki.OriginValidator. Set it as both
// Collector.Validator and the detector's validator to run the full
// route-server mode: each session then validates an update's prefixes
// once, under one lock acquisition, and hands the detector the Invalid
// ones, so the detector never asks the memo a second time.
type RouteServer struct {
	validator rpki.OriginValidator

	mu    sync.Mutex
	cache map[routeKey]rpki.Validity
	stats RouteServerStats
}

type routeKey struct {
	p      prefix.Prefix
	origin asn.ASN
}

// RouteServerStats counts the boundary validator's work. When only the
// collector consults the RouteServer (route-server mode, or a detector
// with its own validator), every observed announcement is one memo
// query: Hits + Lookups == Observed.
type RouteServerStats struct {
	// Lookups counts underlying validator calls — one per distinct
	// (prefix, origin) pair ever observed.
	Lookups int
	// Hits counts verdicts served from the memo.
	Hits int
	// Observed counts announcements seen via Observe.
	Observed int
	// Invalid counts observed announcements whose verdict was Invalid.
	Invalid int
}

var _ rpki.OriginValidator = (*RouteServer)(nil)

// NewRouteServer wraps v in a memoizing collector-boundary validator.
func NewRouteServer(v rpki.OriginValidator) *RouteServer {
	return &RouteServer{validator: v, cache: make(map[routeKey]rpki.Validity)}
}

// Validate returns the RFC 6811 verdict for (p, origin), consulting the
// underlying validator only on the first sight of the pair.
func (rs *RouteServer) Validate(p prefix.Prefix, origin asn.ASN) rpki.Validity {
	rs.mu.Lock()
	v := rs.validateLocked(p, origin)
	rs.mu.Unlock()
	return v
}

// validateLocked is Validate with rs.mu held. The trie lookup runs under
// mu: the underlying store is not guaranteed concurrency-safe.
func (rs *RouteServer) validateLocked(p prefix.Prefix, origin asn.ASN) rpki.Validity {
	key := routeKey{p, origin}
	if v, ok := rs.cache[key]; ok {
		rs.stats.Hits++
		return v
	}
	v := rs.validator.Validate(p, origin)
	rs.cache[key] = v
	rs.stats.Lookups++
	return v
}

// Observe validates every prefix one update announces, counting Invalid
// verdicts — the per-announcement accounting a collector session runs
// in route-server mode.
func (rs *RouteServer) Observe(peer asn.ASN, u *bgpwire.Update) {
	rs.observe(nil, u)
}

// observe is Observe for a session: it validates all of u's prefixes
// under one lock acquisition and appends the Invalid ones to invalid,
// which it returns.
//
//bgplint:hotpath the validation loop runs once per announced prefix
func (rs *RouteServer) observe(invalid []prefix.Prefix, u *bgpwire.Update) []prefix.Prefix {
	origin, ok := u.OriginAS()
	if !ok {
		return invalid // withdrawals carry no origin
	}
	rs.mu.Lock()
	for _, p := range u.NLRI {
		if rs.validateLocked(p, origin) == rpki.Invalid {
			rs.stats.Invalid++
			invalid = append(invalid, p)
		}
	}
	rs.stats.Observed += len(u.NLRI)
	rs.mu.Unlock()
	return invalid
}

// Stats returns a snapshot of the boundary validator's counters.
func (rs *RouteServer) Stats() RouteServerStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.stats
}
