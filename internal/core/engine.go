package core

import (
	"fmt"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/xmaps"
)

// Event records one BGP message delivery during an engine run, for
// propagation analysis and the paper's Figure-1 polar visualizations
// (red = bogus announcement accepted, green = rejected).
type Event struct {
	Gen      int   // generation (simulated clock tick), starting at 1
	From     int32 // sending node
	To       int32 // receiving node
	Origin   int8  // which origin the advertised route leads to
	Withdraw bool  // true for route withdrawals
	// Accepted reports whether the receiver's best route pointed at the
	// sender once the generation converged (i.e. the message "won").
	Accepted bool
}

// Trace accumulates engine events grouped by generation.
type Trace struct {
	Events      []Event
	Generations int

	// genEnd[g-1] is the index one past generation g's events: Events are
	// appended in generation order, so generation g spans
	// Events[genEnd[g-2]:genEnd[g-1]]. Maintained by the engine; traces
	// assembled by hand may leave it nil and fall back to a scan.
	genEnd []int
}

// EventsInGen returns the events delivered in generation g (1-based).
// With engine-maintained generation offsets this is an O(1) subslice of
// Events (polar-viz and propagation analysis call it once per generation;
// the old full rescan made those passes O(E·G)).
func (t *Trace) EventsInGen(g int) []Event {
	if g >= 1 && g <= len(t.genEnd) {
		start := 0
		if g > 1 {
			start = t.genEnd[g-2]
		}
		return t.Events[start:t.genEnd[g-1]]
	}
	var out []Event
	for _, e := range t.Events {
		if e.Gen == g {
			out = append(out, e)
		}
	}
	return out
}

// Engine is the faithful reproduction of the paper's object-oriented BGP
// simulator: per-AS router objects with Adj-RIB-In state exchange prefix
// announcements (and withdrawals) in synchronous generations until
// convergence. It produces bit-identical outcomes to Solver (property
// tested) at much higher cost; use it when the propagation process itself
// is the object of study.
type Engine struct {
	pol *Policy
	// MaxGenerations bounds the run as a safety net; the Gao–Rexford
	// policy structure used here always converges (the paper observes 5–10
	// generations). Zero means 4·N+64.
	MaxGenerations int
	// Depref lists nodes that apply PGBGP-style handling to bogus
	// announcements: instead of dropping them (the `blocked` set), they
	// treat attacker-origin routes as suspicious and select one only when
	// no legitimate alternative exists. Prefer-valid two-plane policies of
	// this shape are convergence-safe.
	Depref *asn.IndexSet

	// base lazily holds the solver that computes the defense-free
	// baseline route a leak scenario re-announces.
	base *Solver

	// SecureDeployed and SecureMode enable S*BGP-style path security
	// (Lychev, Goldberg & Schapira, SIGCOMM 2013 — the model whose
	// section 4 the paper corroborates): a route is *secure* when the
	// legitimate origin and every subsequent hop deploy S*BGP and sign it;
	// the attacker can never produce a secure route for the victim's
	// prefix. Deployed ASes rank security per SecureMode; non-deployed
	// ASes cannot verify signatures and ignore the attribute.
	SecureDeployed *asn.IndexSet
	SecureMode     SecureMode
}

// SecureMode is where security ranks in a deployed AS's route selection.
type SecureMode int8

const (
	// SecureOff disables path security.
	SecureOff SecureMode = 0
	// SecurityFirst ranks secure routes above LOCAL_PREF ("security 1st").
	SecurityFirst SecureMode = 1
	// SecuritySecond ranks security between LOCAL_PREF and path length.
	SecuritySecond SecureMode = 2
	// SecurityThird uses security only as the final tie-break before the
	// next-hop comparison ("security 3rd" — the deployment-friendly
	// policy real operators prefer).
	SecurityThird SecureMode = 3
)

// NewEngine returns an Engine over the policy.
func NewEngine(pol *Policy) *Engine {
	return &Engine{pol: pol}
}

// ribEntry is one Adj-RIB-In slot: the route most recently advertised by a
// particular neighbor.
type ribEntry struct {
	dist   int16 // as advertised (sender's own path length)
	origin int8
	secure bool // S*BGP: signed by the origin and every subsequent hop
}

type message struct {
	from, to int32
	withdraw bool
	dist     int16
	origin   int8
	secure   bool
}

// engineRun holds the mutable per-run state.
type engineRun struct {
	pol    *Policy
	sc     *scenario
	depref *asn.IndexSet

	secureDeployed *asn.IndexSet
	secureMode     SecureMode
	secure         []bool // per node: selected route is secure

	// Adj-RIB-In, split by the advertising neighbor's relationship so the
	// route class is implicit.
	ribCust []map[int32]ribEntry
	ribPeer []map[int32]ribEntry
	ribProv []map[int32]ribEntry

	// Selected routes, in the packed record Outcome reads; the run is the
	// only epoch, so stamp 1 means "has a route".
	nodes []nodeRec

	queue []message
	next  []message
	trace *Trace
	gen   int
}

// Run executes the attack to convergence and returns the outcome plus the
// full message trace (trace collection is cheap relative to the engine
// itself; pass collectTrace=false to skip storing events). Run is
// RunDefense under the paper's original ROV-only defense shape.
func (e *Engine) Run(at Attack, blocked *asn.IndexSet, collectTrace bool) (*Outcome, *Trace, error) {
	return e.RunDefense(at, Defense{Blocked: blocked}, collectTrace)
}

// RunDefense executes the attack under the full defense model (ROV, ASPA,
// Peerlock), resolved through the same scenario layer the Solver uses —
// the two remain bit-identical for every attack kind.
func (e *Engine) RunDefense(at Attack, def Defense, collectTrace bool) (*Outcome, *Trace, error) {
	n := e.pol.N()
	if err := validateAttack(e.pol, at); err != nil {
		return nil, nil, fmt.Errorf("engine: %w", err)
	}
	sc, err := buildScenario(e.pol, at, def, func() (int16, bool) {
		if e.base == nil {
			e.base = NewSolver(e.pol)
		}
		return e.base.baselineDist(at)
	})
	if err != nil {
		return nil, nil, err
	}
	maxGen := e.MaxGenerations
	if maxGen == 0 {
		maxGen = 4*n + 64
	}

	r := &engineRun{
		pol:        e.pol,
		sc:         &sc,
		depref:     e.Depref,
		secureMode: e.SecureMode,
		ribCust:    make([]map[int32]ribEntry, n),
		ribPeer:    make([]map[int32]ribEntry, n),
		ribProv:    make([]map[int32]ribEntry, n),
		nodes:      make([]nodeRec, n),
		secure:     make([]bool, n),
	}
	if e.SecureMode != SecureOff {
		r.secureDeployed = e.SecureDeployed
	}
	if collectTrace {
		r.trace = &Trace{}
	}

	// The attacker's advertised path starts at the scenario's seed depth
	// (0 for an origin hijack, 1 for a forged-origin prepend, the leaked
	// route's real length for a leak); a leak with no route to leak never
	// announces at all.
	originate := func(node int, org int8, d int16) {
		r.nodes[node] = nodeRec{stamp: 1, nexthop: -1, dist: d, class: ClassOrigin, origin: org}
		// Only the legitimate origin can produce a route-origin signature
		// for the victim's prefix; a deployed attacker still cannot.
		r.secure[node] = r.secureMode != SecureOff && org == OriginTarget &&
			r.secureDeployed != nil && r.secureDeployed.Contains(node)
		r.enqueueUpdates(int32(node), ClassNone, -1)
	}
	if at.SubPrefix {
		originate(at.Attacker, OriginAttacker, sc.seedDist)
	} else {
		originate(at.Target, OriginTarget, 0)
		if sc.seedAttacker {
			originate(at.Attacker, OriginAttacker, sc.seedDist)
		}
	}

	for len(r.next) > 0 {
		r.gen++
		if r.gen > maxGen {
			return nil, nil, fmt.Errorf("engine: no convergence after %d generations", maxGen)
		}
		r.queue, r.next = r.next, r.queue[:0]
		touched := r.deliverAll()
		r.recomputeAll(touched)
		if r.trace != nil {
			r.trace.genEnd = append(r.trace.genEnd, len(r.trace.Events))
		}
	}

	out := &Outcome{Target: at.Target, Attacker: at.Attacker, epoch: 1, nodes: r.nodes, weights: r.pol.g.AddrWeights()}
	if r.trace != nil {
		r.trace.Generations = r.gen
	}
	return out, r.trace, nil
}

// deliverAll applies every queued message to Adj-RIB-In state and returns
// the set of nodes whose RIB changed.
func (r *engineRun) deliverAll() map[int32]bool {
	touched := make(map[int32]bool)
	for _, m := range r.queue {
		rib := r.ribFor(m.to, m.from)
		if rib == nil {
			continue // stale message across a mutated graph: cannot happen
		}
		if m.withdraw {
			if _, ok := rib[m.from]; ok {
				delete(rib, m.from)
				touched[m.to] = true
			}
		} else {
			// Validation drops bogus announcements pre-RIB: the paper's
			// prevention model ("something exists to prevent a router from
			// accepting and propagating a bogus announcement"), resolved
			// per scenario (ROV, ASPA or Peerlock — see scenario.go). An
			// update implicitly replaces the neighbor's previous
			// advertisement, so a rejected update still clears it.
			if r.sc.rejects(r.pol, m.to, m.origin) {
				if _, ok := rib[m.from]; ok {
					delete(rib, m.from)
					touched[m.to] = true
				}
				continue
			}
			rib[m.from] = ribEntry{dist: m.dist, origin: m.origin, secure: m.secure}
			touched[m.to] = true
		}
	}
	if r.trace != nil {
		for _, m := range r.queue {
			r.trace.Events = append(r.trace.Events, Event{
				Gen: r.gen, From: m.from, To: m.to, Origin: m.origin, Withdraw: m.withdraw,
			})
		}
	}
	return touched
}

// ribFor returns the Adj-RIB-In map of `to` that holds routes advertised
// by `from`, lazily allocated, or nil if they are not adjacent.
func (r *engineRun) ribFor(to, from int32) map[int32]ribEntry {
	pick := func(maps []map[int32]ribEntry) map[int32]ribEntry {
		if maps[to] == nil {
			maps[to] = make(map[int32]ribEntry, 4)
		}
		return maps[to]
	}
	for _, c := range r.pol.Customers(int(to)) {
		if c == from {
			return pick(r.ribCust)
		}
	}
	for _, p := range r.pol.Peers(int(to)) {
		if p == from {
			return pick(r.ribPeer)
		}
	}
	for _, p := range r.pol.Providers(int(to)) {
		if p == from {
			return pick(r.ribProv)
		}
	}
	return nil
}

// recomputeAll re-selects best routes for all touched nodes and enqueues
// the resulting updates/withdrawals for the next generation.
func (r *engineRun) recomputeAll(touched map[int32]bool) {
	// Recompute in ascending node order: map iteration order would leak
	// into the next generation's message queue — and through it into the
	// event trace — breaking bit-identical reruns.
	for _, v := range xmaps.SortedKeys(touched) {
		r.recompute(v)
	}
	if r.trace != nil {
		// Mark which of this generation's messages ended up winning.
		start := len(r.trace.Events) - len(r.queue)
		for i := start; i < len(r.trace.Events); i++ {
			ev := &r.trace.Events[i]
			if to := r.nodes[ev.To]; !ev.Withdraw && to.stamp == 1 && to.nexthop == ev.From && to.origin == ev.Origin {
				ev.Accepted = true
			}
		}
	}
}

func (r *engineRun) recompute(v int32) {
	old := r.nodes[v]
	oldHas, oldClass, oldDist, oldNH, oldOrigin := old.stamp == 1, old.class, old.dist, old.nexthop, old.origin

	// Origin nodes never change their mind.
	if oldHas && oldClass == ClassOrigin {
		return
	}

	// Two selection planes: at PGBGP nodes, attacker-origin routes are
	// suspicious and compete only when no legitimate route exists.
	depref := r.depref != nil && r.depref.Contains(int(v))
	oldSecure := r.secure[v]
	bestClass, bestDist, bestNH, bestOrigin, bestSecure := ClassNone, int16(0), int32(-1), OriginNone, false
	suspClass, suspDist, suspNH, suspOrigin := ClassNone, int16(0), int32(-1), OriginNone
	// Scan each Adj-RIB-In in ascending neighbor order. The comparator
	// below is a total order, so the winner is order-independent, but a
	// pinned scan order keeps the tie-break path itself reproducible.
	consider := func(cls RouteClass, rib map[int32]ribEntry) {
		for _, from := range xmaps.SortedKeys(rib) {
			ent := rib[from]
			d := ent.dist + 1
			if depref && ent.origin == OriginAttacker {
				if suspClass == ClassNone || r.pol.better(int(v), cls, d, from, suspClass, suspDist, suspNH) {
					suspClass, suspDist, suspNH, suspOrigin = cls, d, from, ent.origin
				}
				continue
			}
			if bestClass == ClassNone || r.betterRoute(v, cls, d, from, ent.secure, bestClass, bestDist, bestNH, bestSecure) {
				bestClass, bestDist, bestNH, bestOrigin, bestSecure = cls, d, from, ent.origin, ent.secure
			}
		}
	}
	consider(ClassCustomer, r.ribCust[v])
	consider(ClassPeer, r.ribPeer[v])
	consider(ClassProvider, r.ribProv[v])
	if bestClass == ClassNone && suspClass != ClassNone {
		bestClass, bestDist, bestNH, bestOrigin, bestSecure = suspClass, suspDist, suspNH, suspOrigin, false
	}

	newHas := bestClass != ClassNone
	if newHas == oldHas && bestClass == oldClass && bestDist == oldDist && bestNH == oldNH &&
		bestOrigin == oldOrigin && bestSecure == oldSecure {
		return
	}
	r.nodes[v] = nodeRec{nexthop: bestNH, dist: bestDist, class: bestClass, origin: bestOrigin}
	if newHas {
		r.nodes[v].stamp = 1
	}
	r.secure[v] = bestSecure
	if !oldHas {
		oldClass, oldNH = ClassNone, -1
	}
	r.enqueueUpdates(v, oldClass, oldNH)
}

// betterRoute extends the policy preference with the S*BGP security rank
// at deployed nodes. With security off (or equal bits, or an undeployed
// node that cannot verify signatures) it is exactly Policy.better.
func (r *engineRun) betterRoute(v int32, clsA RouteClass, dA int16, nhA int32, secA bool, clsB RouteClass, dB int16, nhB int32, secB bool) bool {
	if r.secureMode == SecureOff || secA == secB ||
		r.secureDeployed == nil || !r.secureDeployed.Contains(int(v)) {
		return r.pol.better(int(v), clsA, dA, nhA, clsB, dB, nhB)
	}
	// Build the node's base key order (tier-1 SPF puts length before
	// class) and insert the security key at the mode's rank.
	type key struct{ a, b int }
	classKey := key{int(clsA), int(clsB)}
	distKey := key{int(dA), int(dB)}
	secKey := key{boolRank(secA), boolRank(secB)}
	base := []key{classKey, distKey}
	if r.pol.tier1SPF && r.pol.tier1[v] {
		base = []key{distKey, classKey}
	}
	var order []key
	switch r.secureMode {
	case SecurityFirst:
		order = []key{secKey, base[0], base[1]}
	case SecuritySecond:
		order = []key{base[0], secKey, base[1]}
	default: // SecurityThird
		order = []key{base[0], base[1], secKey}
	}
	for _, k := range order {
		if k.a != k.b {
			return k.a < k.b
		}
	}
	return r.pol.betterNH(nhA, nhB)
}

// boolRank maps secure=true to the preferred (smaller) rank.
func boolRank(secure bool) int {
	if secure {
		return 0
	}
	return 1
}

// enqueueUpdates schedules announcements/withdrawals to v's neighbors
// after its best route changed from (oldClass, oldNH) to the current one.
// Split horizon: a route is never advertised back to its next hop.
func (r *engineRun) enqueueUpdates(v int32, oldClass RouteClass, oldNH int32) {
	cur := r.nodes[v]
	newClass, newNH := ClassNone, int32(-1)
	if cur.stamp == 1 {
		newClass, newNH = cur.class, cur.nexthop
	}
	// An advert stays inside the secure chain only if this hop also signs
	// it (selected route secure AND this AS deploys S*BGP).
	advSecure := cur.stamp == 1 && r.secure[v] &&
		r.secureDeployed != nil && r.secureDeployed.Contains(int(v))
	send := func(to int32, wasExporting, nowExporting bool) {
		switch {
		case nowExporting:
			r.next = append(r.next, message{from: v, to: to, dist: cur.dist, origin: cur.origin, secure: advSecure})
		case wasExporting:
			r.next = append(r.next, message{from: v, to: to, withdraw: true})
		}
	}
	for _, c := range r.pol.Customers(int(v)) {
		send(c, oldClass != ClassNone && c != oldNH, newClass != ClassNone && c != newNH)
	}
	for _, p := range r.pol.Peers(int(v)) {
		send(p, offersToPeers(oldClass) && p != oldNH, offersToPeers(newClass) && p != newNH)
	}
	for _, p := range r.pol.Providers(int(v)) {
		send(p, offersToPeers(oldClass) && p != oldNH, offersToPeers(newClass) && p != newNH)
	}
}
