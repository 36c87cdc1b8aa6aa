package core

import (
	"fmt"
	"math"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// Attack describes one hijack scenario: Attacker announces address space
// owned by Target, in the shape selected by Kind (the zero value is the
// paper's type-0 origin hijack). With SubPrefix set, the attacker
// announces a more-specific prefix, which wins longest-prefix-match
// forwarding everywhere it propagates — the legitimate covering
// announcement cannot compete, so only validation filters stop it.
type Attack struct {
	Target   int
	Attacker int
	// SubPrefix selects a sub-prefix hijack instead of an exact-prefix
	// one. Incompatible with KindRouteLeak (a leak re-announces the real
	// prefix).
	SubPrefix bool
	// Kind selects the attack scenario; the zero value, KindOrigin, is
	// the classic type-0 origin hijack.
	Kind AttackKind
}

// nodeRec is one node's packed route state: the 12 bytes a relaxed edge
// reads and writes sit in one record (and so one cache line) instead of
// one n-sized array per field. stamp says what the rest means for the
// solver whose epoch it is compared against:
//
//	stamp ==  epoch  committed: the node's selected route this solve
//	stamp == -epoch  tentative: the best candidate of the BFS level (or
//	                 peer-fill pass) in flight, not yet visible as a route
//	anything else    stale: no route this solve
//
// Epochs are positive, so the three cases are disjoint and a zeroed
// record is stale under every epoch.
type nodeRec struct {
	stamp   int32
	nexthop int32
	dist    int16
	class   RouteClass
	origin  int8
}

// Solver computes the converged routing outcome of an attack in O(V+E)
// using the three-stage customer/peer/provider BFS. A Solver's buffers are
// reused across calls: the Outcome returned by Solve is only valid until
// the next Solve on the same Solver (Clone it to keep it). Solvers are not
// safe for concurrent use; create one per goroutine (they share the
// Policy).
type Solver struct {
	pol *Policy

	epoch int32
	nodes []nodeRec
	out   Outcome // the view Solve returns, rebound every solve

	frontier []int32
	candList []int32
	buckets  [][]int32
	tier1Buf []t1sel // stagePeer's SPF worklist, reused across Solve calls

	// base lazily holds a second solver for the defense-free baseline
	// solves route leaks need (the leaked route's real length), so the
	// main solve's buffers stay untouched.
	base *Solver
}

// t1sel is one tier-1 node with its customer-route distance, the sort key
// of stagePeer's shortest-path-first pass.
type t1sel struct {
	node int32
	d    int16
}

// NewSolver returns a Solver over the policy.
func NewSolver(pol *Policy) *Solver {
	return &Solver{pol: pol, nodes: make([]nodeRec, pol.N())}
}

// Outcome is a view of one converged routing state. It remains valid only
// until the owning Solver/Engine runs again; call Clone to detach it.
type Outcome struct {
	Target   int
	Attacker int

	epoch int32
	nodes []nodeRec // nodes[i].stamp == epoch ⇒ node i has a route
}

// N returns the node count.
func (o *Outcome) N() int { return len(o.nodes) }

// HasRoute reports whether node i selected any route.
func (o *Outcome) HasRoute(i int) bool { return o.nodes[i].stamp == o.epoch }

// Origin returns which origin node i routes to (OriginTarget,
// OriginAttacker, or OriginNone).
func (o *Outcome) Origin(i int) int8 {
	if !o.HasRoute(i) {
		return OriginNone
	}
	return o.nodes[i].origin
}

// Class returns the route class node i selected.
func (o *Outcome) Class(i int) RouteClass {
	if !o.HasRoute(i) {
		return ClassNone
	}
	return o.nodes[i].class
}

// Dist returns node i's AS-path length to its selected origin (0 at the
// origin itself); -1 without a route.
func (o *Outcome) Dist(i int) int16 {
	if !o.HasRoute(i) {
		return -1
	}
	return o.nodes[i].dist
}

// NextHop returns the neighbor node i forwards through, or -1 at an origin
// or unrouted node.
func (o *Outcome) NextHop(i int) int32 {
	if !o.HasRoute(i) || o.nodes[i].class == ClassOrigin {
		return -1
	}
	return o.nodes[i].nexthop
}

// Polluted reports whether node i selected a route to the attacker.
// Origin nodes themselves are never counted as polluted.
func (o *Outcome) Polluted(i int) bool {
	return i != o.Attacker && o.HasRoute(i) && o.nodes[i].origin == OriginAttacker
}

// PollutedCount returns the number of polluted ASes — the paper's core
// vulnerability measurement.
func (o *Outcome) PollutedCount() int {
	count, _ := o.PollutedWeight(nil)
	return count
}

// PollutedWeight returns the number of polluted ASes and the sum of their
// weights in one pass over the packed records. weights is indexed by node;
// nil means every node weighs 1 (topology.Graph.AddrWeights' convention).
func (o *Outcome) PollutedWeight(weights []int64) (count int, weight int64) {
	// Whether a node is polluted is close to a coin flip, so the loops are
	// branch-free: hit is 0 or 1 and masks the node's weight.
	if weights == nil {
		for i := range o.nodes {
			count += int(o.nodes[i].toAttacker(o.epoch))
		}
		// The attacker's own origination is not pollution.
		count -= int(o.nodes[o.Attacker].toAttacker(o.epoch))
		return count, int64(count)
	}
	weights = weights[:len(o.nodes)]
	for i := range o.nodes {
		hit := o.nodes[i].toAttacker(o.epoch)
		count += int(hit)
		weight += weights[i] & -hit
	}
	hit := o.nodes[o.Attacker].toAttacker(o.epoch)
	return count - int(hit), weight - weights[o.Attacker]&-hit
}

// toAttacker is 1 when the record is a route to the attacker committed
// under epoch, else 0.
func (r *nodeRec) toAttacker(epoch int32) int64 {
	if (r.stamp^epoch)|int32(r.origin^OriginAttacker) == 0 {
		return 1
	}
	return 0
}

// PollutedNodes appends all polluted node indices to dst.
func (o *Outcome) PollutedNodes(dst []int) []int {
	for i := range o.nodes {
		if o.Polluted(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Clone returns a detached copy that survives further Solver runs.
func (o *Outcome) Clone() *Outcome {
	c := &Outcome{Target: o.Target, Attacker: o.Attacker, epoch: 1, nodes: make([]nodeRec, len(o.nodes))}
	for i, r := range o.nodes {
		if r.stamp == o.epoch {
			r.stamp = 1
			c.nodes[i] = r
		}
	}
	return c
}

// Path reconstructs node i's AS-path (as node indices, from i to the
// origin). Returns nil if i has no route.
func (o *Outcome) Path(i int) []int {
	if !o.HasRoute(i) {
		return nil
	}
	path := []int{i}
	cur := i
	for o.nodes[cur].class != ClassOrigin {
		cur = int(o.nodes[cur].nexthop)
		path = append(path, cur)
		if len(path) > len(o.nodes) {
			return nil // defensive: cycles cannot happen in converged state
		}
	}
	return path
}

// Solve computes the converged outcome of the attack. blocked, if non-nil,
// is the set of nodes performing route-origin validation: they reject (do
// not select or re-export) routes leading to the attacker. A nil blocked
// set means no deployed prevention beyond whatever the attack kind itself
// implies. Solve is SolveDefense under the paper's original ROV-only
// defense shape.
func (s *Solver) Solve(at Attack, blocked *asn.IndexSet) (*Outcome, error) {
	return s.SolveDefense(at, Defense{Blocked: blocked})
}

// SolveDefense computes the converged outcome of the attack under the
// full defense model: ROV origin filtering, ASPA path validation and
// tier-1 Peerlock, each applied exactly where the attack kind makes it
// applicable (see the scenario layer in scenario.go).
func (s *Solver) SolveDefense(at Attack, def Defense) (*Outcome, error) {
	if err := validateAttack(s.pol, at); err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	sc, err := buildScenario(s.pol, at, def, func() (int16, bool) { return s.baselineDist(at) })
	if err != nil {
		return nil, err
	}
	return s.solveScenario(at, &sc), nil
}

// validateAttack rejects out-of-range and self-targeting attacks; shared
// by Solver and Engine.
func validateAttack(pol *Policy, at Attack) error {
	n := pol.N()
	if at.Target < 0 || at.Target >= n || at.Attacker < 0 || at.Attacker >= n {
		return fmt.Errorf("node index out of range (target %d, attacker %d, n %d)", at.Target, at.Attacker, n)
	}
	if at.Target == at.Attacker {
		return fmt.Errorf("target and attacker are the same node %d", at.Target)
	}
	return nil
}

// baselineDist solves the defense-free no-attack state (target announcing
// alone) on the lazily-built secondary solver and returns the attacker's
// converged route distance to the target, or ok=false if it has none.
func (s *Solver) baselineDist(at Attack) (int16, bool) {
	if s.base == nil {
		s.base = NewSolver(s.pol)
	}
	o := s.base.solveScenario(Attack{Target: at.Target, Attacker: at.Attacker}, &scenario{})
	if !o.HasRoute(at.Attacker) {
		return 0, false
	}
	return o.Dist(at.Attacker), true
}

// solveScenario runs the three stages under a resolved scenario. The
// attack must already be validated.
func (s *Solver) solveScenario(at Attack, sc *scenario) *Outcome {
	s.nextEpoch()

	// Seed the origins. In a sub-prefix hijack only the attacker's
	// more-specific announcement exists in this prefix's routing plane.
	// The attacker's advertised path starts at the scenario's seed depth
	// (0 for an origin hijack, deeper for prepends and leaks).
	s.frontier = s.frontier[:0]
	if at.SubPrefix {
		s.assign(at.Attacker, ClassOrigin, sc.seedDist, -1, OriginAttacker)
		s.frontier = append(s.frontier, int32(at.Attacker))
	} else {
		s.assign(at.Target, ClassOrigin, 0, -1, OriginTarget)
		if sc.seedAttacker {
			s.assign(at.Attacker, ClassOrigin, sc.seedDist, -1, OriginAttacker)
		}
		// Deterministic seed order: lower node index first.
		switch {
		case !sc.seedAttacker:
			s.frontier = append(s.frontier, int32(at.Target))
		case at.Target < at.Attacker:
			s.frontier = append(s.frontier, int32(at.Target), int32(at.Attacker))
		default:
			s.frontier = append(s.frontier, int32(at.Attacker), int32(at.Target))
		}
	}

	s.stageCustomer(sc)
	s.stagePeer(sc)
	s.stageProvider(sc)

	s.out = Outcome{Target: at.Target, Attacker: at.Attacker, epoch: s.epoch, nodes: s.nodes}
	return &s.out
}

// nextEpoch invalidates every record for a new solve. Stamps are compared
// against ±epoch, so the counter must stay positive: at the top of the
// int32 range the records are cleared and counting restarts at 1 (once per
// 2^31 solves — a long-lived hijackd worker gets there).
func (s *Solver) nextEpoch() {
	if s.epoch == math.MaxInt32 {
		clear(s.nodes)
		s.epoch = 0
	}
	s.epoch++
}

func (s *Solver) assign(i int, c RouteClass, d int16, nh int32, org int8) {
	s.nodes[i] = nodeRec{stamp: s.epoch, nexthop: nh, dist: d, class: c, origin: org}
}

func (s *Solver) assigned(i int32) bool { return s.nodes[i].stamp == s.epoch }

// propose offers node i the candidate route (c, d, nh, org) within the
// current BFS level. The first offer of the level is written into i's
// record under the tentative stamp and i joins s.candList; a later offer
// replaces it only when its next hop wins the policy's tie-break. All
// offers within a level share class and distance, so the record ends the
// level holding exactly the route a collect-then-pick pass would select.
// The caller has already checked that i is not assigned.
func (s *Solver) propose(i int32, c RouteClass, d int16, nh int32, org int8) {
	r := &s.nodes[i]
	if r.stamp != -s.epoch {
		*r = nodeRec{stamp: -s.epoch, nexthop: nh, dist: d, class: c, origin: org}
		s.candList = append(s.candList, i)
		return
	}
	if s.pol.betterNH(nh, r.nexthop) {
		r.nexthop = nh
		r.origin = org
	}
}

// commit turns every tentative record of s.candList into the node's
// selected route by flipping its stamp — the candidate already sits in
// the record, nothing is copied — and empties the list.
func (s *Solver) commit() {
	for _, i := range s.candList {
		s.nodes[i].stamp = s.epoch
	}
	s.candList = s.candList[:0]
}

// stageCustomer floods customer-learned routes up provider links through
// distance buckets: seeds may start at different depths (a forged-origin
// prepend or a leaked route starts deeper than the victim's own
// origination), and processing buckets in ascending distance keeps the
// flood level-synchronous per distance, so equal-length ties resolve to
// the lowest next-hop exactly as the message engine does. With all seeds
// at distance 0 this degenerates to the original level-synchronous BFS.
//
//bgplint:hotpath runs once per (target, attacker, policy) cell of a sweep
func (s *Solver) stageCustomer(sc *scenario) {
	s.buckets = s.buckets[:0]
	for _, v := range s.frontier {
		d := int(s.nodes[v].dist)
		s.growBuckets(d + 1)
		s.buckets[d] = append(s.buckets[d], v)
	}
	s.flood(sc, s.pol.provOff, s.pol.provAdj, ClassCustomer)
}

// stagePeer hands customer routes across single peer hops. Tier-1 nodes
// apply shortest-path-first import and may replace their customer route
// with a shorter peer route, in which case they stop offering a route to
// their peers (peer-learned routes are not exported to peers); processing
// tier-1s in ascending customer-route distance resolves that dependency in
// one pass.
//
//bgplint:hotpath runs once per (target, attacker, policy) cell of a sweep
func (s *Solver) stagePeer(sc *scenario) {
	pol := s.pol
	n := pol.N()

	// offers(v): v's best route is customer-class (or origination), so v
	// exports it to peers. Initially true for every routed node, because
	// stage 1 assigned only origin/customer classes; tier-1 SPF decisions
	// below may turn individual tier-1s off.
	s.tier1Buf = s.tier1Buf[:0]
	if pol.tier1SPF {
		for i := 0; i < n; i++ {
			if pol.tier1[i] {
				d := int16(1) << 14 // effectively infinite
				if s.assigned(int32(i)) {
					d = s.nodes[i].dist
				}
				s.tier1Buf = append(s.tier1Buf, t1sel{int32(i), d})
			}
		}
		tier1s := s.tier1Buf
		// Ascending customer-route distance, node id breaking ties.
		for i := 1; i < len(tier1s); i++ {
			for j := i; j > 0 && (tier1s[j].d < tier1s[j-1].d ||
				tier1s[j].d == tier1s[j-1].d && tier1s[j].node < tier1s[j-1].node); j-- {
				tier1s[j], tier1s[j-1] = tier1s[j-1], tier1s[j]
			}
		}
		for _, t := range tier1s {
			w := t.node
			// Best peer offer among peers still offering customer routes.
			bestD, bestNH, bestOrg := s.bestPeerOffer(sc, w)
			if bestNH == -1 {
				continue
			}
			if cur := s.nodes[w]; cur.stamp != s.epoch ||
				pol.better(int(w), ClassPeer, bestD, bestNH, cur.class, cur.dist, cur.nexthop) {
				s.assign(int(w), ClassPeer, bestD, bestNH, bestOrg)
			}
		}
	}

	// Everyone else: peer routes only fill gaps (customer class wins), and
	// they do not cascade, so one pass suffices. Fills stay tentative
	// until the pass ends so freshly filled nodes cannot masquerade as
	// donors.
	for w := 0; w < n; w++ {
		if s.assigned(int32(w)) || pol.tier1SPF && pol.tier1[w] {
			continue
		}
		if bestD, bestNH, bestOrg := s.bestPeerOffer(sc, int32(w)); bestNH != -1 {
			s.propose(int32(w), ClassPeer, bestD, bestNH, bestOrg)
		}
	}
	s.commit()
}

// bestPeerOffer returns the route w would pick among its peers' current
// offers (shortest, then the policy's next-hop tie-break), or nexthop -1
// when no peer offers one that w accepts.
func (s *Solver) bestPeerOffer(sc *scenario, w int32) (bestD int16, bestNH int32, bestOrg int8) {
	bestNH, bestOrg = -1, OriginNone
	for _, v := range s.pol.Peers(int(w)) {
		r := s.nodes[v]
		if r.stamp != s.epoch || !offersToPeers(r.class) || sc.rejects(s.pol, w, r.origin) {
			continue
		}
		cd := r.dist + 1
		if bestNH == -1 || cd < bestD || cd == bestD && s.pol.betterNH(v, bestNH) {
			bestD, bestNH, bestOrg = cd, v, r.origin
		}
	}
	return bestD, bestNH, bestOrg
}

// offersToPeers reports whether a node whose best route has class c
// exports it to peers (true only for origin/customer-class selections).
func offersToPeers(c RouteClass) bool {
	return c == ClassOrigin || c == ClassCustomer
}

// stageProvider floods every selected route down customer links using
// distance buckets (sources start at different depths), assigning
// provider-class routes to still-unrouted nodes level by level.
//
//bgplint:hotpath runs once per (target, attacker, policy) cell of a sweep
func (s *Solver) stageProvider(sc *scenario) {
	s.buckets = s.buckets[:0]
	for i := range s.nodes {
		if s.assigned(int32(i)) {
			d := int(s.nodes[i].dist)
			s.growBuckets(d + 1)
			s.buckets[d] = append(s.buckets[d], int32(i))
		}
	}
	s.flood(sc, s.pol.custOff, s.pol.custAdj, ClassProvider)
}

// flood runs the bucketed BFS both flooding stages share: s.buckets[d]
// holds the routed nodes at distance d, and every bucket in ascending
// order offers its nodes' routes along the CSR adjacency (off, adj) to
// still-unrouted neighbors, which join bucket d+1 with class c.
//
//bgplint:hotpath the edge-relaxation loop: ~60% of sweep CPU
func (s *Solver) flood(sc *scenario, off, adj []int32, c RouteClass) {
	for d := 0; d < len(s.buckets); d++ {
		for _, v := range s.buckets[d] {
			org := s.nodes[v].origin
			for _, w := range adj[off[v]:off[v+1]] {
				if s.assigned(w) || sc.rejects(s.pol, w, org) {
					continue
				}
				s.propose(w, c, int16(d+1), v, org)
			}
		}
		if len(s.candList) == 0 {
			continue
		}
		s.growBuckets(d + 2)
		s.buckets[d+1] = append(s.buckets[d+1], s.candList...)
		s.commit()
	}
}

// growBuckets extends the distance-bucket array to size by re-slicing
// within capacity, so each inner bucket keeps the arena it grew in earlier
// stages and solves; only its length is reset. (Appending nil here would
// drop those arenas and re-grow every deep bucket from zero each solve.)
//
//bgplint:hotpath runs per bucket of every stage
func (s *Solver) growBuckets(size int) {
	if size > cap(s.buckets) {
		grown := make([][]int32, 2*size+8)
		copy(grown, s.buckets[:cap(s.buckets)])
		s.buckets = grown[:len(s.buckets)]
	}
	for i := len(s.buckets); i < size; i++ {
		s.buckets = s.buckets[:i+1]
		s.buckets[i] = s.buckets[i][:0]
	}
}

// ReceivedAttackerRoute computes, for every node, whether at least one
// neighbor exported an attacker-origin route to it in the converged state —
// whether the node "heard" the hijack even if it did not select it. This is
// the alternative detection semantics studied as an ablation (the paper's
// detectors trigger on routes their probe AS selects and re-exports).
func ReceivedAttackerRoute(pol *Policy, o OutcomeView) []bool {
	n := o.N()
	received := make([]bool, n)
	g := pol.Graph()
	for v := 0; v < n; v++ {
		if o.Origin(v) != OriginAttacker {
			continue
		}
		cls := o.Class(v)
		nbrs, rels := g.Neighbors(v)
		for k, nb := range nbrs {
			if int(nb) == int(o.NextHop(v)) {
				continue // split horizon: never announced back to the next hop
			}
			if exportsTo(cls, rels[k]) {
				received[nb] = true
			}
		}
	}
	return received
}
