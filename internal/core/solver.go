package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/topology"
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
// one n-sized array per field. stamp == the solver's epoch means the rest
// is the node's selected route this solve; any other stamp is stale — no
// route this solve, or, at a single-homed stub, the route Outcome.route
// derives from its provider's. Epochs are positive, so a zeroed record is
// stale under every epoch. A record is written at most once per solve
// (twice for a tier-1 the shortest-path-first pass re-routes): every stage
// offers routes in preference order, so the first offer a node accepts is
// final.
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
// safe for concurrent use; create one per goroutine, or take one from the
// Policy's idle list (AcquireSolver) and hand it back when done.
type Solver struct {
	pol *Policy

	epoch int32
	nodes []nodeRec
	out   Outcome // the view Solve returns, rebound every solve

	// Level sets: level d is the bitmap (bit i%64 of word i/64) of the
	// nodes routed at distance d this solve. They are filled by the seeds
	// and kept through all three stages — each stage walks the levels it is
	// handed and adds the nodes it routes — and live back to back in one
	// arena that is retained across solves: levels[d*words:(d+1)*words].
	levels []uint64
	words  int // uint64s per level
	top    int // highest level that has had a member this solve

	// base lazily holds a second solver for the defense-free baseline
	// solves route leaks need (the leaked route's real length), so the
	// main solve's buffers stay untouched. Its records keep the baseline
	// of base.out.Target until a leak against another target arrives.
	base *Solver

	// ln is the lane-mode state, allocated by the first SolveLanes: a solver
	// that only ever runs scalar solves (a hijackd worker) pays nothing.
	ln *laneState

	stats SolverStats
}

// SolverStats counts what a Solver did, for observability and for tests
// pinning that each stage costs what it routes. Sources and Offers are
// indexed by stage: 0 customer, 1 peer fill, 2 provider.
type SolverStats struct {
	// Solves counts scalar three-stage runs on this solver (Solve,
	// SolveDefense, BuildSnapshot, and each lane materialized).
	Solves int64
	// LaneSolves counts SolveLanes batches, Lanes the cells they served and
	// Materialized the lanes whose Class, NextHop, Path or Clone was read
	// and cost a scalar solve of that cell on top.
	LaneSolves, Lanes, Materialized int64
	// BaselineSolves counts the extra defense-free solves run for route
	// leaks: one per change of target, not one per leak.
	BaselineSolves int64
	// Sources counts the routed nodes the solves visited to offer their
	// route on, and Offers the edges they offered it over (each source's
	// whole adjacency row, whether or not the neighbor took the route). A
	// lane flood visits a source once for all the lanes it carries. Both
	// provider stages offer over transit-customer edges only.
	Sources [3]int64
	Offers  [3]int64
	// Pulled counts the provider edges the stub passes read: every provider
	// link of each multi-homed stub still unrouted in some lane after the
	// lane provider flood, or after the scalar one. Single-homed stubs are
	// derived from their provider on read and cost the passes nothing.
	Pulled int64
}

// NewSolver returns a Solver over the policy. Its arenas are allocated by
// the first solve that needs them: the scalar records by the first scalar
// solve, lane materialization or leak baseline, the lane words by the first
// SolveLanes. Policy.AcquireSolver hands out warm ones.
func NewSolver(pol *Policy) *Solver {
	return &Solver{pol: pol, words: len(pol.hasCust)}
}

// Stats returns cumulative work counters for this solver.
func (s *Solver) Stats() SolverStats { return s.stats }

// Outcome is a view of one converged routing state. It remains valid only
// until the owning Solver/Engine runs again; call Clone to detach it.
//
// A scalar solve leaves its single-homed stubs — one provider, no
// customer — unwritten unless the first two stages routed them: such a
// stub's route is its provider's one hop on, or none where the scenario
// has the stub reject it, and the Outcome derives it when read (route).
//
// One lane of a SolveLanes batch is an Outcome too. It answers what every
// lane has — whether a node is routed, to which origin, how far, and the
// pollution totals — from the batch's lane words, deriving every stub the
// batch left unwritten from its providers' words (laneRoute), and what only a
// scalar solve has (Class, NextHop, Path, Clone) by running that one cell
// on the owning Solver the first time it is asked: no reader can tell which
// mode solved its cell.
type Outcome struct {
	Target   int
	Attacker int

	epoch int32
	nodes []nodeRec // nodes[i].stamp == epoch ⇒ node i has that route (see route)

	// pol is non-nil on a scalar solve's records, whose stale single-homed
	// stubs are derived under the solve's resolved scenario sc.
	pol *Policy
	sc  scenario
	// weights is the policy graph's AddrWeights, which PollutedWeight sums.
	weights []int64

	lanes *Solver // non-nil: lane `lane` of lanes' current batch
	lane  uint
}

// N returns the node count.
func (o *Outcome) N() int {
	if o.lanes != nil {
		return o.lanes.pol.n
	}
	return len(o.nodes)
}

// route returns node i's route in the records, and whether it has one: its
// record when the solve wrote it, else, for a single-homed stub of a
// scalar solve, its provider's route with ClassProvider, one hop longer
// and through that provider — unless the provider is unrouted or the
// scenario has the stub reject the route. A provider has a customer, so
// it is no stub and its own record is final.
func (o *Outcome) route(i int) (nodeRec, bool) {
	r := o.nodes[i]
	if r.stamp == o.epoch {
		return r, true
	}
	pol := o.pol
	if pol == nil || !pol.sole(int32(i)) {
		return r, false
	}
	p := pol.provAdj[pol.provOff[i]]
	pr := o.nodes[p]
	if pr.stamp != o.epoch || o.sc.rejects(pol, int32(i), pr.origin) {
		return r, false
	}
	return nodeRec{stamp: o.epoch, nexthop: p, dist: pr.dist + 1, class: ClassProvider, origin: pr.origin}, true
}

// laneRoute is route for one lane of a batch: the node whose lane words
// hold node i's route in lane — i itself where the batch routed it there,
// else, for a stub, the provider whose route it takes, one hop further on
// — and whether i has a route at all. Like a scalar solve, a batch writes
// a stub's route only where the first two stages routed it (a seed, or
// through a peer), so a stub derives its route from its providers' with
// pullStubs' rule: the shortest offer among the providers routed in the
// lane whose route it does not reject, the first in tie-break order among
// equals.
func (s *Solver) laneRoute(i int, lane uint) (v int32, hop int16, ok bool) {
	pol, ln := s.pol, s.ln
	bit := uint64(1) << lane
	if ln.routed[i]&bit != 0 {
		return int32(i), 0, true
	}
	if pol.hasCust[i>>6]>>(i&63)&1 != 0 {
		return 0, 0, false
	}
	drop := uint64(0)
	if ln.rejLanes&bit != 0 && ln.rej.rejects(pol, int32(i), OriginAttacker) {
		drop = bit
	}
	provs := pol.Providers(i)
	v, best := int32(-1), int16(0)
	for k := range provs {
		u := provs[k]
		if pol.tieHigh {
			u = provs[len(provs)-1-k]
		}
		if ln.routed[u]&bit == 0 || ln.att[u]&drop != 0 {
			continue
		}
		// A later offer displaces the kept one only when strictly shorter.
		if d := ln.dist(int(u), lane); v < 0 || d < best {
			v, best = u, d
		}
	}
	return v, 1, v >= 0
}

// HasRoute reports whether node i selected any route.
func (o *Outcome) HasRoute(i int) bool {
	if o.lanes != nil {
		_, _, ok := o.lanes.laneRoute(i, o.lane)
		return ok
	}
	_, ok := o.route(i)
	return ok
}

// Origin returns which origin node i routes to (OriginTarget,
// OriginAttacker, or OriginNone).
func (o *Outcome) Origin(i int) int8 {
	if o.lanes != nil {
		v, _, ok := o.lanes.laneRoute(i, o.lane)
		if !ok {
			return OriginNone
		}
		return int8(o.lanes.ln.att[v] >> o.lane & 1) // OriginTarget is 0, OriginAttacker 1
	}
	r, ok := o.route(i)
	if !ok {
		return OriginNone
	}
	return r.origin
}

// Class returns the route class node i selected.
func (o *Outcome) Class(i int) RouteClass {
	if o.lanes != nil {
		if !o.HasRoute(i) {
			return ClassNone
		}
		o.materialize()
	}
	r, ok := o.route(i)
	if !ok {
		return ClassNone
	}
	return r.class
}

// Dist returns node i's AS-path length to its selected origin (0 at the
// origin itself); -1 without a route.
func (o *Outcome) Dist(i int) int16 {
	if o.lanes != nil {
		v, hop, ok := o.lanes.laneRoute(i, o.lane)
		if !ok {
			return -1
		}
		return o.lanes.ln.dist(int(v), o.lane) + hop
	}
	r, ok := o.route(i)
	if !ok {
		return -1
	}
	return r.dist
}

// NextHop returns the neighbor node i forwards through, or -1 at an origin
// or unrouted node.
func (o *Outcome) NextHop(i int) int32 {
	if o.lanes != nil {
		if !o.HasRoute(i) {
			return -1
		}
		o.materialize()
	}
	r, ok := o.route(i)
	if !ok || r.class == ClassOrigin {
		return -1
	}
	return r.nexthop
}

// Polluted reports whether node i selected a route to the attacker.
// Origin nodes themselves are never counted as polluted.
func (o *Outcome) Polluted(i int) bool {
	return i != o.Attacker && o.Origin(i) == OriginAttacker
}

// PollutedCount returns the number of polluted ASes — the paper's core
// vulnerability measurement.
func (o *Outcome) PollutedCount() int {
	count, _ := o.polluted(false)
	return count
}

// PollutedWeight returns the number of polluted ASes and the sum of their
// address weights, those of the policy's graph (topology.Graph.AddrWeights;
// a graph without them weighs every node 1), in one pass over the packed
// records plus, on a scalar solve's outcome, a walk of the single-homed
// stubs it derives (pollutedSole).
func (o *Outcome) PollutedWeight() (count int, weight int64) { return o.polluted(true) }

// polluted is PollutedWeight, or PollutedCount without weigh: the weight it
// returns is then the count.
func (o *Outcome) polluted(weigh bool) (count int, weight int64) {
	if o.lanes != nil {
		return o.lanes.ln.polluted(o.lanes.pol, o.lane, weigh)
	}
	weights := o.weights
	if !weigh {
		weights = nil
	}
	// Whether a node is polluted is close to a coin flip, so the loops are
	// branch-free: hit is 0 or 1 and masks the node's weight.
	if weights == nil {
		for i := range o.nodes {
			count += int(o.nodes[i].toAttacker(o.epoch))
		}
		// The attacker's own origination is not pollution.
		count -= int(o.nodes[o.Attacker].toAttacker(o.epoch))
		if o.pol != nil {
			c, _ := o.pollutedSole(nil)
			count += c
		}
		return count, int64(count)
	}
	weights = weights[:len(o.nodes)]
	for i := range o.nodes {
		hit := o.nodes[i].toAttacker(o.epoch)
		count += int(hit)
		weight += weights[i] & -hit
	}
	hit := o.nodes[o.Attacker].toAttacker(o.epoch)
	count, weight = count-int(hit), weight-weights[o.Attacker]&-hit
	if o.pol != nil {
		c, w := o.pollutedSole(weights)
		count, weight = count+c, weight+w
	}
	return count, weight
}

// pollutedSole counts, and weighs, the single-homed stubs a scalar
// solve's Outcome derives a route to the attacker for. It walks the
// soleAdj row of each node with single-homed stubs (Policy.hasSole) whose
// written route leads to the attacker, and counts a member unless its own
// record is current — stages 1–2 routed it, a seed or a peer fill, and the
// pass over the records counted it — or the scenario has it reject the
// attacker's route. Visiting those nodes from their bitmap, after the
// branch-free pass, halves what the walk adds to PollutedWeight at paper
// scale against branching on every record.
//
//bgplint:hotpath runs per measured scalar cell over the nodes with single-homed stubs
func (o *Outcome) pollutedSole(weights []int64) (count int, weight int64) {
	pol, nodes, epoch := o.pol, o.nodes, o.epoch
	filtered := !o.sc.unfiltered()
	for wi, word := range pol.hasSole {
		for b := word; b != 0; b &= b - 1 {
			p := wi<<6 | bits.TrailingZeros64(b)
			if nodes[p].toAttacker(epoch) == 0 {
				continue
			}
			for _, w := range pol.soleAdj[pol.soleOff[p]:pol.soleOff[p+1]] {
				if nodes[w].stamp == epoch || filtered && o.sc.rejects(pol, w, OriginAttacker) {
					continue
				}
				count++
				if weights != nil {
					weight += weights[w]
				}
			}
		}
	}
	return count, weight
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
	for i, n := 0, o.N(); i < n; i++ {
		if o.Polluted(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Clone returns a detached copy that survives further Solver runs. It
// writes every route, derived ones included, so it needs no scenario.
func (o *Outcome) Clone() *Outcome {
	o.materialize()
	c := &Outcome{Target: o.Target, Attacker: o.Attacker, epoch: 1, nodes: make([]nodeRec, len(o.nodes)), weights: o.weights}
	for i := range o.nodes {
		if r, ok := o.route(i); ok {
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
	o.materialize()
	path := []int{i}
	cur := i
	for r, _ := o.route(cur); r.class != ClassOrigin; r, _ = o.route(cur) {
		cur = int(r.nexthop)
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

// baselineDist returns the attacker's converged route distance to the
// target in the defense-free no-attack state (target announcing alone), or
// ok=false if it has none. That state is a function of the target only, so
// the lazily-built secondary solver keeps its last outcome and solves again
// only when the target changes: a sweep's leaks against one target share
// one baseline.
func (s *Solver) baselineDist(at Attack) (int16, bool) {
	if s.base == nil || s.base.out.Target != at.Target {
		if s.base == nil {
			s.base = NewSolver(s.pol)
		}
		s.base.solveScenario(Attack{Target: at.Target, Attacker: at.Attacker}, &scenario{})
		s.stats.BaselineSolves++
	}
	o := &s.base.out
	if !o.HasRoute(at.Attacker) {
		return 0, false
	}
	return o.Dist(at.Attacker), true
}

// solveScenario runs the three stages under a resolved scenario. The
// attack must already be validated.
func (s *Solver) solveScenario(at Attack, sc *scenario) *Outcome {
	s.begin()

	// Seed the origins. In a sub-prefix hijack only the attacker's
	// more-specific announcement exists in this prefix's routing plane.
	// The attacker's advertised path starts at the scenario's seed depth
	// (0 for an origin hijack, deeper for prepends and leaks).
	if !at.SubPrefix {
		s.place(int32(at.Target), ClassOrigin, 0, -1, OriginTarget)
	}
	if at.SubPrefix || sc.seedAttacker {
		s.place(int32(at.Attacker), ClassOrigin, sc.seedDist, -1, OriginAttacker)
	}

	s.stageCustomer(sc)
	s.stagePeer(sc)
	s.stageProvider(sc)

	s.out = Outcome{Target: at.Target, Attacker: at.Attacker, epoch: s.epoch, nodes: s.nodes, pol: s.pol, sc: *sc, weights: s.pol.g.AddrWeights()}
	return &s.out
}

// begin invalidates every record and empties the level sets for a new
// scalar solve, allocating the records on the first. Stamps are compared
// against the epoch and a zeroed record must stay stale, so the counter
// stays positive: at the top of the int32 range the records are cleared
// and counting restarts at 1 (once per 2^31 solves — a long-lived hijackd
// worker gets there).
func (s *Solver) begin() {
	if s.nodes == nil {
		s.nodes = make([]nodeRec, s.pol.n)
	} else if s.epoch == math.MaxInt32 {
		clear(s.nodes)
		s.epoch = 0
	}
	s.epoch++
	s.levels = s.levels[:0]
	s.top = 0
	s.stats.Solves++
}

// place routes node i outside a flood — a seed, or a tier-1 the
// shortest-path-first pass re-routes — and enters it into level d.
func (s *Solver) place(i int32, c RouteClass, d int16, nh int32, org int8) {
	s.nodes[i] = nodeRec{stamp: s.epoch, nexthop: nh, dist: d, class: c, origin: org}
	s.enter(i, int(d))
}

// enter adds node i to level d outside a flood.
func (s *Solver) enter(i int32, d int) {
	s.growLevels(d + 1)
	s.level(d)[i>>6] |= 1 << (i & 63)
	s.top = max(s.top, d)
}

// level returns level d's bitmap; growLevels must have covered d.
func (s *Solver) level(d int) []uint64 { return s.levels[d*s.words : (d+1)*s.words] }

// growLevels makes levels [0, size) addressable, emptying the ones it
// exposes. It re-slices within the retained arena, so a warm solve
// allocates nothing. Growing past capacity moves the arena: bitmaps from
// level taken before the call go stale.
//
//bgplint:hotpath runs per level of every stage
func (s *Solver) growLevels(size int) {
	s.levels = growArena(s.levels, size*s.words, 8*s.words)
}

// growArena extends a retained arena to need words, zeroing the ones it
// exposes, with slack words of headroom when it has to move.
func growArena(a []uint64, need, slack int) []uint64 {
	if need <= len(a) {
		return a
	}
	if need > cap(a) {
		grown := make([]uint64, len(a), need+slack)
		copy(grown, a)
		a = grown
	}
	clear(a[len(a):need])
	return a[:need]
}

// levelWalk visits the members of one level set that are also in a static
// mask, in the order the policy breaks next-hop ties: ascending node index,
// descending under WithPreferHighNextHop. A node that takes the first
// offer it accepts from sources visited in that order has taken the offer
// of its most preferred next hop.
type levelWalk struct {
	lvl, mask []uint64
	wi, step  int    // current word, and +1 or -1
	bits      uint64 // members of word wi not yet visited
}

func (s *Solver) walk(d int, mask []uint64) levelWalk {
	if s.pol.tieHigh {
		return levelWalk{lvl: s.level(d), mask: mask, wi: s.words, step: -1}
	}
	return levelWalk{lvl: s.level(d), mask: mask, wi: -1, step: 1}
}

// next returns the next member, or -1 when the level is exhausted.
//
//bgplint:hotpath runs once per flood source
func (w *levelWalk) next() int32 {
	for w.bits == 0 {
		w.wi += w.step
		if uint(w.wi) >= uint(len(w.lvl)) {
			return -1
		}
		w.bits = w.lvl[w.wi] & w.mask[w.wi]
	}
	b := bits.TrailingZeros64(w.bits)
	if w.step < 0 {
		b = 63 - bits.LeadingZeros64(w.bits)
	}
	w.bits &^= 1 << b
	return int32(w.wi<<6 | b)
}

// stageCustomer floods customer-learned routes up provider links, level by
// level from the seeds: seeds may start at different depths (a
// forged-origin prepend or a leaked route starts deeper than the victim's
// own origination), and walking the levels in ascending distance keeps the
// flood level-synchronous per distance, so equal-length ties resolve to
// the preferred next-hop exactly as the message engine does.
//
//bgplint:hotpath runs once per (target, attacker, policy) cell of a sweep
func (s *Solver) stageCustomer(sc *scenario) {
	s.flood(sc, s.pol.provOff, s.pol.provAdj, s.pol.hasProv, ClassCustomer)
}

// stagePeer hands customer routes across single peer hops. Tier-1 nodes
// apply shortest-path-first import and may replace their customer route
// with a shorter peer route, in which case they stop offering a route to
// their peers (peer-learned routes are not exported to peers); processing
// tier-1s in ascending customer-route distance, node breaking ties,
// resolves that dependency in one pass. That is the order pullTier1Lanes
// visits: the levels from 2 up — a tier-1 at distance D only takes a
// strictly shorter peer route, which none below 2 can be offered. A
// tier-1 re-routed here moves to the level of its new distance, one
// already walked, which is where stage 3 must flood it from. A tier-1
// still unrouted is left to the peer flood below, which offers it its
// shortest donor route in next-hop tie-break order: bestPeerOffer's pick.
//
// Everyone else: peer routes only fill gaps (customer class wins), and
// they do not cascade, so one push from the stage-1 levels suffices. A
// filled node lands one level above its donor with ClassPeer, which
// flood never takes as a peer-stage source: it cannot masquerade as a
// donor. The push touches the peer links of routed donors only, where a
// pull would ask every unrouted node to scan its peers.
//
//bgplint:hotpath runs once per (target, attacker, policy) cell of a sweep
func (s *Solver) stagePeer(sc *scenario) {
	pol := s.pol
	if pol.tier1SPF {
		// A re-routed tier-1 lands in a level below d, which exists.
		for d := 2; d <= s.top; d++ {
			lvl := s.level(d)
			for _, w := range pol.tier1List {
				if lvl[w>>6]>>(w&63)&1 != 0 {
					s.spfTier1(sc, w)
				}
			}
		}
	}
	s.flood(sc, pol.peerOff, pol.peerAdj, pol.hasPeer, ClassPeer)
}

// spfTier1 re-routes tier-1 w to its best peer offer among peers still
// offering customer routes, where shortest-path-first import prefers it.
func (s *Solver) spfTier1(sc *scenario, w int32) {
	bestD, bestNH, bestOrg := s.bestPeerOffer(sc, w)
	if bestNH == -1 {
		return
	}
	if cur := s.nodes[w]; cur.stamp == s.epoch {
		if !s.pol.better(int(w), ClassPeer, bestD, bestNH, cur.class, cur.dist, cur.nexthop) {
			return
		}
		s.level(int(cur.dist))[w>>6] &^= 1 << (w & 63)
	}
	s.place(w, ClassPeer, bestD, bestNH, bestOrg)
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

// stageProvider hands provider-class routes down customer links. It floods
// every selected route to the transit customers, from the level sets the
// first two stages leave behind (sources start at different depths), level
// by level; then pullStubs routes the multi-homed stubs still open. It
// never writes a single-homed stub: what the flood would hand one is its
// provider's final route one hop on, which the Outcome derives on read.
//
//bgplint:hotpath runs once per (target, attacker, policy) cell of a sweep
func (s *Solver) stageProvider(sc *scenario) {
	s.flood(sc, s.pol.tranOff, s.pol.tranAdj, s.pol.hasTran, ClassProvider)
	s.pullStubs(sc)
}

// pullStubs is pullStubLanes for one cell, over the multi-homed stubs —
// more than one provider, no customer — the flood left unrouted. A stub
// never sources in the provider stage, so the route a flood down every
// customer link would hand it is its first accepted offer in (level,
// betterNH) order: the shortest among its providers' final routes that it
// does not reject, the preferred next hop among equals. The stub's record
// is written; it is not entered into the level sets, which nothing walks
// after the last stage.
//
//bgplint:hotpath one pass per scalar solve over the multi-homed stubs
func (s *Solver) pullStubs(sc *scenario) {
	pol, nodes, epoch := s.pol, s.nodes, s.epoch
	filtered := !sc.unfiltered()
	// flip maps node indices to next-hop rank: ascending, or descending
	// under WithPreferHighNextHop (indices are below 2^31).
	flip := int32(0)
	if pol.tieHigh {
		flip = math.MaxInt32
	}
	const none = math.MaxUint64
	var pulled int64
	for wi, multi := range pol.multiStub {
		for stubs := multi; stubs != 0; stubs &= stubs - 1 {
			w := int32(wi<<6 | bits.TrailingZeros64(stubs))
			if nodes[w].stamp == epoch {
				continue
			}
			// The stub drops the attacker's route, whichever provider offers
			// it; a routed record's origin is never OriginNone.
			drop := OriginNone
			if filtered && sc.rejects(pol, w, OriginAttacker) {
				drop = OriginAttacker
			}
			provs := pol.provAdj[pol.provOff[w]:pol.provOff[w+1]]
			pulled += int64(len(provs))
			// Each offer as one key, (distance, next-hop rank, origin), so the
			// kept offer is a minimum taken without a data-dependent branch: a
			// branchy compare, or reading the winner's record back, costs the
			// pass about two fifths more at paper scale.
			best := uint64(none)
			for _, v := range provs {
				r := &nodes[v]
				key := uint64(uint16(r.dist))<<32 | uint64(uint32(v^flip))<<1 | uint64(r.origin&1)
				if r.stamp != epoch {
					key = none
				}
				if r.origin == drop {
					key = none
				}
				best = min(best, key)
			}
			if best != none {
				r := &nodes[w]
				nh := int32(best>>1&math.MaxInt32) ^ flip
				r.stamp, r.nexthop, r.dist, r.class, r.origin = epoch, nh, int16(best>>32)+1, ClassProvider, int8(best&1)
			}
		}
	}
	s.stats.Pulled += pulled
}

// flood is the level-synchronous BFS all three stages share: every level
// in ascending distance offers its members' routes along the CSR adjacency
// (off, adj) to still-unrouted neighbors, which join level d+1 with class
// c. mask is the static set of nodes with a non-empty adjacency row.
//
// Levels ascend in distance and levelWalk visits a level in next-hop
// tie-break order, so offers reach a node best first: the first one it
// accepts is its selected route and is written once, committed. Routing a
// node only ever adds to level d+1, never to the level being walked.
//
// Across peer links (c == ClassPeer) the export rule bites: only origin
// and customer-class routes are offered, which also keeps a node this
// stage filled from donating. A tier-1 under shortest-path-first import
// needs no special case: if it is still unrouted, the first offer it
// accepts here is the shortest, best-next-hop one, which is the route
// shortest-path-first import would pick.
//
//bgplint:hotpath the edge-relaxation loop: most of a sweep's CPU
func (s *Solver) flood(sc *scenario, off, adj []int32, mask []uint64, c RouteClass) {
	pol, nodes, epoch := s.pol, s.nodes, s.epoch
	peer := c == ClassPeer
	var sources, offers int64
	for d := 0; d <= s.top; d++ {
		s.growLevels(d + 2)
		next := s.level(d + 1)
		grew := false
		for wk := s.walk(d, mask); ; {
			v := wk.next()
			if v < 0 {
				break
			}
			src := nodes[v]
			if peer && !offersToPeers(src.class) {
				continue
			}
			row := adj[off[v]:off[v+1]]
			sources++
			offers += int64(len(row))
			for _, w := range row {
				r := &nodes[w]
				if r.stamp == epoch || sc.rejects(pol, w, src.origin) {
					continue
				}
				// Field by field: a composite literal is built on the stack
				// with narrow stores and read back wide, a store-forwarding
				// stall per routed node.
				r.stamp, r.nexthop, r.dist, r.class, r.origin = epoch, v, int16(d+1), c, src.origin
				next[w>>6] |= 1 << (w & 63)
				grew = true
			}
		}
		if grew {
			s.top = max(s.top, d+1)
		}
	}
	s.stats.Sources[c-ClassCustomer] += sources
	s.stats.Offers[c-ClassCustomer] += offers
}

// ---- Lane mode -------------------------------------------------------
//
// A sweep is many attackers against one target under one deployment, and
// its consumers read one bit per node and cell: does the node route to the
// attacker. SolveLanes runs up to LaneWidth such cells through the three
// stages at once, in the manner of multi-source BFS (Then et al., VLDB
// 2014): a lane is one attacker, and a node's state is one uint64 per
// predicate — bit i speaks for lane i — so an edge relaxation serves every
// lane for one cache miss. DESIGN.md §5 carries the argument that lane i
// converges to exactly what the scalar stages compute for cell i.

// LaneWidth is the most cells one SolveLanes carries: one bit of a word
// each.
const LaneWidth = 64

// LaneError is SolveLanes rejecting the cell in one of its lanes; Err is
// what SolveDefense returns for that cell.
type LaneError struct {
	Lane int
	Err  error
}

func (e *LaneError) Error() string { return fmt.Sprintf("lane %d: %v", e.Lane, e.Err) }
func (e *LaneError) Unwrap() error { return e.Err }

// laneState is a Solver's lane-mode state: the last batch, retained.
type laneState struct {
	n     int
	width int
	full  uint64 // the batch's lanes, bits [0, width)

	kind      AttackKind
	subPrefix bool
	target    int32
	attackers [LaneWidth]int32
	// sc is each lane's resolved scenario: its seed here, and what
	// materializing the lane solves under.
	sc [LaneWidth]scenario
	// rej is the deployment that filters the bogus route in the lanes of
	// rejLanes (they all resolve to the same one); the other lanes' attacks
	// nothing filters.
	rej      scenario
	rejLanes uint64

	// Per node, one word each (words backs all three): the lanes in which
	// it has a route, in which that route leads to the attacker, and in
	// which it is of origin or customer class — may be offered to peers. A
	// stub's routed bits and planes hold only what the first two stages
	// gave it; a multi-homed stub's provider-stage route is in att alone.
	// donor cannot be derived from routed afterwards: the peer stage routes
	// nodes that must not donate, and re-routes tier-1s that no longer may.
	words, routed, att, donor []uint64
	// A lane's distance at a node is bit-sliced: plane p (planes[p*n:],
	// grown on demand like the level sets) holds bit p of it, zero in the
	// lanes the node is unrouted in.
	planes  []uint64
	nplanes int

	// Pollution totals of every lane, made by one pass on first use: the
	// counts, and with weighed the weight sums too.
	counted, weighed bool
	count            [LaneWidth]int
	weight           [LaneWidth]int64
	// fix is the tally's scratch bitmap of the single-homed stubs whose
	// derived word the grouped sum gets wrong (see tally).
	fix []uint64

	outs [LaneWidth]Outcome
}

// SolveLanes computes the converged outcomes of len(attackers) ≤ LaneWidth
// attacks on one target that share kind, sub-prefix flag and defense, in
// one pass over the topology: lane i of the returned slice is the outcome
// SolveDefense computes for attackers[i], node for node (duplicates are
// fine). The slice and its outcomes belong to the solver and are valid
// until its next solve; an invalid cell fails the batch with a *LaneError
// naming the lowest such lane.
func (s *Solver) SolveLanes(target int, attackers []int, kind AttackKind, subPrefix bool, def Defense) ([]Outcome, error) {
	if err := s.seedLanes(target, attackers, kind, subPrefix, def); err != nil {
		return nil, err
	}
	pol, ln := s.pol, s.ln
	s.floodLanes(pol.provOff, pol.provAdj, pol.hasProv, ClassCustomer)
	if pol.tier1SPF {
		s.pullTier1Lanes()
	}
	s.floodLanes(pol.peerOff, pol.peerAdj, pol.hasPeer, ClassPeer)
	s.floodLanes(pol.tranOff, pol.tranAdj, pol.hasTran, ClassProvider)
	s.pullStubLanes()

	for i, a := range attackers {
		ln.outs[i] = Outcome{Target: target, Attacker: a, lanes: s, lane: uint(i)}
	}
	return ln.outs[:ln.width], nil
}

// seedLanes resolves a batch's cells, empties the lane words and places the
// seeds, as solveScenario places them: the target in every lane, each
// attacker in its own lane at its scenario's depth.
func (s *Solver) seedLanes(target int, attackers []int, kind AttackKind, subPrefix bool, def Defense) error {
	if len(attackers) == 0 || len(attackers) > LaneWidth {
		return fmt.Errorf("solve: %d lanes, want 1..%d", len(attackers), LaneWidth)
	}
	if s.ln == nil {
		n := s.pol.n
		w := make([]uint64, 3*n)
		s.ln = &laneState{n: n, words: w, routed: w[:n:n], att: w[n : 2*n : 2*n], donor: w[2*n:]}
	}
	ln := s.ln
	ln.width, ln.full = len(attackers), ^uint64(0)>>(LaneWidth-len(attackers))
	ln.kind, ln.subPrefix = kind, subPrefix
	ln.rej, ln.rejLanes = scenario{}, 0
	for i, a := range attackers {
		at := Attack{Target: target, Attacker: a, SubPrefix: subPrefix, Kind: kind}
		if err := validateAttack(s.pol, at); err != nil {
			return &LaneError{Lane: i, Err: fmt.Errorf("solve: %w", err)}
		}
		sc, err := buildScenario(s.pol, at, def, func() (int16, bool) { return s.baselineDist(at) })
		if err != nil {
			return &LaneError{Lane: i, Err: err}
		}
		ln.attackers[i], ln.sc[i] = int32(a), sc
		if !sc.unfiltered() {
			ln.rej, ln.rejLanes = sc, ln.rejLanes|1<<i
		}
	}
	ln.target = int32(target)

	clear(ln.words)
	ln.planes, ln.nplanes = ln.planes[:0], 0
	ln.counted, ln.weighed = false, false
	s.levels, s.top = s.levels[:0], 0
	s.stats.LaneSolves++
	s.stats.Lanes += int64(ln.width)

	if !subPrefix {
		ln.routed[target], ln.donor[target] = ln.full, ln.full
		s.enter(int32(target), 0)
	}
	for i := 0; i < ln.width; i++ {
		if sc := &ln.sc[i]; subPrefix || sc.seedAttacker {
			a, bit := ln.attackers[i], uint64(1)<<i
			ln.routed[a] |= bit
			ln.att[a] |= bit
			ln.donor[a] |= bit
			ln.setDist(a, bit, int(sc.seedDist))
			s.enter(a, int(sc.seedDist))
		}
	}
	return nil
}

// growPlanes makes every distance up to d representable.
func (ln *laneState) growPlanes(d int) {
	for d>>ln.nplanes != 0 {
		ln.nplanes++
		ln.planes = growArena(ln.planes, ln.nplanes*ln.n, ln.n)
	}
}

// at returns the lanes in which node v is routed at distance d, which the
// planes must cover.
func (ln *laneState) at(v int32, d int) uint64 {
	m := ln.routed[v]
	for p, i := 0, int(v); p < ln.nplanes; p, i = p+1, i+ln.n {
		x := ln.planes[i]
		if d>>p&1 == 0 {
			x = ^x
		}
		m &= x
	}
	return m
}

// setDist records distance d for lanes m of node v, whose plane bits must
// be zero: the lanes were unrouted, or have just been cleared.
func (ln *laneState) setDist(v int32, m uint64, d int) {
	ln.growPlanes(d)
	for i := int(v); d != 0; d, i = d>>1, i+ln.n {
		if d&1 != 0 {
			ln.planes[i] |= m
		}
	}
}

// dist gathers one lane's distance at node i.
func (ln *laneState) dist(i int, lane uint) int16 {
	var d int16
	for p := 0; p < ln.nplanes; p, i = p+1, i+ln.n {
		d |= int16(ln.planes[i]>>lane&1) << p
	}
	return d
}

// floodLanes is flood for every lane at once. Level d is the union over
// lanes of the nodes routed at distance d — a superset for any one lane,
// walked in the same tie-break order — and a source offers in exactly the
// lanes it holds that distance in (and, across peer links, is a donor in).
// A neighbor takes the offer in the lanes it is still unrouted in, minus
// the attacker-bound lanes a validator drops, all in one store: a later
// source of the level finds those lanes routed, so within each lane the
// first accepted offer is final, as in flood.
//
//bgplint:hotpath the lane edge-relaxation loop: most of a batched sweep's CPU
func (s *Solver) floodLanes(off, adj []int32, mask []uint64, c RouteClass) {
	pol, ln := s.pol, s.ln
	n, routed, att, donor := ln.n, ln.routed, ln.att, ln.donor
	var sources, offers int64
	for d := 0; d <= s.top; d++ {
		s.growLevels(d + 2)
		ln.growPlanes(d + 1)
		next := s.level(d + 1)
		// The planes of the set bits of d+1, the distance this level hands out.
		var set [16][]uint64
		nset := 0
		for x, p := d+1, 0; x != 0; x, p = x>>1, p+1 {
			if x&1 != 0 {
				set[nset], nset = ln.planes[p*n:(p+1)*n], nset+1
			}
		}
		grew := false
		for wk := s.walk(d, mask); ; {
			v := wk.next()
			if v < 0 {
				break
			}
			m := ln.at(v, d)
			if c == ClassPeer {
				m &= donor[v]
			}
			if m == 0 {
				continue // a tier-1 the pull moved off this level, or no donor
			}
			bogus := m & att[v]
			drop := bogus & ln.rejLanes
			row := adj[off[v]:off[v+1]]
			sources++
			offers += int64(len(row))
			for _, w := range row {
				take := m &^ routed[w]
				if take == 0 {
					continue
				}
				if take&drop != 0 && ln.rej.rejects(pol, w, OriginAttacker) {
					if take &^= drop; take == 0 {
						continue
					}
				}
				routed[w] |= take
				att[w] |= take & bogus
				if c == ClassCustomer {
					donor[w] |= take
				}
				for _, plane := range set[:nset] {
					plane[w] |= take
				}
				next[w>>6] |= 1 << (w & 63)
				grew = true
			}
		}
		if grew {
			s.top = max(s.top, d+1)
		}
	}
	s.stats.Sources[c-ClassCustomer] += sources
	s.stats.Offers[c-ClassCustomer] += offers
}

// pullTier1Lanes is stagePeer's shortest-path-first pass for every lane at
// once. The scalar pass visits the tier-1s by (customer-route distance D,
// node) ascending; visiting (D, node) over the union of lanes and handling
// at each visit the lanes in which that tier-1 sits at D is, restricted to
// any one lane, that lane's own order. A tier-1 at D only ever takes a
// strictly shorter peer route, so it looks no further than level D-2; an
// unrouted one is left, as in the scalar pass, to the peer flood.
//
//bgplint:hotpath runs once per batch over the tier-1 club's peer links
func (s *Solver) pullTier1Lanes() {
	ln, top := s.ln, s.top
	// A pull places at most one level above the levels it reads.
	s.growLevels(top + 2)
	ln.growPlanes(top + 1)
	for d := 2; d <= top; d++ {
		lvl := s.level(d)
		for _, w := range s.pol.tier1List {
			if lvl[w>>6]>>(w&63)&1 == 0 {
				continue
			}
			// The lanes re-routed at a lower d have lost donor[w] with it.
			if lanes := ln.at(w, d) & ln.donor[w]; lanes != 0 {
				s.pullLanes(w, lanes, d-2)
			}
		}
	}
}

// pullLanes gives tier-1 w, in each of lanes, its best peer offer among
// levels [0, last]: levels ascending and, within one, peers in next-hop
// tie-break order (a CSR row ascends by node index, so that is the row
// forwards, or backwards under WithPreferHighNextHop), the first donor
// whose route w does not reject. The lanes that take one move to the level
// above the donor's and stop donating: a peer route is not exported to
// peers.
//
//bgplint:hotpath runs per tier-1 and distance of pullTier1Lanes
func (s *Solver) pullLanes(w int32, lanes uint64, last int) {
	pol, ln := s.pol, s.ln
	peers := pol.Peers(int(w))
	drop := uint64(0)
	if ln.rejLanes != 0 && ln.rej.rejects(pol, w, OriginAttacker) {
		drop = ln.rejLanes
	}
	for e := 0; e <= last; e++ {
		lvl := s.level(e)
		for k := range peers {
			v := peers[k]
			if pol.tieHigh {
				v = peers[len(peers)-1-k]
			}
			m := lanes & ln.donor[v]
			if m == 0 || lvl[v>>6]>>(v&63)&1 == 0 {
				continue
			}
			if m = m & ln.at(v, e) &^ (ln.att[v] & drop); m == 0 {
				continue
			}
			for i := int(w); i < len(ln.planes); i += ln.n {
				ln.planes[i] &^= m
			}
			ln.setDist(w, m, e+1)
			ln.routed[w] |= m
			ln.att[w] = ln.att[w]&^m | ln.att[v]&m
			ln.donor[w] &^= m
			s.enter(w, e+1)
			if lanes &^= m; lanes == 0 {
				return
			}
		}
	}
}

// pullStubLanes ends the lane provider stage at the multi-homed stubs —
// more than one provider, no customer — which floodLanes offers nothing
// to. A stub never sources in that stage, so the route the flood would
// hand it in a lane is its first accepted offer in (level, betterNH)
// order: the shortest offer among its providers' final routes, the first
// in betterNH order among equals (the row forwards, or backwards under
// WithPreferHighNextHop); a validating stub drops att[v] & rejLanes, as
// the flood does. Of that route a batch's readers need only the origin in
// the tally: the pass writes att[w] in the lanes the stub is still
// unrouted in, and nothing else. Lane reads derive the route itself on
// demand (laneRoute), as they do for every stub; single-homed stubs are
// not visited at all.
//
//bgplint:hotpath one pass per batch over the multi-homed stubs' provider links
func (s *Solver) pullStubLanes() {
	pol, ln := s.pol, s.ln
	n, np := ln.n, ln.nplanes
	routed, att, planes := ln.routed, ln.att, ln.planes
	var pulled int64
	for wi, multi := range pol.multiStub {
		for stubs := multi; stubs != 0; stubs &= stubs - 1 {
			w := int32(wi<<6 | bits.TrailingZeros64(stubs))
			open := ln.full &^ routed[w]
			if open == 0 {
				continue
			}
			drop := uint64(0)
			if ln.rejLanes != 0 && ln.rej.rejects(pol, w, OriginAttacker) {
				drop = ln.rejLanes
			}
			provs := pol.provAdj[pol.provOff[w]:pol.provOff[w+1]]
			pulled += int64(len(provs))
			if len(provs) == 2 {
				// Two offers, u first in tie-break order: u keeps the lanes
				// both offer in unless v is strictly shorter there. Where the
				// two agree on the origin the winner does not matter, so the
				// distances are compared only where they disagree.
				u, v := provs[0], provs[1]
				if pol.tieHigh {
					u, v = v, u
				}
				tu := open & routed[u] &^ (att[u] & drop)
				tv := open & routed[v] &^ (att[v] & drop)
				if split := tu & tv & (att[u] ^ att[v]); split != 0 {
					lt, eq := uint64(0), split
					for p, i, j := np-1, int(u)+(np-1)*n, int(v)+(np-1)*n; p >= 0; p, i, j = p-1, i-n, j-n {
						x, y := planes[i], planes[j]
						lt |= eq & x &^ y
						eq &^= x ^ y
					}
					tu &^= lt
				}
				att[w] |= att[u]&tu | att[v]&tv&^tu
				continue
			}
			// The kept offer per lane: its provider's distance, bit-sliced,
			// and whether it leads to the attacker.
			var best [16]uint64
			var have, bogus uint64
			for k := range provs {
				v := provs[k]
				if pol.tieHigh {
					v = provs[len(provs)-1-k]
				}
				take := open & routed[v] &^ (att[v] & drop)
				if take&have != 0 {
					// Of the lanes that hold an offer, v takes those it beats
					// strictly: compare from the top plane down.
					lt, eq := uint64(0), ^uint64(0)
					for p, i := np-1, int(v)+(np-1)*n; p >= 0; p, i = p-1, i-n {
						x := planes[i]
						lt |= eq & best[p] &^ x
						eq &^= best[p] ^ x
					}
					take &^= have &^ lt
				}
				if take == 0 {
					continue
				}
				for p, i := 0, int(v); p < np; p, i = p+1, i+n {
					best[p] = best[p]&^take | planes[i]&take
				}
				have |= take
				bogus = bogus&^take | att[v]&take
			}
			att[w] |= bogus
		}
	}
	s.stats.Pulled += pulled
}

// polluted returns one lane's PollutedWeight, or PollutedCount without
// weigh, tallying every lane's on the batch's first call — and again for
// the weights, should a count-only call have come first.
func (ln *laneState) polluted(pol *Policy, lane uint, weigh bool) (int, int64) {
	weigh = weigh && pol.g.AddrWeights() != nil
	if !ln.counted || weigh && !ln.weighed {
		ln.tally(pol, weigh)
	}
	if !weigh {
		return ln.count[lane], int64(ln.count[lane])
	}
	return ln.count[lane], ln.weight[lane]
}

// tally counts the polluted nodes of every lane, and with weigh sums their
// address weights, in one pass over att with bit-sliced counters: plane k
// of a laneSum holds bit k of all 64 running totals. A node's lane word
// goes to the count, and scaled by its weight to the weight sum. Sums wrap
// at 64 bits, as the scalar accumulator does.
//
// The words go in by group, those of the policy's tallyPlan. A node of
// weight 2^b — every generated address weight is one power of two — sits
// in group b of single: one positional count over the group's words gives
// their total, which is added once to the count and once, scaled by 2^b,
// to the weight sum. A node of zero or multi-bit weight (a sum over
// contracted siblings) is counted with the odd ones, and sits in group b
// of oddW for each set bit b of its weight. On a graph without weights
// there is one group, only counted.
//
// A single-homed stub's word is not read: a stub the batch left unwritten
// routes to the attacker exactly where its provider p does, so p's word
// stands for its whole soleAdj row, scaled by the row's length in the
// count and by its weight sum in the weight. Those go in by group too, one
// per set bit of the length and of the sum. The grouped sum is wrong only
// for a stub the first two stages wrote (a seed, or one with peers) or one
// that rejects the attacker's route; those are gathered in the fix bitmap,
// and each takes back att[p] in the lanes it is routed or drops the route
// in and adds its own word, one ripple add per bit of its weight.
//
//bgplint:hotpath one pass per batch over every lane word but the single-homed stubs'
func (ln *laneState) tally(pol *Policy, weigh bool) {
	plan, weights := pol.tallyPlan(), pol.g.AddrWeights()
	// cntBack and sumBack collect what the grouped rows added too much.
	var cnt, sum, cntBack, sumBack laneSum
	att := ln.att
	var total [32]uint64
	for b := 0; b < 64; b++ {
		planes := positional(&total, att, plan.single.group(b))
		cnt.addPlanes(planes, 0)
		if weigh {
			sum.addPlanes(planes, b)
			sum.addPlanes(positional(&total, att, plan.oddW.group(b)), b)
			sum.addPlanes(positional(&total, att, plan.rowW.group(b)), b)
		}
		cnt.addPlanes(positional(&total, att, plan.rowLen.group(b)), b)
	}
	cnt.addPlanes(positional(&total, att, plan.odd), 0)
	for wi, x := range ln.fixes(pol) {
		for b := x; b != 0; b &= b - 1 {
			w := int32(wi<<6 | bits.TrailingZeros64(b))
			p := pol.provAdj[pol.provOff[w]]
			drop := uint64(0)
			if ln.rejLanes != 0 && ln.rej.rejects(pol, w, OriginAttacker) {
				drop = ln.rejLanes
			}
			back := att[p] & (ln.routed[w] | drop)
			cntBack.add(back, 0)
			cnt.add(att[w], 0)
			if !weigh {
				continue
			}
			for wt := uint64(weights[w]); wt != 0; wt &= wt - 1 {
				sumBack.add(back, bits.TrailingZeros64(wt))
				sum.add(att[w], bits.TrailingZeros64(wt))
			}
		}
	}
	counts, taken := cnt.lanes(), cntBack.lanes()
	sums, takenW := sum.lanes(), sumBack.lanes()
	for i := 0; i < ln.width; i++ {
		// The attacker's own origination is not pollution.
		a := ln.attackers[i]
		own := att[a] >> i & 1
		ln.count[i] = int(counts[i] - taken[i] - own)
		if weigh {
			ln.weight[i] = int64(sums[i] - takenW[i] - own*uint64(weights[a]))
		}
	}
	ln.counted, ln.weighed = true, weigh
}

// tallyPlan groups a policy's nodes for the lane tally. single groups the
// nodes other than the single-homed stubs whose weight is one power of two
// (all of them on a graph without weights, as weight 1) by that bit; odd
// lists the others, of zero or multi-bit weight, and oddW groups them by
// the bits of their weight. rowLen groups the nodes with single-homed stubs
// by the bits of their soleAdj row's length, rowW by those of the row's
// weight sum. It depends on nothing but the policy's graph, which must not
// change — Graph.AddrWeights is read-only — so it is built once per policy
// (Policy.tallyPlan) and read by every solver over it.
type tallyPlan struct {
	single, oddW bitGroups
	odd          []int32
	rowLen, rowW bitGroups
}

// tallyPlan returns the policy's tally plan, building it on first use.
// Solvers on other goroutines may ask at once: sync.Once builds it once
// and orders that build before every read of it.
func (p *Policy) tallyPlan() *tallyPlan {
	p.planOnce.Do(func() { p.plan = newTallyPlan(p) })
	return p.plan
}

// newTallyPlan builds the tally plan of pol.
func newTallyPlan(pol *Policy) *tallyPlan {
	weights := pol.g.AddrWeights()
	weight := func(v int) uint64 {
		if weights == nil {
			return 1
		}
		return uint64(weights[v])
	}
	// A node is single when its weight is one power of two, odd otherwise.
	single := func(v int) bool { wt := weight(v); return wt != 0 && wt&(wt-1) == 0 }
	// in keys the nodes of one kind, single-homed stubs aside, by weight.
	in := func(odd bool) func(v int) uint64 {
		return func(v int) uint64 {
			if pol.sole(int32(v)) || single(v) == odd {
				return 0
			}
			return weight(v)
		}
	}
	plan := &tallyPlan{}
	plan.single.build(pol.n, in(false))
	plan.oddW.build(pol.n, in(true))
	for v := 0; v < pol.n; v++ {
		if !pol.sole(int32(v)) && !single(v) {
			plan.odd = append(plan.odd, int32(v))
		}
	}
	plan.rowLen.build(pol.n, func(p int) uint64 { return uint64(pol.soleOff[p+1] - pol.soleOff[p]) })
	plan.rowW.build(pol.n, func(p int) uint64 {
		var sum uint64
		for _, w := range pol.soleAdj[pol.soleOff[p]:pol.soleOff[p+1]] {
			sum += weight(int(w))
		}
		return sum
	})
	return plan
}

// bitGroups lists nodes by the set bits of a per-node key: group b holds,
// ascending, the nodes whose key has bit b set.
type bitGroups struct {
	off [65]int32
	adj []int32
}

func (g *bitGroups) group(b int) []int32 { return g.adj[g.off[b]:g.off[b+1]] }

// build groups the nodes [0, n) by key, which it calls twice per node.
func (g *bitGroups) build(n int, key func(v int) uint64) {
	clear(g.off[:])
	for v := 0; v < n; v++ {
		for k := key(v); k != 0; k &= k - 1 {
			g.off[bits.TrailingZeros64(k)+1]++
		}
	}
	for b := 1; b < len(g.off); b++ {
		g.off[b] += g.off[b-1]
	}
	g.adj = slices.Grow(g.adj[:0], int(g.off[64]))[:g.off[64]]
	var next [64]int32
	copy(next[:], g.off[:])
	for v := 0; v < n; v++ {
		for k := key(v); k != 0; k &= k - 1 {
			b := bits.TrailingZeros64(k)
			g.adj[next[b]] = int32(v)
			next[b]++
		}
	}
}

// positional sets total to how many of the words att[v], v in group, have
// each lane's bit set, bit-sliced — plane k holds bit k of all 64 counts —
// and returns the planes a count of len(group) can reach. The words go
// through a carry-save adder tree sixteen at a time (Harley-Seal): ones,
// twos, fours and eights are the running total's low four planes, and each
// block's sixteens ripple into the planes above. There is no test for a
// zero word, which would be a branch on close to a coin flip.
//
//bgplint:hotpath the tally's main pass, once per group and batch
func positional(total *[32]uint64, att []uint64, group []int32) []uint64 {
	*total = [32]uint64{}
	planes := total[:bits.Len(uint(len(group)))]
	var ones, twos, fours, eights uint64
	for ; len(group) >= 16; group = group[16:] {
		x := group[:16:16]
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		ones, twosA = csa(ones, att[x[0]], att[x[1]])
		ones, twosB = csa(ones, att[x[2]], att[x[3]])
		twos, foursA = csa(twos, twosA, twosB)
		ones, twosA = csa(ones, att[x[4]], att[x[5]])
		ones, twosB = csa(ones, att[x[6]], att[x[7]])
		twos, foursB = csa(twos, twosA, twosB)
		fours, eightsA = csa(fours, foursA, foursB)
		ones, twosA = csa(ones, att[x[8]], att[x[9]])
		ones, twosB = csa(ones, att[x[10]], att[x[11]])
		twos, foursA = csa(twos, twosA, twosB)
		ones, twosA = csa(ones, att[x[12]], att[x[13]])
		ones, twosB = csa(ones, att[x[14]], att[x[15]])
		twos, foursB = csa(twos, twosA, twosB)
		fours, eightsB = csa(fours, foursA, foursB)
		eights, sixteens = csa(eights, eightsA, eightsB)
		for k := 4; sixteens != 0 && k < len(total); k++ {
			total[k], sixteens = total[k]^sixteens, total[k]&sixteens
		}
	}
	total[0], total[1], total[2], total[3] = ones, twos, fours, eights
	for _, v := range group {
		for k, carry := 0, att[v]; carry != 0 && k < len(total); k++ {
			total[k], carry = total[k]^carry, total[k]&carry
		}
	}
	return planes
}

// fixes returns the batch's single-homed stubs whose word tally's grouped
// sum gets wrong, as a bitmap, each stub once: those with peers (the peer
// stage may have written them), the target and the attackers (seeds), and,
// when some lane's attack is filtered, those that filter it — read off the
// deployment's set words and the tier-1 list, not by visiting every stub.
// Any other single-homed stub is unwritten and accepts its provider's route
// in every lane.
//
//bgplint:hotpath runs once per batch tally over the policy's bitmap words
func (ln *laneState) fixes(pol *Policy) []uint64 {
	if ln.fix == nil {
		ln.fix = make([]uint64, len(pol.solePeer))
	}
	fix := ln.fix
	copy(fix, pol.solePeer)
	if ln.rejLanes != 0 {
		for _, set := range [2]*asn.IndexSet{ln.rej.blocked, ln.rej.aspa} {
			if set == nil {
				continue
			}
			words := set.Words()
			for wi := range min(len(words), len(fix)) {
				fix[wi] |= words[wi] & pol.soleWord(wi)
			}
		}
		if ln.rej.peerlock {
			for _, t := range pol.tier1List {
				ln.markSole(pol, t)
			}
		}
	}
	ln.markSole(pol, ln.target)
	for _, a := range ln.attackers[:ln.width] {
		ln.markSole(pol, a)
	}
	return fix
}

// markSole adds node w to the fix bitmap if it is a single-homed stub.
func (ln *laneState) markSole(pol *Policy, w int32) {
	if pol.sole(w) {
		ln.fix[w>>6] |= 1 << (w & 63)
	}
}

// laneSum is 64 bit-sliced accumulators, one per lane.
type laneSum struct {
	planes [64]uint64
}

// add adds 2^b to every lane of word, rippling the carry up the planes.
func (z *laneSum) add(word uint64, b int) {
	for k := b; word != 0 && k < len(z.planes); k++ {
		z.planes[k], word = z.planes[k]^word, z.planes[k]&word
	}
}

// csa is a carry-save adder: three words in, their per-lane sum out as a
// sum word and a carry word of twice the weight.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
}

// addPlanes adds 2^b times the bit-sliced number x (plane k of x holds bit
// k of every lane's value) to every lane; what carries past the top plane
// wraps away.
func (z *laneSum) addPlanes(x []uint64, b int) {
	carry := uint64(0)
	for k, d := range x {
		if b+k >= len(z.planes) {
			return
		}
		z.planes[b+k], carry = csa(z.planes[b+k], d, carry)
	}
	for k := b + len(x); carry != 0 && k < len(z.planes); k++ {
		z.planes[k], carry = z.planes[k]^carry, z.planes[k]&carry
	}
}

// lanes gathers every lane's total, one set bit of the planes at a time: a
// count fills a dozen planes at paper scale, not 64.
func (z *laneSum) lanes() (total [LaneWidth]uint64) {
	for k, p := range z.planes {
		for ; p != 0; p &= p - 1 {
			total[bits.TrailingZeros64(p)] |= 1 << k
		}
	}
	return total
}

// materialize backs a lane outcome with the scalar records of its cell, by
// solving that cell on the owning solver — once, unless another lane's
// materialization has taken the records since.
func (o *Outcome) materialize() {
	s := o.lanes
	if s == nil || o.nodes != nil && o.epoch == s.epoch {
		return
	}
	ln := s.ln
	at := Attack{Target: o.Target, Attacker: o.Attacker, SubPrefix: ln.subPrefix, Kind: ln.kind}
	so := s.solveScenario(at, &ln.sc[o.lane])
	o.nodes, o.epoch, o.pol, o.sc, o.weights = so.nodes, so.epoch, so.pol, so.sc, so.weights
	s.stats.Materialized++
}

// ReceivedAttackerRoute computes, for every node, whether at least one
// neighbor exported an attacker-origin route to it in the converged state —
// whether the node "heard" the hijack even if it did not select it. This is
// the alternative detection semantics studied as an ablation (the paper's
// detectors trigger on routes their probe AS selects and re-exports).
func ReceivedAttackerRoute(pol *Policy, o OutcomeView) []bool {
	received := make([]bool, o.N())
	for p := range received {
		class, _ := BestAttackerOffer(pol, o, p)
		received[p] = class != ClassNone
	}
	return received
}

// BestAttackerOffer returns the best attacker-origin route node p was
// offered in the converged state: the class it has at p (customer, peer or
// provider, by who offers it) and its AS-path length there, the better
// class first and then the shorter path; ClassNone when no neighbor offers
// p one. A neighbor offers its selected route where the valley-free export
// rule lets it (exportsTo), and never back to its own next hop (split
// horizon).
func BestAttackerOffer(pol *Policy, o OutcomeView, p int) (class RouteClass, dist int16) {
	nbrs, rels := pol.g.Neighbors(p)
	for k, nb := range nbrs {
		v := int(nb)
		if o.Origin(v) != OriginAttacker || o.NextHop(v) == int32(p) {
			continue
		}
		// rels[k] is v's role from p's side; exportsTo asks for p's from v's.
		offer, toP := ClassProvider, topology.RelCustomer
		switch rels[k] {
		case topology.RelCustomer:
			offer, toP = ClassCustomer, topology.RelProvider
		case topology.RelPeer:
			offer, toP = ClassPeer, topology.RelPeer
		}
		if !exportsTo(o.Class(v), toP) {
			continue
		}
		if d := o.Dist(v) + 1; class == ClassNone || offer < class || offer == class && d < dist {
			class, dist = offer, d
		}
	}
	return class, dist
}
