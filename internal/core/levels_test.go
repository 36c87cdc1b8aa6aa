package core

import (
	"math/rand"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// Tests for the ordering rules the ordered-level solver relies on: each
// hand-built graph isolates one rule, states the converged routes by hand
// and also holds them to the message Engine.

// handPolicy builds a policy over links with an explicit tier-1 set, and
// returns the ASN → node index lookup.
func handPolicy(t *testing.T, links []link, tier1 []asn.ASN, opts ...PolicyOption) (*Policy, func(asn.ASN) int) {
	t.Helper()
	g := buildGraph(t, links)
	ix := func(a asn.ASN) int { return nodeIx(t, g, a) }
	var t1 []int
	for _, a := range tier1 {
		t1 = append(t1, ix(a))
	}
	pol, err := NewPolicy(g, t1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return pol, ix
}

// wantRoute is a hand-derived converged route; nh 0 means none (an origin),
// class ClassNone means unrouted.
type wantRoute struct {
	class  RouteClass
	dist   int16
	nh     asn.ASN
	origin int8
}

// requireRoutes solves the cell on s, compares the named nodes against
// the hand-derived routes and every node against the Engine, and checks
// the level sets the solve left behind.
func requireRoutes(t *testing.T, s *Solver, ix func(asn.ASN) int, at Attack, def Defense, want map[asn.ASN]wantRoute) {
	t.Helper()
	o, err := s.SolveDefense(at, def)
	if err != nil {
		t.Fatal(err)
	}
	for a, w := range want {
		i := ix(a)
		if w.class == ClassNone {
			if o.HasRoute(i) {
				t.Errorf("AS%v: class=%v dist=%d nh=%d, want no route", a, o.Class(i), o.Dist(i), o.NextHop(i))
			}
			continue
		}
		nh := int32(-1)
		if w.nh != 0 {
			nh = int32(ix(w.nh))
		}
		if o.Class(i) != w.class || o.Dist(i) != w.dist || o.NextHop(i) != nh || o.Origin(i) != w.origin {
			t.Errorf("AS%v: class=%v dist=%d nh=%d origin=%d, want class=%v dist=%d nh=%d (AS%v) origin=%d",
				a, o.Class(i), o.Dist(i), o.NextHop(i), o.Origin(i), w.class, w.dist, nh, w.nh, w.origin)
		}
	}
	eng, _, err := NewEngine(s.pol).RunDefense(at, def, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := viewDiff(eng, o); d != "" {
		t.Errorf("solver diverges from the engine: %s", d)
	}
	requireLevelSets(t, s)
}

// TestSPFRerouteFloodsFromNewLevel: tier-1 AS1 learns target AS50 over a
// four-hop customer chain and over its peer AS2, whose customer the target
// is. The SPF pass replaces the customer route (dist 4) with the peer route
// (dist 2), and stage 3 must flood AS1 from level 2 — and from level 2
// only. AS60, a transit customer of both AS1 and AS10 (dist 3), tells the
// two apart: flooded from the stale level it would hear AS10 first (dist
// 4). Its stub AS70 follows it.
func TestSPFRerouteFloodsFromNewLevel(t *testing.T) {
	pol, ix := handPolicy(t, []link{
		{1, 2, topology.RelPeer},
		{1, 10, topology.RelCustomer}, {10, 11, topology.RelCustomer},
		{11, 12, topology.RelCustomer}, {12, 50, topology.RelCustomer},
		{2, 50, topology.RelCustomer},
		{1, 60, topology.RelCustomer}, {10, 60, topology.RelCustomer},
		{60, 70, topology.RelCustomer},
		{2, 61, topology.RelCustomer}, // the attacker, filtered everywhere
	}, []asn.ASN{1, 2})
	everyone := asn.NewIndexSet(pol.N())
	for i := 0; i < pol.N(); i++ {
		everyone.Add(i)
	}
	s := NewSolver(pol)
	requireRoutes(t, s, ix, Attack{Target: ix(50), Attacker: ix(61)}, RovOnly(everyone), map[asn.ASN]wantRoute{
		50: {ClassOrigin, 0, 0, OriginTarget},
		12: {ClassCustomer, 1, 50, OriginTarget},
		2:  {ClassCustomer, 1, 50, OriginTarget},
		11: {ClassCustomer, 2, 12, OriginTarget},
		10: {ClassCustomer, 3, 11, OriginTarget},
		1:  {ClassPeer, 2, 2, OriginTarget},
		60: {ClassProvider, 3, 1, OriginTarget},
		70: {ClassProvider, 4, 60, OriginTarget},
		61: {ClassOrigin, 0, 0, OriginAttacker},
	})
	// Every routed node with transit customers floods exactly once: 1, 10
	// and 11 (2, 12 and 60 have stub customers only). A tier-1 left in its
	// stale level as well would make it four.
	if got := s.Stats().Sources[2]; got != 3 {
		t.Errorf("stage 3 visited %d sources, want 3", got)
	}
}

// TestPeerFillOrder: the pushed peer fill must hand each unrouted node the
// offer a pull over all its peers would pick — nearest donor first, the
// next-hop tie-break among equals, skipping offers the node's defense
// rejects — and a node filled this way must not donate.
func TestPeerFillOrder(t *testing.T) {
	// AS40 peers with AS20 (the attacker's provider, dist 1) and with AS10
	// (two hops above the target, dist 2, but the lower index). AS50 peers
	// with AS40 only.
	links := []link{
		{20, 200, topology.RelCustomer},
		{10, 30, topology.RelCustomer}, {30, 100, topology.RelCustomer},
		{40, 20, topology.RelPeer}, {40, 10, topology.RelPeer},
		{50, 40, topology.RelPeer},
	}
	pol, ix := handPolicy(t, links, nil)
	s := NewSolver(pol)
	at := Attack{Target: ix(100), Attacker: ix(200)}

	// Different distances: the nearer donor wins although the farther one
	// would win the tie-break; the filled AS40 hands AS50 nothing.
	requireRoutes(t, s, ix, at, Defense{}, map[asn.ASN]wantRoute{
		20: {ClassCustomer, 1, 200, OriginAttacker},
		10: {ClassCustomer, 2, 30, OriginTarget},
		40: {ClassPeer, 2, 20, OriginAttacker},
		50: {},
	})
	// The nearer donor's offer is rejected by AS40's origin validation: the
	// farther donor's is the first it accepts.
	rov := asn.NewIndexSet(pol.N())
	rov.Add(ix(40))
	requireRoutes(t, s, ix, at, RovOnly(rov), map[asn.ASN]wantRoute{
		40: {ClassPeer, 3, 10, OriginTarget},
		50: {},
	})

	// Equal distances, both tie-break directions: AS10 and AS20 are both
	// providers of the target.
	tie := []link{
		{10, 100, topology.RelCustomer}, {20, 100, topology.RelCustomer},
		{40, 10, topology.RelPeer}, {40, 20, topology.RelPeer},
		{30, 200, topology.RelCustomer},
	}
	for _, tc := range []struct {
		high bool
		nh   asn.ASN
	}{{false, 10}, {true, 20}} {
		pol, ix := handPolicy(t, tie, nil, WithPreferHighNextHop(tc.high))
		requireRoutes(t, NewSolver(pol), ix, Attack{Target: ix(100), Attacker: ix(200)}, Defense{}, map[asn.ASN]wantRoute{
			40: {ClassPeer, 2, tc.nh, OriginTarget},
		})
	}
}

// TestLeakBaselinePerTarget: the leak baseline is kept per target, so a
// solver that alternates targets, kinds and defenses — with a snapshot
// build and a sub-prefix solve in between, both of which run on the main
// solver's buffers — must answer every cell as a fresh solver does.
func TestLeakBaselinePerTarget(t *testing.T) {
	pol := deltaTestPolicy(t, 600, 11)
	n := pol.N()
	cells, defs := kernelCells(pol)
	targets := []int{cells[0].Target, (cells[0].Target + n/3) % n}
	s := NewSolver(pol)
	for round, at := range cells {
		for _, target := range targets {
			if at.Attacker == target {
				continue
			}
			at.Target = target
			for _, kind := range Kinds() {
				at.Kind = kind
				for _, def := range defs {
					want, err := NewSolver(pol).SolveDefense(at, def)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.SolveDefense(at, def)
					if err != nil {
						t.Fatal(err)
					}
					if d := viewDiff(want, got); d != "" {
						t.Fatalf("round %d, %+v: reused solver diverged from a fresh one: %s", round, at, d)
					}
				}
			}
			if _, err := s.BuildSnapshot(at.Attacker); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(Attack{Target: target, Attacker: at.Attacker, SubPrefix: true}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two leaks (one per defense) per target visit; the second reuses the
	// first one's baseline.
	visits := 0
	for _, at := range cells {
		for _, target := range targets {
			if at.Attacker != target {
				visits++
			}
		}
	}
	if got := s.Stats().BaselineSolves; got != int64(visits) {
		t.Errorf("%d baseline solves over %d target visits, want one each", got, visits)
	}
}

// TestSolverStats pins the work counters on the seed-42 2,000-AS world with
// exact, machine-independent values: each stage's sources are the routed
// nodes that have someone to offer to, each visited once, the provider
// stage offers to transit customers only and pulls the multi-homed stubs,
// a ladder's leaks share one baseline per target, and a lane solve is one
// pass however many lanes it carries.
func TestSolverStats(t *testing.T) {
	pol := deltaTestPolicy(t, 2000, 42)
	n := pol.N()
	cells, defs := kernelCells(pol)

	// One undefended solve, counted against the outcome it produced.
	s := NewSolver(pol)
	o, err := s.SolveDefense(cells[0], Defense{})
	if err != nil {
		t.Fatal(err)
	}
	var withTransit, tranEdges, multiPulled, peerEdges, stage1 int64
	for i := 0; i < n; i++ {
		// A multi-homed stub is still open after the flood unless stages 1–2
		// routed it, which give no provider-class routes.
		if provs := len(pol.Providers(i)); provs > 1 && len(pol.Customers(i)) == 0 &&
			(!o.HasRoute(i) || o.Class(i) == ClassProvider) {
			multiPulled += int64(provs)
		}
		if !o.HasRoute(i) {
			continue
		}
		if c := transitCustomers(pol, i); c > 0 {
			withTransit++
			tranEdges += c
		}
		// Origin and customer-class nodes were routed by stage 1 and offer
		// over every peer link; so was a tier-1 that stage 2 re-routed, which
		// then offers over none.
		if offersToPeers(o.Class(i)) {
			peerEdges += int64(len(pol.Peers(i)))
			stage1++
		} else if pol.IsTier1(i) {
			stage1++
		}
	}
	st := s.Stats()
	if st.Solves != 1 || st.BaselineSolves != 0 {
		t.Errorf("after one origin-hijack solve: %d solves, %d baseline solves", st.Solves, st.BaselineSolves)
	}
	if st.Sources[2] != withTransit || st.Offers[2] != tranEdges {
		t.Errorf("stage 3 visited %d sources offering over %d edges, want the %d routed nodes with transit customers and their %d transit-customer edges",
			st.Sources[2], st.Offers[2], withTransit, tranEdges)
	}
	if st.Pulled != multiPulled {
		t.Errorf("stage 3 pulled over %d provider edges, want the %d of the multi-homed stubs the flood left open", st.Pulled, multiPulled)
	}
	if st.Offers[1] != peerEdges {
		t.Errorf("peer stage offered over %d edges, want the %d peer edges of origin/customer-class nodes", st.Offers[1], peerEdges)
	}
	if st.Sources[0] > stage1 || st.Sources[0] == 0 {
		t.Errorf("stage 1 visited %d sources, want 1..%d (nodes routed by stage 1)", st.Sources[0], stage1)
	}

	// A ladder: every rung (defense) × kind × attacker against one target.
	s = NewSolver(pol)
	solves := int64(0)
	for _, def := range defs {
		for _, kind := range Kinds() {
			for _, at := range cells {
				at.Kind = kind
				if _, err := s.SolveDefense(at, def); err != nil {
					t.Fatal(err)
				}
				solves++
			}
		}
	}
	if st := s.Stats(); st.Solves != solves || st.BaselineSolves != 1 {
		t.Errorf("ladder of %d cells on one target: %d solves, %d baseline solves, want %d and 1",
			solves, st.Solves, st.BaselineSolves, solves)
	}

	// A sweep group as the matrix runtime solves it: 60 attackers on one
	// target are one lane solve and no scalar work, whatever the extractor
	// reads off the lane words; the leak group shares one baseline.
	rng := rand.New(rand.NewSource(60))
	target := cells[0].Target
	group := make([]int, 60)
	for i := range group {
		for group[i] = rng.Intn(n); group[i] == target; {
			group[i] = rng.Intn(n)
		}
	}
	s = NewSolver(pol)
	for round, kind := range []AttackKind{KindOrigin, KindRouteLeak} {
		outs, err := s.SolveLanes(target, group, kind, false, defs[1])
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			outs[i].PollutedWeight()
			outs[i].Polluted(i)
		}
		want := SolverStats{LaneSolves: int64(round + 1), Lanes: int64(60 * (round + 1)), BaselineSolves: int64(round)}
		got := s.Stats()
		want.Sources, want.Offers, want.Pulled = got.Sources, got.Offers, got.Pulled
		if got != want {
			t.Errorf("after %d 60-attacker groups: stats %+v, want %+v", round+1, got, want)
		}
	}
	// An extractor that walks every path (ribcompare.FromOutcome) costs one
	// scalar solve per lane, once.
	outs, err := s.SolveLanes(target, group, KindOrigin, false, Defense{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	for i := range outs {
		for v := 0; v < n; v++ {
			outs[i].Path(v)
		}
	}
	if st := s.Stats(); st.Materialized != 60 || st.Solves != before.Solves+60 {
		t.Errorf("walking every path of 60 lanes: %d materialized, %d scalar solves, want 60 each", st.Materialized, st.Solves-before.Solves)
	}

	// A flood visits a source once for all the lanes it carries: a batch of
	// one visits exactly the sources the scalar solve of that cell visits,
	// and offers over the same edges in all three stages; 60 lanes visit and
	// offer less than 60 solves do.
	one, sixty, scalar := NewSolver(pol), NewSolver(pol), NewSolver(pol)
	if _, err := one.SolveLanes(target, group[:1], KindOrigin, false, defs[1]); err != nil {
		t.Fatal(err)
	}
	outs, err = sixty.SolveLanes(target, group, KindOrigin, false, defs[1])
	if err != nil {
		t.Fatal(err)
	}
	// The stubs some lane reaches stage 3 without a route at: the cells in
	// which a stub ends up unrouted or provider-class.
	open := make([]bool, n)
	for i, a := range group {
		o, err := scalar.SolveDefense(Attack{Target: target, Attacker: a}, defs[1])
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < n; w++ {
			if len(pol.Customers(w)) == 0 && (!o.HasRoute(w) || o.Class(w) == ClassProvider) {
				open[w] = true
			}
		}
		if l, st := one.Stats(), scalar.Stats(); i == 0 && (l.Sources != st.Sources || l.Offers != st.Offers) {
			t.Errorf("a one-lane batch visited %v sources over %v edges, the scalar solve %v over %v",
				l.Sources, l.Offers, st.Sources, st.Offers)
		}
	}
	// Stage 3 of the 60-lane batch, exactly: a routed node with transit
	// customers is a source once per distinct distance among its lanes and
	// offers over its transit-customer edges, and the stub pass reads every
	// provider edge of the multi-homed stubs left open; single-homed stubs
	// follow their provider and cost the pass nothing.
	var sources, transit, pulled int64
	for v := 0; v < n; v++ {
		if len(pol.Customers(v)) == 0 {
			if provs := len(pol.Providers(v)); open[v] && provs > 1 {
				pulled += int64(provs)
			}
			continue
		}
		tc := transitCustomers(pol, v)
		if tc == 0 {
			continue
		}
		dists := map[int16]bool{}
		for i := range outs {
			if outs[i].HasRoute(v) {
				dists[outs[i].Dist(v)] = true
			}
		}
		sources += int64(len(dists))
		transit += int64(len(dists)) * tc
	}
	if st := sixty.Stats(); st.Sources[2] != sources || st.Offers[2] != transit || st.Pulled != pulled {
		t.Errorf("60-lane stage 3: %d sources over %d edges, %d provider edges pulled; want %d over %d transit-customer edges, %d",
			st.Sources[2], st.Offers[2], st.Pulled, sources, transit, pulled)
	}
	for stage := range scalar.Stats().Sources {
		l, sc := sixty.Stats(), scalar.Stats()
		if l.Sources[stage] == 0 || l.Sources[stage] >= sc.Sources[stage] || l.Offers[stage] >= sc.Offers[stage] {
			t.Errorf("stage %d: 60 lanes visited %d sources over %d edges, 60 scalar solves %d over %d",
				stage, l.Sources[stage], l.Offers[stage], sc.Sources[stage], sc.Offers[stage])
		}
	}
}

// transitCustomers counts node v's customers that have customers of their
// own: the edges both provider floods offer over.
func transitCustomers(pol *Policy, v int) int64 {
	var tc int64
	for _, c := range pol.Customers(v) {
		if len(pol.Customers(int(c))) > 0 {
			tc++
		}
	}
	return tc
}
