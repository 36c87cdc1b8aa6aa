package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// pushStageProvider is the provider stage as one flood down every customer
// link, stubs included: every route it hands out is written, single-homed
// stubs too. It is the oracle the derived stage 3 is held to.
func pushStageProvider(s *Solver, sc *scenario) {
	s.flood(sc, s.pol.custOff, s.pol.custAdj, s.pol.hasCust, ClassProvider)
}

// pushOracle solves cells with pushStageProvider on solvers of its own,
// leak baselines included, so nothing it answers passes through a derived
// route.
type pushOracle struct{ s, base *Solver }

func newPushOracle(pol *Policy) *pushOracle {
	return &pushOracle{s: NewSolver(pol), base: NewSolver(pol)}
}

// solve is SolveDefense with the push provider stage. Its outcome carries
// no policy, so it reads every route from the records the flood wrote.
func (p *pushOracle) solve(at Attack, def Defense) (*Outcome, error) {
	if err := validateAttack(p.s.pol, at); err != nil {
		return nil, err
	}
	sc, err := buildScenario(p.s.pol, at, def, func() (int16, bool) {
		o := p.run(p.base, Attack{Target: at.Target, Attacker: at.Attacker}, &scenario{})
		if !o.HasRoute(at.Attacker) {
			return 0, false
		}
		return o.Dist(at.Attacker), true
	})
	if err != nil {
		return nil, err
	}
	return p.run(p.s, at, &sc), nil
}

func (p *pushOracle) run(s *Solver, at Attack, sc *scenario) *Outcome {
	s.begin()
	if !at.SubPrefix {
		s.place(int32(at.Target), ClassOrigin, 0, -1, OriginTarget)
	}
	if at.SubPrefix || sc.seedAttacker {
		s.place(int32(at.Attacker), ClassOrigin, sc.seedDist, -1, OriginAttacker)
	}
	s.stageCustomer(sc)
	s.stagePeer(sc)
	pushStageProvider(s, sc)
	return &Outcome{Target: at.Target, Attacker: at.Attacker, epoch: s.epoch, nodes: s.nodes, weights: s.pol.g.AddrWeights()}
}

// requirePushEquivalent holds a solver outcome to the push oracle's at
// every node — route, origin, class, distance, next hop and, with paths
// set, path — and on the pollution totals. Its clone, which writes every
// route, must hold the oracle's records and totals.
func requirePushEquivalent(t *testing.T, label string, want, got *Outcome, paths bool) {
	t.Helper()
	// The oracle's records are every route it selected: read them
	// directly, the outcome under test through its accessors.
	for v, r := range want.nodes {
		routed := r.stamp == want.epoch
		nh := r.nexthop
		if !routed {
			r = nodeRec{dist: -1, class: ClassNone, origin: OriginNone}
		}
		if !routed || r.class == ClassOrigin {
			nh = -1
		}
		if got.HasRoute(v) != routed || got.Origin(v) != r.origin || got.Class(v) != r.class || got.Dist(v) != r.dist || got.NextHop(v) != nh {
			t.Fatalf("%s: diverges from the push oracle at node %d: (route=%v class=%v dist=%d nh=%d org=%d), want (%v %v %d %d %d)",
				label, v, got.HasRoute(v), got.Class(v), got.Dist(v), got.NextHop(v), got.Origin(v), routed, r.class, r.dist, nh, r.origin)
		}
	}
	for v := 0; paths && v < want.N(); v++ {
		if w, g := want.Path(v), got.Path(v); !slices.Equal(w, g) {
			t.Fatalf("%s: path of node %d is %v, the push oracle's %v", label, v, g, w)
		}
	}
	clone := got.Clone()
	for v, r := range want.nodes {
		if r.stamp != want.epoch {
			r = nodeRec{}
		} else {
			r.stamp = clone.epoch
		}
		if clone.nodes[v] != r {
			t.Fatalf("%s: clone record of node %d is %+v, the push oracle's %+v", label, v, clone.nodes[v], r)
		}
	}
	requirePushPollution(t, label, want, got, clone)
}

// requirePushPollution holds the pollution totals of a solve and of its
// clone to the push oracle's.
func requirePushPollution(t *testing.T, label string, want, got, clone *Outcome) {
	t.Helper()
	wc, ww := want.PollutedWeight()
	for _, o := range []struct {
		name string
		view *Outcome
	}{{"solve", got}, {"clone", clone}} {
		if gc, gw := o.view.PollutedWeight(); wc != gc || ww != gw {
			t.Fatalf("%s: %s pollution is (%d, %d), the push oracle's (%d, %d)", label, o.name, gc, gw, wc, ww)
		}
	}
}

// TestPushOracleEquivalence holds the solver, whose provider stage floods
// transit customers, pulls multi-homed stubs and leaves single-homed stubs
// to be derived on read, to the push oracle on the seed-42 2,000-AS world:
// 300 random attacks × every kind × four defenses × both tie-break
// directions. Every node's path is compared on one attack in ten, which
// keeps the test to seconds; a path is its next hops, compared always.
func TestPushOracleEquivalence(t *testing.T) {
	for _, high := range []bool{false, true} {
		pol := deltaTestPolicy(t, 2000, 42, WithPreferHighNextHop(high))
		n := pol.N()
		rng := rand.New(rand.NewSource(36))
		tenth := asn.NewIndexSet(n)
		for tenth.Count() < n/10 {
			tenth.Add(rng.Intn(n))
		}
		defs := []Defense{
			{},
			{Blocked: benchTopDegreeSet(pol, 50)},
			{Blocked: tenth, ASPA: tenth},
			{ASPA: tenth, Peerlock: true},
		}
		// pol weighs the world by its address weights; it is weighed by none
		// and by multi-bit ones too, each through a policy of its own.
		type reweighed struct {
			s      *Solver
			oracle *pushOracle
		}
		var others []reweighed
		for _, w := range [][]int64{nil, oddWeights(n)} {
			wpol := withWeights(t, pol, w)
			others = append(others, reweighed{NewSolver(wpol), newPushOracle(wpol)})
		}
		s, oracle := NewSolver(pol), newPushOracle(pol)
		for k := 0; k < 300; k++ {
			at := Attack{Target: rng.Intn(n), Attacker: rng.Intn(n - 1)}
			if at.Attacker >= at.Target {
				at.Attacker++
			}
			for _, kind := range Kinds() {
				at.Kind = kind
				for d, def := range defs {
					want, err := oracle.solve(at, def)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.SolveDefense(at, def)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("high=%v %+v defense %d", high, at, d)
					requirePushEquivalent(t, label, want, got, k%10 == 0)
					for j, o := range others {
						want, err := o.oracle.solve(at, def)
						if err != nil {
							t.Fatal(err)
						}
						got, err := o.s.SolveDefense(at, def)
						if err != nil {
							t.Fatal(err)
						}
						requirePushPollution(t, fmt.Sprintf("%s reweighed %d", label, j), want, got, got.Clone())
					}
				}
			}
		}
	}
}
