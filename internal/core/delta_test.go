package core

import (
	"math/rand"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// deltaTestPolicy builds a contracted random topology and its policy.
func deltaTestPolicy(t testing.TB, n int, seed int64, opts ...PolicyOption) *Policy {
	t.Helper()
	p := topology.DefaultParams(n)
	p.Seed = seed
	g := topology.MustGenerate(p)
	con, err := topology.ContractSiblings(g)
	if err != nil {
		t.Fatal(err)
	}
	cg := con.Graph
	cc := topology.Classify(cg, topology.ClassifyOptions{})
	pol, err := NewPolicy(cg, cc.Tier1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// requirePollutedWeight checks the bulk pollution pass against the
// per-node Polluted loop it replaced, under unit weights (nil) and under
// the given per-node weights.
func requirePollutedWeight(t *testing.T, label string, weights []int64, o OutcomeView) {
	t.Helper()
	for _, ws := range [][]int64{nil, weights} {
		wantCount, wantWeight := 0, int64(0)
		for i := 0; i < o.N(); i++ {
			if !o.Polluted(i) {
				continue
			}
			wantCount++
			if ws == nil {
				wantWeight++
			} else {
				wantWeight += ws[i]
			}
		}
		count, weight := o.PollutedWeight(ws)
		if count != wantCount || weight != wantWeight {
			t.Fatalf("%s: PollutedWeight(weighted=%v) = (%d, %d), per-node loop (%d, %d)",
				label, ws != nil, count, weight, wantCount, wantWeight)
		}
	}
}

// requireSameOutcome compares a DeltaOutcome against a full Outcome node
// by node across every accessor the query layer reads, and holds the bulk
// pollution pass of both, and of a Clone, to the per-node loop.
func requireSameOutcome(t *testing.T, label string, weights []int64, want *Outcome, got *DeltaOutcome) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("%s: node count %d vs %d", label, got.N(), want.N())
	}
	for i := 0; i < want.N(); i++ {
		if want.HasRoute(i) != got.HasRoute(i) ||
			want.Class(i) != got.Class(i) ||
			want.Dist(i) != got.Dist(i) ||
			want.NextHop(i) != got.NextHop(i) ||
			want.Origin(i) != got.Origin(i) {
			t.Fatalf("%s: node %d diverged: full (route=%v class=%v dist=%d nh=%d org=%d) delta (route=%v class=%v dist=%d nh=%d org=%d)",
				label, i,
				want.HasRoute(i), want.Class(i), want.Dist(i), want.NextHop(i), want.Origin(i),
				got.HasRoute(i), got.Class(i), got.Dist(i), got.NextHop(i), got.Origin(i))
		}
	}
	if want.PollutedCount() != got.PollutedCount() {
		t.Fatalf("%s: polluted %d vs full %d", label, got.PollutedCount(), want.PollutedCount())
	}
	requirePollutedWeight(t, label+"/full", weights, want)
	requirePollutedWeight(t, label+"/delta", weights, got)
	requirePollutedWeight(t, label+"/clone", weights, want.Clone())
}

// TestDeltaSolveMatchesFull pins the delta repair against a from-scratch
// solve for every attack kind × defense mechanism over random
// topologies, exercising the snapshot reuse across defenses.
func TestDeltaSolveMatchesFull(t *testing.T) {
	for _, cfg := range []struct {
		name string
		n    int
		seed int64
		opts []PolicyOption
	}{
		{"n300", 300, 7, nil},
		{"n600", 600, 11, nil},
		{"n300-nospf", 300, 7, []PolicyOption{WithTier1ShortestPath(false)}},
		{"n300-tiehigh", 300, 13, []PolicyOption{WithPreferHighNextHop(true)}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			pol := deltaTestPolicy(t, cfg.n, cfg.seed, cfg.opts...)
			n := pol.N()
			weights := pol.Graph().AddrWeights()
			if weights == nil {
				t.Fatal("generated topology carries no address weights; the weighted pass would go untested")
			}
			full := NewSolver(pol)
			ds := NewDeltaSolver(pol)
			rng := rand.New(rand.NewSource(cfg.seed * 1000003))

			// Defense sets: a random deployment and an everyone set.
			some := asn.NewIndexSet(n)
			for i := 0; i < n/4; i++ {
				some.Add(rng.Intn(n))
			}
			all := asn.NewIndexSet(n)
			for i := 0; i < n; i++ {
				all.Add(i)
			}
			defenses := []Defense{
				{},
				{Blocked: some},
				{Blocked: all},
				{ASPA: some},
				{ASPA: all, Peerlock: true},
				{Blocked: some, ASPA: some, Peerlock: true},
			}

			for _, target := range []int{0, n / 2, n - 1} {
				snap, err := BuildSnapshot(pol, target)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 12; trial++ {
					attacker := rng.Intn(n)
					if attacker == target {
						continue
					}
					for _, kind := range Kinds() {
						for di, def := range defenses {
							at := Attack{Target: target, Attacker: attacker, Kind: kind}
							want, err := full.SolveDefense(at, def)
							if err != nil {
								t.Fatal(err)
							}
							got, err := ds.SolveDelta(snap, at, def)
							if err != nil {
								t.Fatal(err)
							}
							label := kind.String()
							requireSameOutcome(t, label+"/def"+string(rune('0'+di)), weights, want, got)
						}
					}
				}
			}
			st := ds.Stats()
			if st.DeltaSolves == 0 {
				t.Fatalf("delta path never ran (stats %+v)", st)
			}
			if st.FullFallbacks > 0 {
				t.Fatalf("unexpected full-solve fallbacks on exact-prefix attacks (stats %+v)", st)
			}
		})
	}
}

// TestDeltaSolveSubPrefixFallsBack pins the sub-prefix path: it must be
// answered by the full solver and still match a direct solve.
func TestDeltaSolveSubPrefixFallsBack(t *testing.T) {
	pol := deltaTestPolicy(t, 300, 3)
	n := pol.N()
	snap, err := BuildSnapshot(pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDeltaSolver(pol)
	full := NewSolver(pol)
	at := Attack{Target: 1, Attacker: n - 2, SubPrefix: true}
	want, err := full.SolveDefense(at, Defense{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.SolveDelta(snap, at, Defense{})
	if err != nil {
		t.Fatal(err)
	}
	if got.UsedDelta() {
		t.Fatal("sub-prefix attack must fall back to a full solve")
	}
	requireSameOutcome(t, "subprefix", pol.Graph().AddrWeights(), want, got)
	if ds.Stats().FullFallbacks != 1 {
		t.Fatalf("stats = %+v, want one full fallback", ds.Stats())
	}
}

// TestDeltaSolveChangedSet checks the differential view itself: every
// node not in Changed() must read back exactly the baseline value.
func TestDeltaSolveChangedSet(t *testing.T) {
	pol := deltaTestPolicy(t, 400, 5)
	n := pol.N()
	target := 2
	snap, err := BuildSnapshot(pol, target)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDeltaSolver(pol)
	got, err := ds.SolveDelta(snap, Attack{Target: target, Attacker: n - 1}, Defense{})
	if err != nil {
		t.Fatal(err)
	}
	inChanged := make(map[int32]bool, len(got.Changed()))
	last := int32(-1)
	for _, v := range got.Changed() {
		if v <= last {
			t.Fatalf("Changed() not strictly ascending at %d", v)
		}
		last = v
		inChanged[v] = true
	}
	for i := 0; i < n; i++ {
		if inChanged[int32(i)] {
			continue
		}
		if got.HasRoute(i) != snap.HasRoute(i) || got.Class(i) != snap.Class(i) ||
			got.Dist(i) != snap.Dist(i) || got.NextHop(i) != snap.NextHop(i) {
			t.Fatalf("node %d outside Changed() diverged from the baseline", i)
		}
		if got.HasRoute(i) && got.Origin(i) != OriginTarget {
			t.Fatalf("node %d outside Changed() routes to origin %d", i, got.Origin(i))
		}
	}
	// The attacker itself always changes (it originates the hijack).
	if !inChanged[int32(n-1)] {
		t.Fatal("attacker missing from Changed()")
	}
}

// TestDeltaSolveLeakNoRoute pins the no-op leak: an attacker with no
// baseline route has nothing to leak and the outcome is the baseline.
func TestDeltaSolveLeakNoRoute(t *testing.T) {
	// Build a two-component policy by hand: 0—1 (provider 0 of customer
	// 1), and isolated pair 2—3. An attack from the far component leaks
	// nothing.
	b := topology.NewBuilder()
	if err := b.AddLink(asn.ASN(10), asn.ASN(20), topology.RelCustomer); err != nil { // 10 provides for 20
		t.Fatal(err)
	}
	if err := b.AddLink(asn.ASN(30), asn.ASN(40), topology.RelCustomer); err != nil {
		t.Fatal(err)
	}
	gr := b.Build()
	pol, err := NewPolicy(gr, nil)
	if err != nil {
		t.Fatal(err)
	}
	tIx, _ := gr.Index(asn.ASN(10))
	aIx, _ := gr.Index(asn.ASN(30))
	snap, err := BuildSnapshot(pol, tIx)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDeltaSolver(pol)
	got, err := ds.SolveDelta(snap, Attack{Target: tIx, Attacker: aIx, Kind: KindRouteLeak}, Defense{})
	if err != nil {
		t.Fatal(err)
	}
	requirePollutedWeight(t, "no-op leak on a unit-weight graph", gr.AddrWeights(), got)
	if len(got.Changed()) != 0 || got.PollutedCount() != 0 {
		t.Fatalf("no-op leak changed %d nodes, polluted %d", len(got.Changed()), got.PollutedCount())
	}
	if ds.Stats().EmptyDeltas != 1 {
		t.Fatalf("stats = %+v, want one empty delta", ds.Stats())
	}
}

// TestSnapshotMatchesBaselineSolve pins the snapshot arrays against a
// defense-free target-only solve.
func TestSnapshotMatchesBaselineSolve(t *testing.T) {
	pol := deltaTestPolicy(t, 300, 17)
	n := pol.N()
	s := NewSolver(pol)
	for _, target := range []int{0, n / 3, n - 1} {
		snap, err := BuildSnapshot(pol, target)
		if err != nil {
			t.Fatal(err)
		}
		o := s.solveScenario(Attack{Target: target, Attacker: target}, &scenario{})
		for i := 0; i < n; i++ {
			if o.HasRoute(i) != snap.HasRoute(i) || o.Class(i) != snap.Class(i) ||
				o.Dist(i) != snap.Dist(i) || o.NextHop(i) != snap.NextHop(i) {
				t.Fatalf("target %d node %d: snapshot diverged from baseline solve", target, i)
			}
		}
	}
}
