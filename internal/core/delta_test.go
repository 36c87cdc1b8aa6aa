package core

import (
	"math"
	"math/rand"
	"slices"
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

// repairWithBudget runs the repair kernel on a query whatever SolveDelta
// would choose for it: SolveDelta sends an attack nothing filters to the
// full solver, so the tests reach stage{1,2,3}Delta on those cells — and
// set the budget — through the same two in-package steps SolveDelta takes.
// Sub-prefix attacks have no repair and go to the full solver here too.
func repairWithBudget(ds *DeltaSolver, snap *Snapshot, at Attack, def Defense, budget int64) (*DeltaOutcome, error) {
	if err := ds.resolve(snap, at, def); err != nil {
		return nil, err
	}
	if at.SubPrefix {
		return ds.solveFull(at, 0), nil
	}
	return ds.repair(at, budget), nil
}

// unbounded is a budget no repair can spend.
const unbounded = math.MaxInt64

// requirePollutedWeight checks the bulk pollution passes against the
// per-node Polluted loop they replaced, under weights, the address weights
// of the outcome's graph (nil: every node weighs 1).
func requirePollutedWeight(t *testing.T, label string, weights []int64, o OutcomeView) {
	t.Helper()
	wantCount, wantWeight := 0, int64(0)
	for i := 0; i < o.N(); i++ {
		if !o.Polluted(i) {
			continue
		}
		wantCount++
		if weights == nil {
			wantWeight++
		} else {
			wantWeight += weights[i]
		}
	}
	count, weight := o.PollutedWeight()
	if count != wantCount || weight != wantWeight || o.PollutedCount() != wantCount {
		t.Fatalf("%s: PollutedWeight() = (%d, %d) and PollutedCount() = %d, per-node loop (%d, %d)",
			label, count, weight, o.PollutedCount(), wantCount, wantWeight)
	}
}

// requireSameOutcome compares a DeltaOutcome against a full Outcome node
// by node across every accessor the query layer reads, and holds the bulk
// pollution pass of both, and of a Clone, to the per-node loop under the
// address weights of their graph.
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

// TestDeltaSolveMatchesFull pins both delta entries against a from-scratch
// solve for every attack kind × defense mechanism over random topologies,
// exercising the snapshot reuse across defenses: SolveDelta, whichever
// kernel it chooses, and the unbounded repair, which keeps the worklist
// stages covered on the cells SolveDelta hands to the full solver.
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
			rep := NewDeltaSolver(pol)
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

			queries := int64(0)
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
							label := kind.String() + "/def" + string(rune('0'+di))
							got, err := ds.SolveDelta(snap, at, def)
							if err != nil {
								t.Fatal(err)
							}
							requireSameOutcome(t, label+"/SolveDelta", weights, want, got)
							got, err = repairWithBudget(rep, snap, at, def, unbounded)
							if err != nil {
								t.Fatal(err)
							}
							requireSameOutcome(t, label+"/repair", weights, want, got)
							queries++
						}
					}
				}
			}
			if st := rep.Stats(); st.FullFallbacks > 0 || st.DeltaSolves+st.EmptyDeltas != queries {
				t.Fatalf("the unbounded repair did not answer all %d exact-prefix queries itself (stats %+v)", queries, st)
			}
			st := ds.Stats()
			if st.DeltaSolves == 0 || st.FullFallbacks == 0 {
				t.Fatalf("SolveDelta did not exercise both kernels (stats %+v)", st)
			}
			if st.DeltaSolves+st.EmptyDeltas+st.FullFallbacks != queries {
				t.Fatalf("SolveDelta's answers do not add up to %d queries (stats %+v)", queries, st)
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
// node not in Changed() must read back exactly the baseline value. The
// undefended attack reaches the repair through the in-package entry;
// through SolveDelta it is a full solve, which tracks no differential.
func TestDeltaSolveChangedSet(t *testing.T) {
	pol := deltaTestPolicy(t, 400, 5)
	n := pol.N()
	target := 2
	snap, err := BuildSnapshot(pol, target)
	if err != nil {
		t.Fatal(err)
	}
	at := Attack{Target: target, Attacker: n - 1}
	all := asn.NewIndexSet(n)
	for i := 0; i < n; i++ {
		if i != at.Attacker {
			all.Add(i)
		}
	}
	requireChangedSet := func(label string, got *DeltaOutcome) {
		t.Helper()
		if !got.UsedDelta() {
			t.Fatalf("%s: answered by a full solve, want a repair", label)
		}
		inChanged := make(map[int32]bool, len(got.Changed()))
		last := int32(-1)
		for _, v := range got.Changed() {
			if v <= last {
				t.Fatalf("%s: Changed() not strictly ascending at %d", label, v)
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
				t.Fatalf("%s: node %d outside Changed() diverged from the baseline", label, i)
			}
			if got.HasRoute(i) && got.Origin(i) != OriginTarget {
				t.Fatalf("%s: node %d outside Changed() routes to origin %d", label, i, got.Origin(i))
			}
		}
		// The attacker itself always changes (it originates the hijack).
		if !inChanged[int32(at.Attacker)] {
			t.Fatalf("%s: attacker missing from Changed()", label)
		}
	}

	ds := NewDeltaSolver(pol)
	got, err := repairWithBudget(ds, snap, at, Defense{}, unbounded)
	if err != nil {
		t.Fatal(err)
	}
	requireChangedSet("undefended repair", got)
	// With everyone else validating origins the repair stops at the
	// attacker's neighbors, well inside the budget.
	if got, err = ds.SolveDelta(snap, at, Defense{Blocked: all}); err != nil {
		t.Fatal(err)
	}
	requireChangedSet("SolveDelta under ROV everywhere", got)

	if got, err = ds.SolveDelta(snap, at, Defense{}); err != nil {
		t.Fatal(err)
	}
	if got.UsedDelta() || got.Changed() != nil {
		t.Fatalf("undefended SolveDelta: repaired=%v with %d changed nodes, want a full solve and no differential", got.UsedDelta(), len(got.Changed()))
	}
	want, err := NewSolver(pol).SolveDefense(at, Defense{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutcome(t, "undefended SolveDelta", pol.Graph().AddrWeights(), want, got)
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

// chooserFixture is a 600-AS world, a multi-homed target in it, one of
// the target's providers, and an attacker that is not one but holds a
// baseline route (so it has something to leak).
func chooserFixture(t *testing.T) (pol *Policy, snap *Snapshot, provider, outsider int) {
	t.Helper()
	pol = deltaTestPolicy(t, 600, 11)
	n := pol.N()
	target := -1
	for i := n - 1; i >= 0 && target < 0; i-- {
		if len(pol.Providers(i)) >= 2 {
			target = i
		}
	}
	if target < 0 {
		t.Fatal("no multi-homed node in the fixture world")
	}
	snap, err := BuildSnapshot(pol, target)
	if err != nil {
		t.Fatal(err)
	}
	provider = int(pol.Providers(target)[0])
	outsider = -1
	for i := 0; i < n && outsider < 0; i++ {
		if i != target && snap.HasRoute(i) && !aspaAuthorizedProvider(pol, i, target) && len(pol.Providers(i)) > 0 {
			outsider = i
		}
	}
	if outsider < 0 {
		t.Fatal("no routed non-provider attacker in the fixture world")
	}
	return pol, snap, provider, outsider
}

// everyThird is a deployment at nodes 0, 3, 6, …: dense enough to filter
// any attack it applies to, sparse enough that repairs still have work.
func everyThird(n int) *asn.IndexSet {
	set := asn.NewIndexSet(n)
	for i := 0; i < n; i += 3 {
		set.Add(i)
	}
	return set
}

// TestSolveDeltaChooses pins the chooser: an attack that nothing deployed
// filters goes to the full solver without a single examination; anything
// else gets a repair attempt first.
func TestSolveDeltaChooses(t *testing.T) {
	pol, snap, provider, outsider := chooserFixture(t)
	n := pol.N()
	target := snap.Target()
	some := everyThird(n)
	for _, tc := range []struct {
		name     string
		kind     AttackKind
		attacker int
		def      Defense
		repair   bool
	}{
		{"origin, no defense", KindOrigin, outsider, Defense{}, false},
		{"forged origin under ROV only", KindForgedOrigin, outsider, Defense{Blocked: some}, false},
		{"leak under ROV only", KindRouteLeak, outsider, Defense{Blocked: some}, false},
		{"forged origin by an authorized provider under ASPA", KindForgedOrigin, provider, Defense{ASPA: some}, false},
		{"origin under ROV", KindOrigin, outsider, Defense{Blocked: some}, true},
		{"forged origin under ASPA", KindForgedOrigin, outsider, Defense{ASPA: some}, true},
		{"leak under Peerlock", KindRouteLeak, outsider, Defense{Peerlock: true}, true},
	} {
		ds := NewDeltaSolver(pol)
		at := Attack{Target: target, Attacker: tc.attacker, Kind: tc.kind}
		got, err := ds.SolveDelta(snap, at, tc.def)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := NewSolver(pol).SolveDefense(at, tc.def)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireSameOutcome(t, tc.name, pol.Graph().AddrWeights(), want, got)
		st := ds.Stats()
		attempted := got.UsedDelta() || got.Examined() > 0
		if attempted != tc.repair {
			t.Errorf("%s: repair attempted = %v, want %v (repaired=%v, examined %d, stats %+v)",
				tc.name, attempted, tc.repair, got.UsedDelta(), got.Examined(), st)
		}
		if !tc.repair && (st.FullFallbacks != 1 || st.Bailed != 0 || st.Examined != 0) {
			t.Errorf("%s: stats %+v, want one full solve that examined nothing", tc.name, st)
		}
		if tc.repair && st.DeltaSolves+st.Bailed != 1 {
			t.Errorf("%s: stats %+v, want one repair, finished or bailed", tc.name, st)
		}
	}
}

// TestRepairBudgetEdge runs one repair with exactly the examinations it
// needs and with one fewer: the first is answered by the repair, the second
// bails on its last examination and is answered in full; both are right.
func TestRepairBudgetEdge(t *testing.T) {
	pol, snap, _, outsider := chooserFixture(t)
	n := pol.N()
	some := everyThird(n)
	at, def := Attack{Target: snap.Target(), Attacker: outsider}, Defense{Blocked: some}
	want, err := NewSolver(pol).SolveDefense(at, def)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDeltaSolver(pol)
	got, err := repairWithBudget(ds, snap, at, def, unbounded)
	if err != nil {
		t.Fatal(err)
	}
	need := got.Examined()
	if need < 2 {
		t.Fatalf("the fixture repair examines %d nodes; the edge needs at least 2", need)
	}

	if got, err = repairWithBudget(ds, snap, at, def, need); err != nil {
		t.Fatal(err)
	}
	if !got.UsedDelta() || got.Examined() != need {
		t.Fatalf("budget %d: repaired=%v after %d examinations, want a repair after %d", need, got.UsedDelta(), got.Examined(), need)
	}
	requireSameOutcome(t, "budget met", pol.Graph().AddrWeights(), want, got)

	before := ds.Stats()
	if got, err = repairWithBudget(ds, snap, at, def, need-1); err != nil {
		t.Fatal(err)
	}
	if got.UsedDelta() || got.Examined() != need {
		t.Fatalf("budget %d: repaired=%v after %d examinations, want a full solve after %d", need-1, got.UsedDelta(), got.Examined(), need)
	}
	requireSameOutcome(t, "budget one short", pol.Graph().AddrWeights(), want, got)
	after := ds.Stats()
	if after.Bailed != before.Bailed+1 || after.FullFallbacks != before.FullFallbacks+1 || after.Examined != before.Examined+need {
		t.Fatalf("stats moved %+v → %+v, want one bailed fallback and %d examinations", before, after, need)
	}
}

// TestDeltaLeakFallbackSolvesOnce: the snapshot is the baseline a leak's
// seed distance is read from, so a leak that SolveDelta answers in full —
// sent there by the chooser or by a spent budget — costs one solve, where a
// bare Solver pays a second for the baseline.
func TestDeltaLeakFallbackSolvesOnce(t *testing.T) {
	pol, snap, _, outsider := chooserFixture(t)
	at := Attack{Target: snap.Target(), Attacker: outsider, Kind: KindRouteLeak}
	for _, tc := range []struct {
		name   string
		def    Defense
		budget int64
	}{
		{"chosen", Defense{}, repairBudget(pol.N())},
		{"bailed", Defense{Peerlock: true}, 0},
	} {
		bare := NewSolver(pol)
		want, err := bare.SolveDefense(at, tc.def)
		if err != nil {
			t.Fatal(err)
		}
		if st := bare.Stats(); st.Solves != 1 || st.BaselineSolves != 1 {
			t.Fatalf("%s: a bare solver's leak cost %d solves + %d baseline solves, want 1 + 1", tc.name, st.Solves, st.BaselineSolves)
		}
		ds := NewDeltaSolver(pol)
		var got *DeltaOutcome
		if tc.budget == 0 {
			got, err = repairWithBudget(ds, snap, at, tc.def, 0)
		} else {
			got, err = ds.SolveDelta(snap, at, tc.def)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.UsedDelta() {
			t.Fatalf("%s: answered by the repair, want the fallback", tc.name)
		}
		requireSameOutcome(t, tc.name, pol.Graph().AddrWeights(), want, got)
		if st := ds.Solver().Stats(); st.Solves != 1 || st.BaselineSolves != 0 {
			t.Errorf("%s: the fallback cost %d solves + %d baseline solves, want 1 + 0", tc.name, st.Solves, st.BaselineSolves)
		}
	}
}

// TestBailLeavesNoWorklist: a repair that runs out of budget stops with
// entries still queued. They must not reach the next query, which has to
// examine and change exactly what a fresh solver does on the same input.
func TestBailLeavesNoWorklist(t *testing.T) {
	pol, snap, _, outsider := chooserFixture(t)
	n := pol.N()
	some := everyThird(n)
	next := Attack{Target: snap.Target(), Attacker: outsider}
	nextDef := Defense{Blocked: some}
	fresh, err := repairWithBudget(NewDeltaSolver(pol), snap, next, nextDef, unbounded)
	if err != nil {
		t.Fatal(err)
	}
	wantExamined, wantChanged := fresh.Examined(), append([]int32(nil), fresh.Changed()...)

	// Bail in stage 1 and in stage 3: an undefended hijack by a multi-homed
	// stub spends a budget of 3 climbing its providers (three stubs, since
	// one may happen to stop on an empty worklist); one by a provider-free
	// node examines nothing until the provider flood.
	var bailers []int
	top := -1
	for i := 0; i < n; i++ {
		if i == snap.Target() || i == outsider {
			continue
		}
		if len(bailers) < 3 && len(pol.Providers(i)) >= 2 && len(pol.Customers(i)) == 0 {
			bailers = append(bailers, i)
		}
		if top < 0 && len(pol.Providers(i)) == 0 && len(pol.Customers(i)) > 0 {
			top = i
		}
	}
	if len(bailers) < 3 || top < 0 {
		t.Fatalf("the fixture world lacks three multi-homed stubs (%v) or a provider-free transit node (%d)", bailers, top)
	}
	for _, bailer := range append(bailers, top) {
		ds := NewDeltaSolver(pol)
		got, err := repairWithBudget(ds, snap, Attack{Target: snap.Target(), Attacker: bailer}, Defense{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.UsedDelta() {
			t.Fatalf("attacker %d: an undefended hijack was repaired within three examinations", bailer)
		}
		// Stage 2 fills the stage-2 dirty list, so it is empty exactly when
		// stage 1 bailed.
		if inStage1 := len(ds.d2) == 0; inStage1 != (bailer != top) {
			t.Fatalf("attacker %d bailed in stage 1: %v, want the stubs there and the provider-free node in stage 3", bailer, inStage1)
		}
		got, err = repairWithBudget(ds, snap, next, nextDef, unbounded)
		if err != nil {
			t.Fatal(err)
		}
		if got.Examined() != wantExamined {
			t.Errorf("after attacker %d bailed: the next query examined %d nodes, a fresh solver %d", bailer, got.Examined(), wantExamined)
		}
		if changed := got.Changed(); !slices.Equal(changed, wantChanged) {
			t.Errorf("after attacker %d bailed: the next query changed %d nodes, a fresh solver %d", bailer, len(changed), len(wantChanged))
		}
	}
}
