package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// oddWeights gives every node a weight with several bits set, so the
// bit-sliced weight sum adds into more than one plane per node.
func oddWeights(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(3 + 7*i%1021)
	}
	return w
}

// requireLanes runs one lane solve on s and holds every lane to a fresh
// Solver on that lane's cell: on what the lane words answer (route, origin,
// distance, pollution totals) before anything is materialized, then on
// class and next hop, which materialize the lane. It returns false when the
// batch was rejected — with, as it checks, the error and the lane the
// scalar path names.
func requireLanes(t *testing.T, s *Solver, target int, attackers []int, kind AttackKind, sub bool, def Defense) bool {
	t.Helper()
	pol := s.pol
	cell := func(i int) Attack {
		return Attack{Target: target, Attacker: attackers[i], Kind: kind, SubPrefix: sub}
	}
	before := s.Stats()
	outs, err := s.SolveLanes(target, attackers, kind, sub, def)
	if err != nil {
		var le *LaneError
		if !errors.As(err, &le) {
			t.Fatalf("SolveLanes(%d lanes) failed without naming a lane: %v", len(attackers), err)
		}
		for i := 0; i <= le.Lane; i++ {
			_, serr := NewSolver(pol).SolveDefense(cell(i), def)
			if i < le.Lane && serr != nil {
				t.Fatalf("lane %d is invalid (%v) but the batch blames lane %d", i, serr, le.Lane)
			}
			if i == le.Lane && (serr == nil || serr.Error() != le.Err.Error()) {
				t.Fatalf("lane %d rejected with %q, scalar solve says %v", i, le.Err, serr)
			}
		}
		return false
	}
	if len(outs) != len(attackers) {
		t.Fatalf("%d lanes for %d attackers", len(outs), len(attackers))
	}
	wants := make([]*Outcome, len(outs))
	for i := range outs {
		o := &outs[i]
		want, err := NewSolver(pol).SolveDefense(cell(i), def)
		if err != nil {
			t.Fatalf("lane %d: SolveLanes accepted %+v, a fresh solver rejects it: %v", i, cell(i), err)
		}
		wants[i] = want
		if o.N() != want.N() || o.Target != want.Target || o.Attacker != want.Attacker {
			t.Fatalf("lane %d: view of (%d nodes, %d→%d), want (%d, %d→%d)", i, o.N(), o.Attacker, o.Target, want.N(), want.Attacker, want.Target)
		}
		for v := 0; v < want.N(); v++ {
			if o.HasRoute(v) != want.HasRoute(v) || o.Origin(v) != want.Origin(v) || o.Dist(v) != want.Dist(v) || o.Polluted(v) != want.Polluted(v) {
				t.Fatalf("lane %d of %d (%+v under %+v): node %d has (route=%v org=%d dist=%d), want (route=%v org=%d dist=%d)",
					i, len(outs), cell(i), def, v, o.HasRoute(v), o.Origin(v), o.Dist(v), want.HasRoute(v), want.Origin(v), want.Dist(v))
			}
		}
		if got, want := o.PollutedNodes(nil), want.PollutedNodes(nil); !slices.Equal(got, want) {
			t.Fatalf("lane %d: polluted nodes %v, want %v", i, got, want)
		}
		// The count first: the batch tallies the weights only once asked.
		wc, ww := want.PollutedWeight()
		if gc := o.PollutedCount(); gc != wc {
			t.Fatalf("lane %d: %d polluted, want %d", i, gc, wc)
		}
		if gc, gw := o.PollutedWeight(); gc != wc || gw != ww || o.PollutedCount() != wc {
			t.Fatalf("lane %d: pollution (%d, %d), want (%d, %d)", i, gc, gw, wc, ww)
		}
	}
	if st := s.Stats(); st.Solves != before.Solves || st.Materialized != before.Materialized ||
		st.LaneSolves != before.LaneSolves+1 || st.Lanes != before.Lanes+int64(len(outs)) {
		t.Fatalf("reading lane words cost scalar work: stats %+v → %+v", before, st)
	}
	// Backwards, so that each lane's records are taken by another lane's
	// materialization before a second read of the first would reuse them.
	for i := len(outs) - 1; i >= 0; i-- {
		if d := viewDiff(wants[i], &outs[i]); d != "" {
			t.Fatalf("materialized lane %d (%+v under %+v): %s", i, cell(i), def, d)
		}
	}
	if d := viewDiff(wants[0], outs[0].Clone()); d != "" {
		t.Fatalf("clone of lane 0: %s", d)
	}
	if got := s.Stats().Materialized - before.Materialized; got != int64(len(outs)) {
		t.Fatalf("%d materializations for %d lanes", got, len(outs))
	}
	return true
}

// TestSolveLanesEquivalence holds lane i of a batch to the scalar solve of
// cell i on a generated 600-AS world, over every kind × defense ×
// sub-prefix flag × SPF setting × tie-break direction, on one solver per
// policy reused across widths 1..64 with scalar solves in between. The
// three policies weigh the world by its address weights (powers of two),
// by multi-bit weights and not at all.
func TestSolveLanesEquivalence(t *testing.T) {
	for k, opts := range [][]PolicyOption{
		nil,
		{WithPreferHighNextHop(true)},
		{WithTier1ShortestPath(false)},
	} {
		pol := deltaTestPolicy(t, 600, 11, opts...)
		n := pol.N()
		switch k {
		case 1:
			pol = withWeights(t, pol, oddWeights(n))
		case 2:
			pol = withWeights(t, pol, nil)
		}
		_, defs := kernelCells(pol)
		rng := rand.New(rand.NewSource(5))
		s := NewSolver(pol)
		for round, width := range []int{1, 2, 7, 33, 64, 60} {
			target := rng.Intn(n)
			if round == 0 {
				target = int(pol.tier1List[0]) // a tier-1 victim: peers see it at distance 1
			}
			attackers := make([]int, width)
			for i := range attackers {
				for attackers[i] = rng.Intn(n); attackers[i] == target; {
					attackers[i] = rng.Intn(n)
				}
			}
			attackers[width/2] = attackers[0]                // a duplicate
			attackers[width-1] = int(pol.tier1List[round%2]) // a tier-1 attacker
			if attackers[width-1] == target {
				attackers[width-1] = int(pol.tier1List[2])
			}
			for _, kind := range Kinds() {
				for _, sub := range []bool{false, true} {
					if sub && kind == KindRouteLeak {
						continue
					}
					for _, def := range defs {
						if !requireLanes(t, s, target, attackers, kind, sub, def) {
							t.Fatalf("valid batch rejected")
						}
					}
				}
			}
			if _, err := s.SolveDefense(Attack{Target: target, Attacker: attackers[0]}, defs[1]); err != nil {
				t.Fatal(err)
			}
			requireLevelSets(t, s)
		}
	}
}

// TestLaneOnlySolverSkipsScalarArena: a solver that only runs lane batches
// and reads their lane words never allocates the scalar records; reading a
// lane's Class does, and answers as a scalar solve of that cell.
func TestLaneOnlySolverSkipsScalarArena(t *testing.T) {
	pol := deltaTestPolicy(t, 300, 3)
	s := NewSolver(pol)
	attackers := []int{1, 2, 3, 4}
	outs, err := s.SolveLanes(5, attackers, KindOrigin, false, Defense{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		outs[i].PollutedWeight()
	}
	if s.nodes != nil {
		t.Fatalf("a lane-only solver holds %d scalar records", len(s.nodes))
	}
	want, err := NewSolver(pol).SolveDefense(Attack{Target: 5, Attacker: attackers[2]}, Defense{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < pol.N(); v++ {
		if got := outs[2].Class(v); got != want.Class(v) {
			t.Fatalf("lane 2: node %d has class %v, want %v", v, got, want.Class(v))
		}
	}
	if len(s.nodes) != pol.N() {
		t.Fatalf("materializing a lane left %d scalar records, want %d", len(s.nodes), pol.N())
	}
}

// TestSolveLanesRejects: a batch fails as its lowest invalid cell does.
func TestSolveLanesRejects(t *testing.T) {
	pol := deltaTestPolicy(t, 300, 3)
	s := NewSolver(pol)
	if requireLanes(t, s, 5, []int{1, 2, 5, 3, 5}, KindOrigin, false, Defense{}) {
		t.Error("a batch with attacker = target was solved")
	}
	if requireLanes(t, s, 5, []int{1, pol.N()}, KindOrigin, false, Defense{}) {
		t.Error("a batch with an out-of-range attacker was solved")
	}
	if requireLanes(t, s, 5, []int{1, 2}, KindRouteLeak, true, Defense{}) {
		t.Error("a sub-prefix leak batch was solved")
	}
	for _, attackers := range [][]int{nil, make([]int, LaneWidth+1)} {
		if _, err := s.SolveLanes(5, attackers, KindOrigin, false, Defense{}); err == nil {
			t.Errorf("a batch of %d lanes was solved", len(attackers))
		}
	}
	// The solver comes through a rejected batch.
	if !requireLanes(t, s, 5, []int{1, 2, 3}, KindOrigin, false, Defense{}) {
		t.Error("valid batch rejected after invalid ones")
	}
}
