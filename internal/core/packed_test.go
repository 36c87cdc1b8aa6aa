package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// kernelCells is a fixed cell list for the kernel tests: a few attackers
// against one target (callers set the Kind), to be solved under no
// defense and under a mixed ROV+ASPA+Peerlock deployment.
func kernelCells(pol *Policy) (cells []Attack, defs []Defense) {
	n := pol.N()
	rng := rand.New(rand.NewSource(12))
	some := asn.NewIndexSet(n)
	for i := 0; i < n/5; i++ {
		some.Add(rng.Intn(n))
	}
	defs = []Defense{{}, {Blocked: some, ASPA: some, Peerlock: true}}
	target := n / 2
	for len(cells) < 6 {
		if a := rng.Intn(n); a != target {
			cells = append(cells, Attack{Target: target, Attacker: a})
		}
	}
	return cells, defs
}

// TestWarmSolveAllocs pins the kernel's steady state: once a solver has
// seen a cell, solving it again allocates nothing — the level arena and the
// returned Outcome are retained. Route leaks solve a baseline on the lazily
// built secondary solver, which is the one allocation they are allowed.
// BuildSnapshot runs the same stages; all it may allocate is the detached
// Snapshot it returns. A scalar outcome's PollutedWeight and
// PollutedCount, which ask the scenario at the single-homed stubs it
// derives, allocate nothing under ROV or ASPA, weighted or not. SolveDelta allocates nothing on either kernel, and neither
// does SolveLanes, reading its lanes and materializing one included.
func TestWarmSolveAllocs(t *testing.T) {
	pol := deltaTestPolicy(t, 2000, 42)
	cells, defs := kernelCells(pol)
	for _, tc := range []struct {
		kind AttackKind
		max  float64
	}{
		{KindOrigin, 0},
		{KindForgedOrigin, 0},
		{KindRouteLeak, 1},
	} {
		s := NewSolver(pol)
		pass := func() {
			for _, at := range cells {
				at.Kind = tc.kind
				for _, def := range defs {
					if _, err := s.SolveDefense(at, def); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		pass() // warm: grow every buffer to this cell list's high-water mark
		if got := testing.AllocsPerRun(5, pass); got > tc.max {
			t.Errorf("%v: warm pass of %d solves allocates %.1f times, want at most %.0f",
				tc.kind, len(cells)*len(defs), got, tc.max)
		}
	}

	// The world weighed by multi-bit weights, and by none.
	odd, unit := withWeights(t, pol, oddWeights(pol.N())), withWeights(t, pol, nil)
	some := defs[1].Blocked
	for _, wpol := range []*Policy{odd, unit} {
		for _, def := range []Defense{RovOnly(some), {ASPA: some}} {
			s := NewSolver(wpol)
			for _, kind := range Kinds() {
				at := cells[0]
				at.Kind = kind
				o, err := s.SolveDefense(at, def)
				if err != nil {
					t.Fatal(err)
				}
				measure := func() {
					o.PollutedWeight()
					o.PollutedCount()
				}
				measure()
				if got := testing.AllocsPerRun(5, measure); got > 0 {
					t.Errorf("%v under %+v (weighted=%v): warm PollutedWeight allocates %.1f times, want 0",
						kind, def, wpol == odd, got)
				}
			}
		}
	}

	// A lane solve retains its per-node words, distance planes and lane
	// outcomes like the scalar arenas; the pollution totals come off the
	// stack, and the tally's plan is the policy's, built by the first.
	// Materializing a lane is a scalar solve on the same buffers.
	attackers := make([]int, len(cells))
	for i, at := range cells {
		attackers[i] = at.Attacker
	}
	for _, kind := range Kinds() {
		s := NewSolver(odd)
		pass := func() {
			for _, def := range defs {
				outs, err := s.SolveLanes(cells[0].Target, attackers, kind, false, def)
				if err != nil {
					t.Fatal(err)
				}
				for i := range outs {
					outs[i].PollutedWeight()
				}
				outs[1].NextHop(cells[0].Target)
			}
		}
		pass()
		if got := testing.AllocsPerRun(5, pass); got > 0 {
			t.Errorf("%v: warm pass of %d lane solves allocates %.1f times, want 0", kind, len(defs), got)
		}
	}

	// The Snapshot struct, its three per-node arrays and its three tier-1
	// arrays.
	const snapshotObjects = 7
	s := NewSolver(pol)
	build := func() {
		if _, err := s.BuildSnapshot(cells[0].Attacker); err != nil {
			t.Fatal(err)
		}
	}
	build()
	if got := testing.AllocsPerRun(5, build); got > snapshotObjects {
		t.Errorf("warm BuildSnapshot allocates %.1f times, want the Snapshot's own %d", got, snapshotObjects)
	}

	// SolveDelta returns a view the solver owns and reads a leak's seed
	// from the snapshot, so neither kernel allocates, leaks included.
	snap, err := BuildSnapshot(pol, cells[0].Target)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDeltaSolver(pol)
	deltaPass := func() {
		for _, at := range cells {
			for _, kind := range Kinds() {
				at.Kind = kind
				for _, def := range defs {
					if _, err := ds.SolveDelta(snap, at, def); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	deltaPass()
	if st := ds.Stats(); st.DeltaSolves == 0 || st.FullFallbacks == st.Bailed || st.Bailed == 0 {
		t.Fatalf("the SolveDelta pass must repair some cells, send some to the full solver and bail on some: stats %+v", st)
	}
	if got := testing.AllocsPerRun(5, deltaPass); got > 0 {
		t.Errorf("warm pass of %d SolveDelta calls allocates %.1f times, want 0", len(cells)*len(Kinds())*len(defs), got)
	}
}

// requireLevelSets checks the invariant every stage relies on and leaves
// behind: the level sets are disjoint, their union is exactly the nodes
// stages 1–2 routed plus the transit nodes stage 3 routed, and each sits in
// the level of its distance. Stage 3 writes no single-homed stub and
// enters no stub it pulls: a stub (provider, no customer) holding a
// provider-class record was routed by the pull, as stages 1–2 hand out
// origin, customer and peer routes only.
func requireLevelSets(t *testing.T, s *Solver) {
	t.Helper()
	pol := s.pol
	levels := len(s.levels) / s.words
	for i, r := range s.nodes {
		routed := r.stamp == s.epoch
		stub := len(pol.Providers(i)) > 0 && len(pol.Customers(i)) == 0
		pulled := routed && stub && r.class == ClassProvider
		if pulled && pol.sole(int32(i)) {
			t.Fatalf("single-homed stub %d holds a provider-class record (dist %d, nh %d)", i, r.dist, r.nexthop)
		}
		member := 0
		for d := 0; d < levels; d++ {
			if s.level(d)[i>>6]&(1<<(i&63)) == 0 {
				continue
			}
			member++
			if !routed || pulled || int(r.dist) != d || d > s.top {
				t.Fatalf("node %d (routed=%v pulled=%v dist=%d) is in level %d (top %d)", i, routed, pulled, r.dist, d, s.top)
			}
		}
		if routed && !pulled && member != 1 {
			t.Fatalf("routed node %d (dist %d) is in %d levels, want exactly 1", i, r.dist, member)
		}
	}
}

// TestLevelSetsPartitionRoutedNodes holds the level-set invariant after
// every Solve and BuildSnapshot on a solver reused across kinds, defenses,
// tie-break directions and snapshot builds: the levels partition the nodes
// stages 1–2 routed plus the transit nodes stage 3 routed.
func TestLevelSetsPartitionRoutedNodes(t *testing.T) {
	for _, opts := range [][]PolicyOption{nil, {WithTier1ShortestPath(false)}, {WithPreferHighNextHop(true)}} {
		pol := deltaTestPolicy(t, 600, 11, opts...)
		cells, defs := kernelCells(pol)
		s := NewSolver(pol)
		for _, at := range cells {
			for _, kind := range Kinds() {
				at.Kind = kind
				for _, def := range defs {
					if _, err := s.SolveDefense(at, def); err != nil {
						t.Fatal(err)
					}
					requireLevelSets(t, s)
				}
			}
			if _, err := s.BuildSnapshot(at.Attacker); err != nil {
				t.Fatal(err)
			}
			requireLevelSets(t, s)
		}
	}
}

// TestEpochWraparound drives both epoch counters across the top of the
// int32 range: three solves at epochs 1–3 leave stamps with exactly the
// post-wrap values behind, the counters are set to MaxInt32-2, and each of
// five more solves must match a fresh solver. Without the clear at
// MaxInt32 the stale stamps read as routed (or already queued) nodes once
// counting restarts.
func TestEpochWraparound(t *testing.T) {
	pol := deltaTestPolicy(t, 600, 11)
	n := pol.N()
	cells, defs := kernelCells(pol)

	t.Run("solver", func(t *testing.T) {
		// A full-plane solve rewrites almost every record, which would
		// hide a missing clear; a sub-prefix hijack that everyone filters
		// routes only the attacker and leaves the stale stamps in place.
		all := asn.NewIndexSet(n)
		for i := 0; i < n; i++ {
			all.Add(i)
		}
		s := NewSolver(pol)
		for _, at := range cells[:3] {
			if _, err := s.SolveDefense(at, defs[0]); err != nil {
				t.Fatal(err)
			}
		}
		s.epoch = math.MaxInt32 - 2
		for i := 0; i < 5; i++ {
			at := cells[i%len(cells)]
			at.SubPrefix = true
			want, err := NewSolver(pol).Solve(at, all)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Solve(at, all)
			if err != nil {
				t.Fatal(err)
			}
			if why, ok := outcomesEqual(want, got); !ok {
				t.Fatalf("solve %d (epoch %d): reused solver diverged from a fresh one: %s", i, s.epoch, why)
			}
		}
		if s.epoch != 3 {
			t.Fatalf("epoch after five solves from MaxInt32-2 = %d, want 3", s.epoch)
		}
	})

	t.Run("delta", func(t *testing.T) {
		weights := pol.Graph().AddrWeights()
		snap, err := BuildSnapshot(pol, cells[0].Target)
		if err != nil {
			t.Fatal(err)
		}
		// Both entries cross the wrap: the unbounded repair under either
		// defense, and SolveDelta under the deployed one — an attack nothing
		// filters goes to the full solver and would not advance the delta
		// solver's epochs.
		for _, entry := range []struct {
			name  string
			solve func(*DeltaSolver, Attack, Defense) (*DeltaOutcome, error)
			defs  []Defense
		}{
			{"repair", func(ds *DeltaSolver, at Attack, def Defense) (*DeltaOutcome, error) {
				return repairWithBudget(ds, snap, at, def, unbounded)
			}, defs},
			{"SolveDelta", func(ds *DeltaSolver, at Attack, def Defense) (*DeltaOutcome, error) {
				return ds.SolveDelta(snap, at, def)
			}, defs[1:]},
		} {
			ds := NewDeltaSolver(pol)
			for _, at := range cells[:3] {
				if _, err := entry.solve(ds, at, entry.defs[0]); err != nil {
					t.Fatal(err)
				}
			}
			ds.qe = math.MaxInt32 - 2
			ds.we = math.MaxInt32 - 2 // bumped per stage, so it wraps a query earlier
			full := NewSolver(pol)
			for i := 0; i < 5; i++ {
				at := cells[(i+3)%len(cells)]
				at.Kind = Kinds()[i%len(Kinds())]
				def := entry.defs[i%len(entry.defs)]
				want, err := full.SolveDefense(at, def)
				if err != nil {
					t.Fatal(err)
				}
				got, err := entry.solve(ds, at, def)
				if err != nil {
					t.Fatal(err)
				}
				requireSameOutcome(t, entry.name+" across the wrap", weights, want, got)
			}
			if ds.qe != 3 {
				t.Fatalf("%s: query epoch after five solves from MaxInt32-2 = %d, want 3", entry.name, ds.qe)
			}
		}
	})
}
