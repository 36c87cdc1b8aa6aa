package sweep

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
)

// oneTarget is a one-group matrix of n cells, target 0 against attackers
// 1..n, one lane batch key. Cell bad, if in range, has the target attack
// itself, which the solver rejects.
func oneTarget(pol *core.Policy, n, bad int) Matrix {
	return Matrix{
		Groups: 1,
		Size:   func(int) int { return n },
		Policy: func(int) *core.Policy { return pol },
		Job: func(_, k int) (core.Attack, core.Defense) {
			if k == bad {
				return core.Attack{Target: 0, Attacker: 0}, core.Defense{}
			}
			return core.Attack{Target: 0, Attacker: k + 1}, core.Defense{}
		},
	}
}

// TestRunMatrixReturnsSolvers: the runtime takes its solvers from the
// policy's idle list and hands every one back, so the next run gets warm
// ones. Two workers each hold one lane batch at once (extract waits for
// both), so both take a solver; afterwards the policy hands out exactly
// those two before it builds a fresh one. A run that fails on a bad cell
// hands its solver back too.
func TestRunMatrixReturnsSolvers(t *testing.T) {
	pol, g := testPolicy(t, 300)
	if g.N() <= 2*core.LaneWidth {
		t.Fatalf("test topology too small: %d nodes", g.N())
	}
	var both sync.WaitGroup
	both.Add(2)
	extract := func(_, k int, o *core.Outcome) int {
		if k%core.LaneWidth == 0 {
			both.Done()
			both.Wait()
		}
		return o.PollutedCount()
	}
	err := RunMatrixReduce(oneTarget(pol, 2*core.LaneWidth, -1), MatrixOptions{Workers: 2}, extract, &Collect[int]{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := pol.AcquireSolver(), pol.AcquireSolver()
	if a == b || a.Stats().LaneSolves == 0 || b.Stats().LaneSolves == 0 {
		t.Fatalf("after a two-worker run the policy handed out solvers with %d and %d lane solves, want two warm ones",
			a.Stats().LaneSolves, b.Stats().LaneSolves)
	}
	if c := pol.AcquireSolver(); c.Stats() != (core.SolverStats{}) {
		t.Fatalf("a third solver has run before: %+v", c.Stats())
	}
	pol.ReleaseSolver(a)

	// One good lane batch, then a batch whose last cell is bad: the run
	// takes a, solves the first batch on it, fails, and hands it back.
	lanes := a.Stats().LaneSolves
	count := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }
	bad := oneTarget(pol, 2*core.LaneWidth, 2*core.LaneWidth-1)
	if err := RunMatrixReduce(bad, MatrixOptions{Workers: 1}, count, &Collect[int]{}); err == nil {
		t.Fatal("a run with a bad cell succeeded")
	}
	if s := pol.AcquireSolver(); s != a || s.Stats().LaneSolves != lanes+1 {
		t.Fatal("the failed run did not hand back the solver it took")
	}
}

// TestDeterminismSharedPolicyConcurrentRuns: four goroutines run different
// matrices — lane batches, lone defended cells, route leaks with their
// baselines, materialized lanes — over one shared policy, repeatedly, so
// every run takes solvers another run left warm. Each result must equal its
// serial Workers: 1 digest.
func TestDeterminismSharedPolicyConcurrentRuns(t *testing.T) {
	pol, g := testPolicy(t, 300)
	n := 150
	blocked := asn.NewIndexSet(g.N())
	for i := 0; i < g.N(); i += 4 {
		blocked.Add(i)
	}
	defs := []core.Defense{{}, core.RovOnly(blocked), (core.MechROV | core.MechASPA).Deploy(blocked)}
	type run struct {
		m       Matrix
		extract func(g, k int, o *core.Outcome) int
	}
	count := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }
	runs := []run{
		{oneTarget(pol, n, -1), count},
		{Matrix{ // a defense per cell: lone cells, solved scalar
			Groups: 2,
			Size:   func(int) int { return n },
			Policy: func(int) *core.Policy { return pol },
			Job: func(gi, k int) (core.Attack, core.Defense) {
				return core.Attack{Target: 7 + gi, Attacker: (k + 9) % g.N()}, defs[k%len(defs)]
			},
		}, count},
		{Matrix{ // route leaks: every lane needs the baseline solve
			Groups: 1,
			Size:   func(int) int { return n },
			Policy: func(int) *core.Policy { return pol },
			Job: func(_, k int) (core.Attack, core.Defense) {
				return core.Attack{Target: 3, Attacker: (k + 4) % g.N(), Kind: core.KindRouteLeak}, core.RovOnly(blocked)
			},
		}, count},
		{Matrix{ // sub-prefix lanes, each lane materialized by a Class read
			Groups: 3,
			Size:   func(int) int { return n / 3 },
			Policy: func(int) *core.Policy { return pol },
			Job: func(gi, k int) (core.Attack, core.Defense) {
				return core.Attack{Target: 20 * (gi + 1), Attacker: 100 + k, SubPrefix: gi == 1}, defs[gi]
			},
		}, func(_, k int, o *core.Outcome) int { return 8*o.PollutedCount() + int(o.Class(k)) }},
	}
	// digestOf runs r whole, or as shards run one by one and merged.
	digestOf := func(r run, workers, shards int) ([sha256.Size]byte, error) {
		var c Collect[int]
		var err error
		if shards == 1 {
			err = RunMatrixReduce(r.m, MatrixOptions{Workers: workers}, r.extract, &c)
		} else {
			err = mergeShards(r.m, workers, shards, r.extract, &c)
		}
		return runDigest(c.Records), err
	}
	want := make([][sha256.Size]byte, len(runs))
	for i, r := range runs {
		d, err := digestOf(r, 1, 1)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		want[i] = d
	}

	const reps = 3
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				shards := 1
				if rep == 1 {
					shards = 2
				}
				d, err := digestOf(runs[i], 2, shards)
				if err == nil && d != want[i] {
					err = fmt.Errorf("digest %x, serial run says %x", d[:8], want[i][:8])
				}
				if err != nil {
					errs[i] = fmt.Errorf("rep %d: %w", rep, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}
