package sweep

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/ribcompare"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// Tests for the lane batching inside runShard: the runtime groups cells
// into core.Solver.SolveLanes batches on its own, and nothing a caller can
// observe — records, their order, errors — may show it.

// laneCell is what the batching tests extract: the pollution totals every
// sweep reads, plus one probe node's route, which a lane answers from its
// lane words (distance) and from the materialized cell (next hop).
type laneCell struct {
	Pollution int
	Weight    int64
	Dist      int16
	NextHop   int32
}

// laneMatrix is a matrix built to cut batches every way the runtime must:
// groups of 1, 2, 63, 64, 65 and 130 cells under two policies, every attack
// kind, defended and not, and inside the 130-cell group a change of target
// at cell 70 and of defense at cell 100.
func laneMatrix(t testing.TB) (Matrix, func(g, k int, o *core.Outcome) laneCell) {
	t.Helper()
	_, g := testPolicy(t, 300)
	n := g.N()
	// Multi-bit address weights, which the lane tally sums bit by bit.
	b := topology.Clone(g)
	for i := 0; i < n; i++ {
		b.SetAddrWeight(g.ASN(i), int64(5+i%97))
	}
	g = b.Build()
	pol, err := core.NewPolicy(g, tier1Of(t, g))
	if err != nil {
		t.Fatal(err)
	}
	polHigh, err := core.NewPolicy(g, tier1Of(t, g), core.WithPreferHighNextHop(true))
	if err != nil {
		t.Fatal(err)
	}
	some := asn.NewIndexSet(n)
	for i := 0; i < n; i += 4 {
		some.Add(i)
	}
	defended := (core.MechROV | core.MechASPA | core.MechPeerlock).Deploy(some)
	sizes := []int{1, 2, 63, 64, 65, 130, 5}
	kinds := core.Kinds()
	m := Matrix{
		Groups: len(sizes),
		Size:   func(g int) int { return sizes[g] },
		Policy: func(g int) *core.Policy {
			if g%2 == 1 {
				return polHigh
			}
			return pol
		},
		Job: func(g, k int) (core.Attack, core.Defense) {
			at := core.Attack{Target: 3 + g, Attacker: (20 + 7*k) % n, Kind: kinds[g%len(kinds)]}
			at.SubPrefix = g == 4
			def := core.Defense{}
			if g >= 3 {
				def = defended
			}
			if g == 5 && k >= 70 {
				at.Target = 2
			}
			if g == 5 && k >= 100 {
				def = core.RovOnly(some)
			}
			if at.Attacker == at.Target {
				at.Attacker++
			}
			return at, def
		},
	}
	probe := n / 2
	return m, func(_, _ int, o *core.Outcome) laneCell {
		count, weight := o.PollutedWeight()
		return laneCell{Pollution: count, Weight: weight, Dist: o.Dist(probe), NextHop: o.NextHop(probe)}
	}
}

// scalarReference solves every cell of m on its own fresh solver.
func scalarReference[T any](t testing.TB, m Matrix, extract func(g, k int, o *core.Outcome) T) []T {
	t.Helper()
	var want []T
	for g := 0; g < m.Groups; g++ {
		for k := 0; k < m.Size(g); k++ {
			at, def := m.Job(g, k)
			o, err := core.NewSolver(m.Policy(g)).SolveDefense(at, def)
			if err != nil {
				t.Fatalf("group %d cell %d: %v", g, k, err)
			}
			want = append(want, extract(g, k, o))
		}
	}
	return want
}

// TestBatchStartsPartition: the runs tile [lo, hi) exactly, none is wider
// than core.LaneWidth or crosses a group or a change of target, kind,
// sub-prefix flag or defense, and none could have been longer.
func TestBatchStartsPartition(t *testing.T) {
	m, _ := laneMatrix(t)
	off := m.offsets()
	cells := off[m.Groups]
	key := func(cell int) batchKey {
		g := 0
		for cell >= off[g+1] {
			g++
		}
		at, def := m.Job(g, cell-off[g])
		return batchKey{g, at.Target, at.Kind, at.SubPrefix, def}
	}
	for _, r := range [][2]int{{0, cells}, {0, 1}, {2, 3}, {40, 41}, {100, 250}, {131, 132 + 64}, {200, cells}, {cells - 1, cells}} {
		lo, hi := r[0], r[1]
		starts, widest := batchStarts(m, off, lo, hi)
		if starts[0] != lo || starts[len(starts)-1] != hi {
			t.Fatalf("[%d,%d): runs cover [%d,%d)", lo, hi, starts[0], starts[len(starts)-1])
		}
		seen := 0
		for b := 0; b+1 < len(starts); b++ {
			from, to := starts[b], starts[b+1]
			if to <= from || to-from > core.LaneWidth {
				t.Fatalf("[%d,%d): run [%d,%d) has %d cells", lo, hi, from, to, to-from)
			}
			seen = max(seen, to-from)
			for c := from + 1; c < to; c++ {
				if key(c) != key(from) {
					t.Fatalf("[%d,%d): run [%d,%d) mixes cells %d and %d", lo, hi, from, to, from, c)
				}
			}
			if to < hi && to-from < core.LaneWidth && key(to) == key(from) {
				t.Fatalf("[%d,%d): run [%d,%d) stops short of cell %d, which it could carry", lo, hi, from, to, to)
			}
		}
		if seen != widest {
			t.Fatalf("[%d,%d): widest run reported %d, is %d", lo, hi, widest, seen)
		}
	}
}

// TestLaneBatchEquivalence: however the cell space is cut — workers, the
// whole matrix in one run, single-shard partial runs whose cuts fall
// mid-run — the stream is what a loop of scalar solves produces.
func TestLaneBatchEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m, extract := laneMatrix(t)
	want := scalarReference(t, m, extract)
	for _, workers := range []int{1, 8} {
		var got Collect[laneCell]
		if err := RunMatrixReduce(m, MatrixOptions{Workers: workers}, extract, &got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Records, want) {
			t.Errorf("workers=%d: whole-matrix stream diverges from the scalar reference", workers)
		}
		for _, shards := range []int{1, 3} {
			var merged Collect[laneCell]
			if err := mergeShards(m, workers, shards, extract, &merged); err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if !reflect.DeepEqual(merged.Records, want) {
				t.Errorf("workers=%d shards=%d: merged partial runs diverge from the scalar reference", workers, shards)
			}
		}
	}
}

// TestLaneBatchRIBEquivalence: an extractor that reads a next hop at every
// node of every cell gets the scalar answer from lane-solved cells.
func TestLaneBatchRIBEquivalence(t *testing.T) {
	pol, g := testPolicy(t, 200)
	n := 70
	m := Matrix{
		Groups: 1,
		Size:   func(int) int { return n },
		Policy: func(int) *core.Policy { return pol },
		Job: func(_, k int) (core.Attack, core.Defense) {
			return core.Attack{Target: g.N() - 1, Attacker: k}, core.Defense{}
		},
	}
	extract := func(_, _ int, o *core.Outcome) ribcompare.RIB { return ribcompare.FromOutcome(o) }
	want := scalarReference(t, m, extract)
	var got Collect[ribcompare.RIB]
	if err := RunMatrixReduce(m, MatrixOptions{Workers: 2}, extract, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want) {
		t.Error("RIBs of lane-solved cells diverge from the scalar reference")
	}
}

// TestLaneBatchErrorNamesLowestCell: an invalid cell in the middle of what
// would be one batch fails the run as it did cell by cell — the lowest
// invalid cell, in the scalar path's words. Run as shards one by one, the
// first shard to fail is the one holding that cell, and it names it.
func TestLaneBatchErrorNamesLowestCell(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pol, _ := testPolicy(t, 200)
	m := Matrix{
		Groups: 2,
		Size:   func(int) int { return 100 },
		Policy: func(int) *core.Policy { return pol },
		Job: func(g, k int) (core.Attack, core.Defense) {
			at := core.Attack{Target: 0, Attacker: k + 1}
			if g == 1 && (k == 10 || k == 40 || k == 90) {
				at.Attacker = 0 // target == attacker: the solver rejects it
			}
			return at, core.Defense{}
		},
	}
	const want = "matrix cell 110 (group 1 attack 10, attacker 0 → target 0): solve: target and attacker are the same node 0"
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }
	for _, workers := range []int{1, 8} {
		err := RunMatrixReduce(m, MatrixOptions{Workers: workers}, extract, &Collect[int]{})
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
		err = nil
		for s := 0; s < 3 && err == nil; s++ {
			_, err = RunShard(m, MatrixOptions{Workers: workers, Sel: OneShard(s, 3)}, "lanes", extract)
		}
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d shards=3: first failing shard's err = %v, want %q", workers, err, want)
		}
	}
}
