package sweep

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// testMatrix builds a ≥2-policy × ≥100-attack workload on the shared test
// topology: the default policy and a perturbed-tie-break policy each solve
// every attacker against a fixed target.
func testMatrix(t testing.TB) (Matrix, int) {
	t.Helper()
	pol, g := testPolicy(t, 300)
	polHigh, err := core.NewPolicy(g, tier1Of(t, g), core.WithPreferHighNextHop(true))
	if err != nil {
		t.Fatal(err)
	}
	pols := []*core.Policy{pol, polHigh}
	n := g.N() - 1
	if n < 100 {
		t.Fatalf("test topology too small: %d attacks per policy", n)
	}
	m := Matrix{
		Groups: len(pols),
		Size:   func(int) int { return n },
		Policy: func(g int) *core.Policy { return pols[g] },
		Job: func(_, k int) (core.Attack, core.Defense) {
			return core.Attack{Target: 0, Attacker: k + 1}, core.Defense{}
		},
	}
	return m, m.Cells()
}

// tier1Of re-derives the tier-1 clique for a generated test graph.
func tier1Of(t testing.TB, g *topology.Graph) []int {
	t.Helper()
	c := topology.Classify(g, topology.ClassifyOptions{})
	return c.Tier1
}

// mergeShards runs every shard of m on its own RunShard and merges them
// into reds — the path the scan CLIs' -shard/-merge runs take.
func mergeShards[T any](m Matrix, workers, shards int, extract func(g, k int, o *core.Outcome) T, reds ...Reducer[T]) error {
	files := make([]*ShardFile[T], shards)
	for s := range files {
		f, err := RunShard(m, MatrixOptions{Workers: workers, Sel: OneShard(s, shards)}, "matrix-test", extract)
		if err != nil {
			return fmt.Errorf("shard %d/%d: %w", s, shards, err)
		}
		files[s] = f
	}
	return MergeShards(files, "matrix-test", MatrixDigest(m), reds...)
}

// TestMatrixShardMergeWorkerInvariance is the acceptance criterion: a
// ≥2-policy × ≥100-attack matrix produces byte-identical digests whole and
// as shards ∈ {1, 3} run one by one and merged, at workers ∈ {1, 8}.
func TestMatrixShardMergeWorkerInvariance(t *testing.T) {
	m, cells := testMatrix(t)
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }

	var ref [sha256.Size]byte
	first := true
	check := func(name string, run func(red Reducer[int])) {
		t.Helper()
		got := make([]int, 0, cells)
		lastIdx := -1
		run(ReduceFunc[int]{EmitFn: func(idx int, v int) {
			if idx != lastIdx+1 {
				t.Fatalf("%s: Emit(%d) after %d, want in-order", name, idx, lastIdx)
			}
			lastIdx = idx
			got = append(got, v)
		}})
		if len(got) != cells {
			t.Fatalf("%s: %d records, want %d", name, len(got), cells)
		}
		d := runDigest(got)
		if first {
			ref, first = d, false
		} else if d != ref {
			t.Errorf("%s: digest %x diverges from reference %x", name, d[:8], ref[:8])
		}
	}
	for _, workers := range []int{1, 8} {
		check(fmt.Sprintf("workers=%d whole", workers), func(red Reducer[int]) {
			if err := RunMatrixReduce(m, MatrixOptions{Workers: workers}, extract, red); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		for _, shards := range []int{1, 3} {
			check(fmt.Sprintf("workers=%d shards=%d", workers, shards), func(red Reducer[int]) {
				if err := mergeShards(m, workers, shards, extract, red); err != nil {
					t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
				}
			})
		}
	}
}

// TestMatrixShardMergeShuffled runs each shard as its own partial run —
// completing in shuffled order — and checks the merged stream matches the
// unsharded run bit-for-bit through a JSON round-trip.
func TestMatrixShardMergeShuffled(t *testing.T) {
	m, cells := testMatrix(t)
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }

	want := make([]int, 0, cells)
	if err := RunMatrixReduce(m, MatrixOptions{Workers: 4}, extract, ReduceFunc[int]{
		EmitFn: func(_ int, v int) { want = append(want, v) },
	}); err != nil {
		t.Fatal(err)
	}

	const shards = 3
	files := make([]*ShardFile[int], 0, shards)
	// Run shards out of order — 2, 0, 1 — to model independent processes
	// finishing whenever they finish.
	for _, s := range []int{2, 0, 1} {
		f, err := RunShard(m, MatrixOptions{Workers: 2, Sel: OneShard(s, shards)}, "matrix-test", extract)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		// Round-trip through the on-disk encoding.
		var buf bytes.Buffer
		if err := WriteShardFile(&buf, f); err != nil {
			t.Fatalf("shard %d: write: %v", s, err)
		}
		rt, err := ReadShardFile[int](&buf)
		if err != nil {
			t.Fatalf("shard %d: read: %v", s, err)
		}
		files = append(files, rt)
	}

	got := make([]int, 0, cells)
	if err := MergeShards(files, "matrix-test", MatrixDigest(m), ReduceFunc[int]{
		EmitFn: func(_ int, v int) { got = append(got, v) },
	}); err != nil {
		t.Fatal(err)
	}
	if runDigest(got) != runDigest(want) {
		t.Fatal("merged shard stream diverges from unsharded run")
	}
}

// TestMergeShardsValidation checks the tiling guards: wrong experiment,
// overlap, gap, and missing tail are all rejected.
func TestMergeShardsValidation(t *testing.T) {
	mk := func(lo, hi int) *ShardFile[int] {
		recs := make([]int, hi-lo)
		return &ShardFile[int]{Experiment: "e", Cells: 10, Groups: 1, Shards: 2, CellLo: lo, CellHi: hi, MatrixDigest: "d", Records: recs}
	}
	sink := ReduceFunc[int]{EmitFn: func(int, int) {}}

	cases := []struct {
		name  string
		files []*ShardFile[int]
		exp   string
		want  string
	}{
		{"wrong experiment", []*ShardFile[int]{mk(0, 5), mk(5, 10)}, "other", "experiment"},
		{"overlap", []*ShardFile[int]{mk(0, 6), mk(5, 10)}, "e", "overlap"},
		{"gap", []*ShardFile[int]{mk(0, 4), mk(5, 10)}, "e", "missing cells"},
		{"missing tail", []*ShardFile[int]{mk(0, 5)}, "e", "missing cells"},
		{"none", nil, "e", "no shard files"},
	}
	for _, tc := range cases {
		err := MergeShards(tc.files, tc.exp, "d", sink)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	ok := []*ShardFile[int]{mk(5, 10), mk(0, 5)} // shuffled but valid
	if err := MergeShards(ok, "e", "d", sink); err != nil {
		t.Errorf("shuffled valid tiling rejected: %v", err)
	}
}

// TestRunReduceMatchesRun pins the streaming single-policy path — one
// group on one target, so the runtime solves it in lane batches — against
// a loop of scalar solves, one fresh solver per cell.
func TestRunReduceMatchesRun(t *testing.T) {
	pol, g := testPolicy(t, 300)
	n := g.N() - 1
	job := func(i int) (core.Attack, core.Defense) {
		return core.Attack{Target: 0, Attacker: i + 1}, core.Defense{}
	}

	scalar := make([]int, n)
	for i := range scalar {
		at, def := job(i)
		o, err := core.NewSolver(pol).SolveDefense(at, def)
		if err != nil {
			t.Fatal(err)
		}
		scalar[i] = o.PollutedCount()
	}

	for _, workers := range []int{1, 4} {
		streamed := make([]int, 0, n)
		err := RunReduce(pol, n, job, Options{Workers: workers},
			func(_ int, o *core.Outcome) int { return o.PollutedCount() },
			ReduceFunc[int]{EmitFn: func(_ int, v int) { streamed = append(streamed, v) }})
		if err != nil {
			t.Fatal(err)
		}
		if runDigest(streamed) != runDigest(scalar) {
			t.Errorf("workers=%d: streamed digest diverges from the scalar reference", workers)
		}
	}
}

// TestDeterminismMatrixErrorReleasesFullWindow: a failing cell at the
// head of the window cancels the run without deadlocking the Puts blocked
// behind it. Every cell is its own group, so batches are singletons and
// the window holds defaultWindow(workers) records; there are more cells
// than that. The head cell is the bad one, and its Policy callback holds
// its solve until the other workers have filled the window, so the failure
// lands while their Puts wait on a head that never arrives.
func TestDeterminismMatrixErrorReleasesFullWindow(t *testing.T) {
	pol, g := testPolicy(t, 200)
	const workers = 4
	window := defaultWindow(workers)
	n := 4 * window
	if g.N() <= n {
		t.Fatalf("test topology too small: %d nodes for %d cells", g.N(), n)
	}
	// Workers other than the head's put cells 1..window-1, then each
	// extracts one more cell and blocks on its Put.
	full := int32(window - 1 + workers - 1)
	var extracted atomic.Int32
	filled := make(chan struct{})
	m := Matrix{
		Groups: n,
		Size:   func(int) int { return 1 },
		Policy: func(g int) *core.Policy {
			if g == 0 {
				select {
				case <-filled:
				case <-time.After(10 * time.Second):
					t.Error("the other workers never filled the window")
				}
			}
			return pol
		},
		Job: func(g, _ int) (core.Attack, core.Defense) {
			// Cell 0 is target==attacker, which the solver rejects.
			return core.Attack{Target: 0, Attacker: g}, core.Defense{}
		},
	}
	extract := func(_, _ int, o *core.Outcome) int {
		if extracted.Add(1) == full {
			close(filled)
		}
		return o.PollutedCount()
	}
	done := make(chan error, 1)
	go func() {
		done <- RunMatrixReduce(m, MatrixOptions{Workers: workers}, extract, ReduceFunc[int]{EmitFn: func(int, int) {}})
	}()
	select {
	case err := <-done:
		const want = "matrix cell 0 (group 0 attack 0, attacker 0 → target 0): solve: target and attacker are the same node 0"
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("matrix error path deadlocked")
	}
}

// TestWindowInOrderBounded drives a window from concurrent producers and
// checks delivery order, exactly-once coverage, and the capacity bound.
func TestWindowInOrderBounded(t *testing.T) {
	const n, capacity = 1000, 8
	got := make([]int, 0, n)
	last := -1
	win := NewWindow(0, n, capacity, func(idx, v int) {
		if idx != last+1 || v != idx*3 {
			t.Errorf("delivered (%d,%d) after head %d", idx, v, last)
		}
		last = idx
		got = append(got, v)
	})
	var next int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := int(next)
		next++
		return i
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := take()
				if i >= n {
					return
				}
				win.Put(i, i*3)
			}
		}()
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	if p := win.Peak(); p > capacity {
		t.Errorf("window buffered %d items, capacity %d", p, capacity)
	}
}

// TestWindowPutBlocksUntilHead checks a Put past the head+capacity bound
// blocks, then completes once the head arrives; Abort releases blocked
// Puts too.
func TestWindowPutBlocksUntilHead(t *testing.T) {
	win := NewWindow(0, 4, 2, func(int, int) {})
	released := make(chan struct{})
	go func() {
		win.Put(2, 0) // head=0, capacity 2 → must wait for index 0
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("Put(2) completed with head at 0 and capacity 2")
	case <-time.After(50 * time.Millisecond):
	}
	win.Put(0, 0) // head advances to 1; slot frees
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("Put(2) still blocked after head advanced")
	}

	win2 := NewWindow(0, 4, 1, func(int, int) {})
	released2 := make(chan struct{})
	go func() {
		win2.Put(3, 0)
		close(released2)
	}()
	time.Sleep(20 * time.Millisecond)
	win2.Abort()
	select {
	case <-released2:
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not release blocked Put")
	}
}

// TestGroupsReducer checks per-group flushing, buffer reuse, and
// zero-size group handling.
func TestGroupsReducer(t *testing.T) {
	sizes := []int{0, 3, 0, 2, 0}
	type flushed struct {
		g    int
		vals []int
	}
	var flushes []flushed
	finished := false
	r := Groups[int](sizes, func(g int, vals []int) {
		cp := append([]int(nil), vals...)
		flushes = append(flushes, flushed{g, cp})
	}, func() { finished = true })
	for i, v := range []int{10, 11, 12, 20, 21} {
		r.Emit(i, v)
	}
	r.Finish()
	if !finished {
		t.Error("finish hook did not run")
	}
	want := []flushed{
		{0, []int{}}, {1, []int{10, 11, 12}}, {2, []int{}}, {3, []int{20, 21}}, {4, []int{}},
	}
	if len(flushes) != len(want) {
		t.Fatalf("%d flushes, want %d: %+v", len(flushes), len(want), flushes)
	}
	for i, f := range flushes {
		if f.g != want[i].g || len(f.vals) != len(want[i].vals) {
			t.Fatalf("flush %d = %+v, want %+v", i, f, want[i])
		}
		for j := range f.vals {
			if f.vals[j] != want[i].vals[j] {
				t.Fatalf("flush %d = %+v, want %+v", i, f, want[i])
			}
		}
	}
}

// TestMapReduce checks the non-solver streaming path: in-order delivery
// and error propagation through a tiny window without deadlock.
func TestMapReduce(t *testing.T) {
	n := 500
	sum := 0
	err := MapReduce(n, Options{Workers: 4},
		func(i int) (int, error) { return i, nil },
		ReduceFunc[int]{EmitFn: func(idx, v int) {
			if idx != v {
				t.Fatalf("Emit(%d, %d)", idx, v)
			}
			sum += v
		}})
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}

	wantErr := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		done <- MapReduce(10000, Options{Workers: 8},
			func(i int) (int, error) {
				if i == 37 {
					return 0, wantErr
				}
				return i, nil
			},
			ReduceFunc[int]{EmitFn: func(int, int) {}})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, wantErr) {
			t.Fatalf("err = %v, want %v", err, wantErr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("MapReduce error path deadlocked")
	}
}

// TestParseShardSel covers the CLI selector grammar.
func TestParseShardSel(t *testing.T) {
	if s, err := ParseShardSel(""); err != nil || s.Shards != 0 {
		t.Errorf("empty selector: %+v, %v", s, err)
	}
	if s, err := ParseShardSel("2/5"); err != nil || s.Shard != 2 || s.Shards != 5 {
		t.Errorf("2/5: %+v, %v", s, err)
	}
	for _, bad := range []string{"2", "a/b", "-1/4", "4/4", "1/0", "1/-2"} {
		if _, err := ParseShardSel(bad); err == nil {
			t.Errorf("ParseShardSel(%q) accepted", bad)
		}
	}
	if got := OneShard(2, 5).String(); got != "2/5" {
		t.Errorf("String() = %q", got)
	}
}

// TestShardRangeTiles checks the ranges tile exactly for awkward splits.
func TestShardRangeTiles(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{10, 3}, {7, 7}, {5, 8}, {0, 3}, {1000, 1}} {
		want := 0
		for s := 0; s < tc.shards; s++ {
			lo, hi := ShardRange(tc.n, s, tc.shards)
			if lo != want || hi < lo {
				t.Fatalf("n=%d shards=%d: shard %d = [%d,%d), want lo %d", tc.n, tc.shards, s, lo, hi, want)
			}
			want = hi
		}
		if want != tc.n {
			t.Fatalf("n=%d shards=%d: ranges end at %d", tc.n, tc.shards, want)
		}
	}
}

// TestShardSelSpan: the zero selection is the whole matrix as shard 0 of
// 1, a shard selection is its ShardRange, an out-of-range one is refused,
// and RunMatrixReduce refuses any sharded selection.
func TestShardSelSpan(t *testing.T) {
	if sh, n, lo, hi, err := (ShardSel{}).span(10); err != nil || sh != 0 || n != 1 || lo != 0 || hi != 10 {
		t.Errorf("zero selection: shard %d/%d [%d,%d) %v, want 0/1 [0,10)", sh, n, lo, hi, err)
	}
	if sh, n, lo, hi, err := OneShard(2, 3).span(10); err != nil || sh != 2 || n != 3 || lo != 6 || hi != 10 {
		t.Errorf("2/3: shard %d/%d [%d,%d) %v, want 2/3 [6,10)", sh, n, lo, hi, err)
	}
	for _, bad := range []ShardSel{OneShard(3, 3), OneShard(-1, 3), {Shard: 1}} {
		if _, _, _, _, err := bad.span(10); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	m, _ := testMatrix(t)
	err := RunMatrixReduce(m, MatrixOptions{Sel: OneShard(0, 2)}, func(_, _ int, o *core.Outcome) int { return 0 }, &Collect[int]{})
	if err == nil || !strings.Contains(err.Error(), "RunShard") {
		t.Errorf("RunMatrixReduce over shard 0/2: err = %v, want a refusal pointing at RunShard", err)
	}
}
