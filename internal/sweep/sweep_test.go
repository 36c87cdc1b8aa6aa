package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/topology"
)

func testPolicy(t testing.TB, n int) (*core.Policy, *topology.Graph) {
	t.Helper()
	p := topology.DefaultParams(n)
	p.Seed = 1
	g, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	con, err := topology.ContractSiblings(g)
	if err != nil {
		t.Fatal(err)
	}
	c := topology.Classify(con.Graph, topology.ClassifyOptions{})
	pol, err := core.NewPolicy(con.Graph, c.Tier1)
	if err != nil {
		t.Fatal(err)
	}
	return pol, con.Graph
}

// TestMapCoversAllIndices checks every index runs exactly once at several
// worker counts.
func TestMapCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 501
		counts := make([]int32, n)
		err := MapLocal(n, Options{Workers: workers}, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestMapLocalPerWorkerState checks local() runs at most once per worker
// and its value reaches every fn call.
func TestMapLocalPerWorkerState(t *testing.T) {
	var made atomic.Int32
	err := MapLocal(100, Options{Workers: 4},
		func() *int32 { made.Add(1); v := int32(0); return &v },
		func(w *int32, i int) error {
			if w == nil {
				return errors.New("nil worker state")
			}
			*w++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if m := made.Load(); m < 1 || m > 4 {
		t.Errorf("local() ran %d times, want 1..4", m)
	}
}

// TestMapFirstErrorCancels checks the lowest observed error wins and that
// unstarted work is cancelled rather than drained.
func TestMapFirstErrorCancels(t *testing.T) {
	n := 10000
	var ran atomic.Int32
	wantErr := errors.New("boom")
	err := MapLocal(n, Options{Workers: 4}, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		ran.Add(1)
		if i == 5 {
			return fmt.Errorf("item %d: %w", i, wantErr)
		}
		// Give every other item a little duration: with none, the other
		// workers can drain all n items inside the one OS time slice the
		// worker that drew item 5 may lose between returning its error and
		// raising the stop flag (1–2% of runs on a 2-CPU box). A cancelled
		// run still ends after a handful of items.
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped %v", err, wantErr)
	}
	if got := int(ran.Load()); got >= n {
		t.Errorf("cancellation did not stop the run: %d of %d items ran", got, n)
	}
}

// TestMapSerialErrorShortCircuits pins the workers=1 fast path's behavior.
func TestMapSerialErrorShortCircuits(t *testing.T) {
	var ran int
	err := MapLocal(100, Options{Workers: 1}, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		ran++
		if i == 3 {
			return errors.New("stop here")
		}
		return nil
	})
	if err == nil || ran != 4 {
		t.Fatalf("serial path ran %d items (err %v), want 4 with error", ran, err)
	}
}

// runDigest hashes an index-ordered measurement vector.
func runDigest(v []int) [sha256.Size]byte {
	h := sha256.New()
	for _, x := range v {
		binary.Write(h, binary.BigEndian, int64(x)) //nolint:errcheck // hash.Hash cannot fail
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// TestRunDeterministicAcrossWorkerCounts is the kernel's §7 contract: the
// same attack list yields bit-identical index-ordered results at any worker
// count, including across repeated runs at the same count.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pol, g := testPolicy(t, 300)
	n := g.N() - 1
	job := func(i int) (core.Attack, core.Defense) {
		return core.Attack{Target: 0, Attacker: i + 1}, core.Defense{}
	}
	var ref [sha256.Size]byte
	for run, workers := range []int{1, 1, 2, 4, 13} {
		var pollution Collect[int]
		err := RunReduce(pol, n, job, Options{Workers: workers},
			func(_ int, o *core.Outcome) int { return o.PollutedCount() }, &pollution)
		if err != nil {
			t.Fatal(err)
		}
		d := runDigest(pollution.Records)
		if run == 0 {
			ref = d
			continue
		}
		if d != ref {
			t.Errorf("workers=%d: digest %x diverges from reference %x", workers, d[:8], ref[:8])
		}
	}
}

// TestRunFanOut checks one solve feeds every reducer with the same record.
func TestRunFanOut(t *testing.T) {
	pol, g := testPolicy(t, 200)
	n := g.N() - 1
	var solved atomic.Int32
	var a, b Collect[int]
	err := RunReduce(pol, n,
		func(i int) (core.Attack, core.Defense) {
			return core.Attack{Target: 0, Attacker: i + 1}, core.Defense{}
		},
		Options{Workers: 4},
		func(_ int, o *core.Outcome) int { solved.Add(1); return o.PollutedCount() },
		&a, &b)
	if err != nil {
		t.Fatal(err)
	}
	if int(solved.Load()) != n || len(a.Records) != n || runDigest(a.Records) != runDigest(b.Records) {
		t.Fatalf("%d extractions fed %d and %d records to two reducers over %d cells", solved.Load(), len(a.Records), len(b.Records), n)
	}
}

// TestRunSolveErrorPropagates checks a bad attack cancels the run with a
// descriptive error.
func TestRunSolveErrorPropagates(t *testing.T) {
	pol, g := testPolicy(t, 200)
	err := RunReduce(pol, g.N()-1,
		// Index 7 is target==attacker, which the solver rejects.
		func(i int) (core.Attack, core.Defense) {
			a := i + 1
			if i == 7 {
				a = 0
			}
			return core.Attack{Target: 0, Attacker: a}, core.Defense{}
		},
		Options{Workers: 4},
		func(int, *core.Outcome) int { return 0 }, &Collect[int]{})
	if err == nil || !strings.Contains(err.Error(), "matrix cell 7 (group 0 attack 7, attacker 0 → target 0)") {
		t.Fatalf("err = %v, want cell 7's solve error", err)
	}
}
