package hijack

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// These tests pin the repository's bit-identical rerun invariant (see
// DESIGN.md "Determinism & static analysis"): the same seed must produce
// byte-for-byte identical results across runs — including the full engine
// event trace, whose ordering is sensitive to map iteration, and the
// parallel sweep, whose ordering is sensitive to goroutine scheduling.

// traceDigest hashes every field of every event plus the generation count.
func traceDigest(tr *core.Trace) [sha256.Size]byte {
	h := sha256.New()
	binary.Write(h, binary.BigEndian, int64(tr.Generations)) //nolint:errcheck // hash.Hash cannot fail
	for _, e := range tr.Events {
		binary.Write(h, binary.BigEndian, int64(e.Gen)) //nolint:errcheck
		binary.Write(h, binary.BigEndian, e.From)       //nolint:errcheck
		binary.Write(h, binary.BigEndian, e.To)         //nolint:errcheck
		binary.Write(h, binary.BigEndian, e.Origin)     //nolint:errcheck
		binary.Write(h, binary.BigEndian, e.Withdraw)   //nolint:errcheck
		binary.Write(h, binary.BigEndian, e.Accepted)   //nolint:errcheck
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// sweepDigest hashes the full per-attack measurement vectors.
func sweepDigest(r *SweepResult) [sha256.Size]byte {
	h := sha256.New()
	binary.Write(h, binary.BigEndian, int64(r.Target)) //nolint:errcheck // hash.Hash cannot fail
	for _, a := range r.Attackers {
		binary.Write(h, binary.BigEndian, int64(a)) //nolint:errcheck
	}
	for _, p := range r.Pollution {
		binary.Write(h, binary.BigEndian, int64(p)) //nolint:errcheck
	}
	for _, w := range r.WeightFrac {
		binary.Write(h, binary.BigEndian, w) //nolint:errcheck
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// TestEngineTraceDeterminism runs the full message-passing engine twice on
// the same attack and requires byte-identical event traces. A stray map
// iteration anywhere in the engine's per-generation work (the bug class
// bgplint's maporder analyzer exists to catch) shows up here as a digest
// mismatch long before it corrupts a published figure.
func TestEngineTraceDeterminism(t *testing.T) {
	pol, g, c := testWorld(t, 300)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	attacker := c.Tier1[0]
	at := core.Attack{Target: target, Attacker: attacker}

	var digests [2][sha256.Size]byte
	var events int
	for run := 0; run < 2; run++ {
		o, tr, err := core.NewEngine(pol).Run(at, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if o == nil || tr == nil || len(tr.Events) == 0 {
			t.Fatal("engine produced no trace")
		}
		digests[run] = traceDigest(tr)
		events = len(tr.Events)
	}
	if digests[0] != digests[1] {
		t.Errorf("engine trace not reproducible: run digests %x != %x over %d events",
			digests[0][:8], digests[1][:8], events)
	}
}

// TestParallelSweepDeterminism runs the concurrent hijack sweep twice with
// multiple workers and requires byte-identical result vectors, and that
// the parallel result matches the sequential one. Results are written into
// pre-sized slices at the attack's own index, so scheduling order must not
// be observable.
func TestParallelSweepDeterminism(t *testing.T) {
	// Force true parallelism even on single-CPU CI runners: with
	// GOMAXPROCS=1 the workers merely interleave and scheduling races
	// could hide.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pol, g, c := testWorld(t, 300)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Target: target, Attackers: AllNodes(g.N())}

	var digests [2][sha256.Size]byte
	for run := 0; run < 2; run++ {
		res, err := Sweep(pol, cfg, sweep.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		digests[run] = sweepDigest(res)
	}
	if digests[0] != digests[1] {
		t.Errorf("parallel sweep not reproducible: %x != %x", digests[0][:8], digests[1][:8])
	}

	res, err := Sweep(pol, cfg, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := sweepDigest(res); d != digests[0] {
		t.Errorf("parallel sweep diverges from sequential: %x != %x", digests[0][:8], d[:8])
	}
}

// TestSweepAllSerialEquivalence compares the flattened multi-configuration
// kernel run against a hand-rolled single-solver serial loop — the
// pre-kernel reference implementation — and requires byte-identical
// measurement vectors at every worker count. This is the equivalence proof
// for the deployment-ladder refactor: rungs that used to run one at a time
// now load-balance across one pool, and nothing observable may change.
func TestSweepAllSerialEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pol, g, c := testWorld(t, 300)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	blocked := asn.NewIndexSet(g.N())
	for _, i := range c.Tier1 {
		blocked.Add(i)
	}
	cfgs := []SweepConfig{
		{Target: target, Attackers: AllNodes(g.N())},
		{Target: target, Attackers: AllNodes(g.N()), Blocked: blocked},
		{Target: target, Attackers: g.TransitNodes(), SubPrefix: true},
	}

	// Serial reference: one solver, configuration by configuration, attack
	// by attack — exactly the shape every runner had before the kernel.
	totalWeight := g.TotalAddrWeight()
	solver := core.NewSolver(pol)
	refs := make([]*SweepResult, len(cfgs))
	for ci, cfg := range cfgs {
		ref := &SweepResult{Target: cfg.Target}
		for _, a := range cfg.Attackers {
			if a == cfg.Target {
				continue
			}
			o, err := solver.Solve(core.Attack{Target: cfg.Target, Attacker: a, SubPrefix: cfg.SubPrefix}, cfg.Blocked)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			var weight int64
			for v := 0; v < o.N(); v++ {
				if o.Polluted(v) {
					count++
					weight += g.AddrWeight(v)
				}
			}
			ref.Attackers = append(ref.Attackers, a)
			ref.Pollution = append(ref.Pollution, count)
			ref.WeightFrac = append(ref.WeightFrac, float64(weight)/float64(totalWeight))
		}
		refs[ci] = ref
	}

	for _, workers := range []int{1, 4} {
		results, err := SweepAll(pol, cfgs, sweep.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for ci := range cfgs {
			if got, want := sweepDigest(results[ci]), sweepDigest(refs[ci]); got != want {
				t.Errorf("workers=%d cfg=%d: kernel digest %x != serial reference %x",
					workers, ci, got[:8], want[:8])
			}
		}
	}
}

// TestSweepRunDeterminism drives sweep.RunReduce directly from this
// package's workload shape and requires identical extracted-record
// digests at worker counts 1, 4, and GOMAXPROCS.
func TestSweepRunDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pol, g, c := testWorld(t, 300)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	attackers := g.TransitNodes()

	digest := func(workers int) [sha256.Size]byte {
		var polluted sweep.Collect[int64]
		err := sweep.RunReduce(pol, len(attackers),
			func(i int) (core.Attack, core.Defense) {
				return core.Attack{Target: target, Attacker: attackers[i]}, core.Defense{}
			},
			sweep.Options{Workers: workers},
			func(_ int, o *core.Outcome) int64 { return int64(o.PollutedCount()) }, &polluted)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range polluted.Records {
			binary.Write(h, binary.BigEndian, p) //nolint:errcheck // hash.Hash cannot fail
		}
		var out [sha256.Size]byte
		h.Sum(out[:0])
		return out
	}

	want := digest(1)
	for _, workers := range []int{4, 0} {
		if got := digest(workers); got != want {
			t.Errorf("sweep.RunReduce workers=%d digest %x != serial %x", workers, got[:8], want[:8])
		}
	}
}
