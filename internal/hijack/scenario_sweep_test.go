package hijack

import (
	"runtime"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// sweepShards runs cfgs the way a scan CLI's -shard/-merge runs do: each
// shard of shards on its own RunShard, then one MergeShards into the
// results reducer.
func sweepShards(t *testing.T, pol *core.Policy, cfgs []SweepConfig, workers, shards int) []*SweepResult {
	t.Helper()
	w, err := NewWorkload(pol, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*sweep.ShardFile[Record], shards)
	for s := range files {
		opts := sweep.MatrixOptions{Workers: workers, Sel: sweep.OneShard(s, shards)}
		if files[s], err = sweep.RunShard(w.Matrix, opts, "sweep", w.Extract()); err != nil {
			t.Fatalf("workers=%d shard %d/%d: %v", workers, s, shards, err)
		}
	}
	results, red := w.Results()
	if err := sweep.MergeShards(files, "sweep", sweep.MatrixDigest(w.Matrix), red); err != nil {
		t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
	}
	return results
}

// TestForgedOriginWorkerInvariance is the scenario-axis arm of the CI
// digest job: a forged-origin sweep defended by ROV + ASPA must produce
// byte-identical result vectors at workers ∈ {1, 8} × shards ∈ {1, 3},
// the shards run one by one and merged. Forged-origin cells
// exercise the ASPA-plausibility branch of the scenario resolver, which
// the exact-origin determinism tests never touch.
func TestForgedOriginWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pol, g, c := testWorld(t, 300)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	blocked := asn.NewIndexSet(g.N())
	aspa := asn.NewIndexSet(g.N())
	for i := 0; i < g.N(); i += 4 {
		blocked.Add(i)
	}
	for i := 0; i < g.N(); i += 3 {
		aspa.Add(i)
	}
	cfg := SweepConfig{
		Target:    target,
		Attackers: AllNodes(g.N()),
		Kind:      core.KindForgedOrigin,
		Defense:   core.Defense{Blocked: blocked, ASPA: aspa},
	}
	ref, err := Sweep(pol, cfg, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := sweepDigest(ref)
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 3} {
			res := sweepShards(t, pol, []SweepConfig{cfg}, workers, shards)
			if d := sweepDigest(res[0]); d != want {
				t.Errorf("workers=%d shards=%d: forged-origin sweep digest %x diverges from the serial run's %x",
					workers, shards, d[:8], want[:8])
			}
		}
	}
}

// TestScenarioLaneEquivalence holds the matrix runtime's lane batches to a
// serial loop of scalar solves on the shapes the scenario studies sweep:
// every attack kind, defended by ROV + ASPA + Peerlock and not, 300
// attackers a configuration (so a configuration is several full batches and
// a ragged one), at workers ∈ {1, 8} × shards ∈ {1, 3}, where the shard
// cuts fall inside batches. Shards run one by one and merge.
func TestScenarioLaneEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pol, g, c := testWorld(t, 300)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	set := asn.NewIndexSet(g.N())
	for i := 0; i < g.N(); i += 4 {
		set.Add(i)
	}
	var cfgs []SweepConfig
	for _, kind := range core.Kinds() {
		cfgs = append(cfgs,
			SweepConfig{Target: target, Attackers: AllNodes(g.N()), Kind: kind},
			SweepConfig{Target: target, Attackers: AllNodes(g.N()), Kind: kind,
				Defense: (core.MechROV | core.MechASPA | core.MechPeerlock).Deploy(set)})
	}

	totalWeight := g.TotalAddrWeight()
	solver := core.NewSolver(pol)
	refs := make([]*SweepResult, len(cfgs))
	for ci, cfg := range cfgs {
		ref := &SweepResult{Target: cfg.Target}
		for _, a := range cfg.Attackers {
			if a == cfg.Target {
				continue
			}
			o, err := solver.SolveDefense(core.Attack{Target: cfg.Target, Attacker: a, Kind: cfg.Kind}, cfg.Defense)
			if err != nil {
				t.Fatal(err)
			}
			rec := Measure(g, totalWeight, o)
			ref.Attackers = append(ref.Attackers, a)
			ref.Pollution = append(ref.Pollution, rec.Pollution)
			ref.WeightFrac = append(ref.WeightFrac, rec.WeightFrac)
		}
		refs[ci] = ref
	}

	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 3} {
			results := sweepShards(t, pol, cfgs, workers, shards)
			for ci := range cfgs {
				if got, want := sweepDigest(results[ci]), sweepDigest(refs[ci]); got != want {
					t.Errorf("workers=%d shards=%d cfg=%d (%v): digest %x != serial reference %x",
						workers, shards, ci, cfgs[ci].Kind, got[:8], want[:8])
				}
			}
		}
	}
}
