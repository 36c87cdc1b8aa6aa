package bgpsim

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md §4). Each benchmark runs the same experiment runner the cmd/
// tools use, on a fixed mid-scale world, and reports the experiment's
// headline metric via b.ReportMetric so `go test -bench` output doubles as
// reproduction evidence. EXPERIMENTS.md records paper-vs-measured values.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/mitigate"
	"github.com/bgpsim/bgpsim/internal/pgbgp"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/sbgp"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

const benchScale = 2000

var (
	benchOnce  sync.Once
	benchWorld *experiments.World
)

func world(b *testing.B) *experiments.World {
	b.Helper()
	benchOnce.Do(func() {
		w, err := experiments.NewWorld(benchScale, 1)
		if err != nil {
			panic(err)
		}
		benchWorld = w
	})
	return benchWorld
}

// BenchmarkFig1PolarPropagation traces one aggressive attack on the
// message engine, generation by generation (paper Figure 1).
func BenchmarkFig1PolarPropagation(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	var polluted int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(w)
		if err != nil {
			b.Fatal(err)
		}
		polluted = res.Polluted
		b.ReportMetric(float64(res.Trace.Generations), "generations")
		b.ReportMetric(100*res.AddrFracLost, "%addr-lost")
	}
	b.ReportMetric(float64(polluted), "polluted")
}

func benchVulnerability(b *testing.B, run func(*experiments.World, experiments.VulnerabilityConfig) (*experiments.VulnerabilityResult, error)) {
	w := world(b)
	cfg := experiments.VulnerabilityConfig{AttackerSample: 400, Seed: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Curves[0], res.Curves[len(res.Curves)-1]
		b.ReportMetric(first.Summary.Mean, "mean-shallow")
		b.ReportMetric(last.Summary.Mean, "mean-deep")
	}
}

// BenchmarkFig2VulnerabilityTier1 sweeps the depth ladder of targets under
// tier-1 hierarchies (paper Figure 2).
func BenchmarkFig2VulnerabilityTier1(b *testing.B) {
	benchVulnerability(b, experiments.Fig2)
}

// BenchmarkFig3VulnerabilityTier2 sweeps targets under tier-2 hierarchies
// (paper Figure 3).
func BenchmarkFig3VulnerabilityTier2(b *testing.B) {
	benchVulnerability(b, experiments.Fig3)
}

// BenchmarkFig4StubFiltering compares all-AS and transit-only attacker
// populations (paper Figure 4).
func BenchmarkFig4StubFiltering(b *testing.B) {
	w := world(b)
	cfg := experiments.VulnerabilityConfig{AttackerSample: 400, Seed: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		p := res.Panels[len(res.Panels)-1]
		if p.AllASes.Summary.Mean > 0 {
			b.ReportMetric(p.Filtered.Summary.Mean/p.AllASes.Summary.Mean, "filtered/all-ratio")
		}
	}
}

func benchDeployment(b *testing.B, run func(*experiments.World, experiments.DeploymentConfig) (*experiments.DeploymentResult, error)) {
	w := world(b)
	cfg := experiments.DeploymentConfig{AttackerSample: 150, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		base := res.Rungs[0].Result.Summary().Mean
		best := res.Rungs[len(res.Rungs)-1].Result.Summary().Mean
		if base > 0 {
			b.ReportMetric(100*best/base, "%residual-pollution")
		}
		b.ReportMetric(float64(res.CrossoverIndex(4)), "crossover-rung")
	}
}

// BenchmarkFig5IncrementalDefenseDepth1 runs the deployment ladder against
// the resistant depth-1 target (paper Figure 5).
func BenchmarkFig5IncrementalDefenseDepth1(b *testing.B) {
	benchDeployment(b, experiments.Fig5)
}

// BenchmarkFig6IncrementalDefenseDepth5 runs the ladder against the deep
// vulnerable target (paper Figure 6).
func BenchmarkFig6IncrementalDefenseDepth5(b *testing.B) {
	benchDeployment(b, experiments.Fig6)
}

// BenchmarkTableResidualAttacks ranks the attacks still potent under the
// strongest deployment (paper Section V tables).
func BenchmarkTableResidualAttacks(b *testing.B) {
	w := world(b)
	cfg := experiments.DeploymentConfig{AttackerSample: 150, Seed: 7, ResidualTop: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Residual) == 0 {
			b.Fatal("no residual attacks")
		}
		b.ReportMetric(float64(res.Residual[0].Pollution), "top-residual-pollution")
	}
}

// BenchmarkFig7DetectorConfigurations evaluates the three probe
// configurations against a shared random workload (paper Figure 7).
func BenchmarkFig7DetectorConfigurations(b *testing.B) {
	w := world(b)
	cfg := experiments.DetectionConfig{Attacks: 800, Seed: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Cases[0].Result.MissRate(), "%miss-tier1")
		b.ReportMetric(100*res.Cases[1].Result.MissRate(), "%miss-bgpmon")
		b.ReportMetric(100*res.Cases[2].Result.MissRate(), "%miss-core")
	}
}

// BenchmarkTableUndetectedAttacks extracts the top-5 undetected attacks
// per configuration (paper Section VI tables).
func BenchmarkTableUndetectedAttacks(b *testing.B) {
	w := world(b)
	cfg := experiments.DetectionConfig{Attacks: 800, Seed: 9, TopMisses: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0
		for _, c := range res.Cases {
			for _, m := range c.TopMisses {
				if m.Pollution > worst {
					worst = m.Pollution
				}
			}
		}
		b.ReportMetric(float64(worst), "largest-undetected")
	}
}

// BenchmarkTableRehoming runs the Section VII re-homing experiment.
func BenchmarkTableRehoming(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.SectionVII(w, experiments.SelfInterestConfig{OutsideSample: 60, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Rehome.Before.InsideFrac, "%inside-before")
		b.ReportMetric(100*res.Rehome.After.InsideFrac, "%inside-after")
	}
}

// BenchmarkTableRegionalFilter runs the Section VII hub-filter experiment.
func BenchmarkTableRegionalFilter(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.SectionVII(w, experiments.SelfInterestConfig{OutsideSample: 60, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Filter.Base.InsideFrac, "%inside-before")
		b.ReportMetric(100*res.Filter.Filtered.InsideFrac, "%inside-filtered")
	}
}

// BenchmarkRIBValidation runs the Section III RouteViews-style validation
// comparison.
func BenchmarkRIBValidation(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ValidationStudy(w, experiments.ValidationConfig{Origins: 5, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Overall.MatchRate(), "%match-rate")
	}
}

// --- Ablations (DESIGN.md §6) ----------------------------------------------

// BenchmarkAblationEngineVsSolver compares the cost of the O(V+E) solver
// against the generation-stepped message engine on identical attacks.
func BenchmarkAblationEngineVsSolver(b *testing.B) {
	w := world(b)
	deep, _ := w.DeepTarget()
	attack := core.Attack{Target: deep, Attacker: w.Class.Tier1[0]}
	b.Run("solver", func(b *testing.B) {
		s := core.NewSolver(w.Policy)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(attack, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		e := core.NewEngine(w.Policy)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.Run(attack, nil, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTier1Policy measures how the tier-1 shortest-path
// override changes detector blind spots (the paper's AS6450 analysis).
func BenchmarkAblationTier1Policy(b *testing.B) {
	w := world(b)
	wOff, err := experiments.WorldFromGraph(cloneGraph(w), core.WithTier1ShortestPath(false))
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.DetectionConfig{Attacks: 500, Seed: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		on, err := experiments.Fig7(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		off, err := experiments.Fig7(wOff, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*on.Cases[0].Result.MissRate(), "%miss-tier1-spf-on")
		b.ReportMetric(100*off.Cases[0].Result.MissRate(), "%miss-tier1-spf-off")
	}
}

// cloneGraph round-trips the world's graph through the builder so a second
// world with different policy options can be built.
func cloneGraph(w *experiments.World) *topology.Graph {
	return topology.Clone(w.Graph).Build()
}

// BenchmarkAblationDepthDefinition contrasts the paper's two depth
// definitions (tier-1 only vs tier-1 ∪ tier-2) by how well each predicts
// vulnerability (Spearman over a sampled sweep matrix).
func BenchmarkAblationDepthDefinition(b *testing.B) {
	w := world(b)
	targets := topology.FindTargets(w.Graph, w.Class, topology.TargetQuery{Depth: 1, Stub: true}, 8)
	deep := topology.FindTargets(w.Graph, w.Class, topology.TargetQuery{Depth: 3, Stub: true}, 8)
	targets = append(targets, deep...)
	attackers := experiments.SampleAttackers(hijack.AllNodes(w.Graph.N()), 200, rand.New(rand.NewSource(3)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var v1Gap, v2Gap float64
		for _, tgt := range targets {
			res, err := hijack.Sweep(w.Policy, hijack.SweepConfig{Target: tgt, Attackers: attackers}, sweep.Options{})
			if err != nil {
				b.Fatal(err)
			}
			mean := res.Summary().Mean
			if w.Class.Depth[tgt] >= 3 {
				v2Gap += mean
			} else {
				v2Gap -= mean
			}
			if w.Class.DepthV1[tgt] >= 3 {
				v1Gap += mean
			} else {
				v1Gap -= mean
			}
		}
		b.ReportMetric(v1Gap, "v1-depth-separation")
		b.ReportMetric(v2Gap, "v2-depth-separation")
	}
}

// BenchmarkAblationDetectionSemantics compares selected-route probes (the
// paper's model) against any-received probes.
func BenchmarkAblationDetectionSemantics(b *testing.B) {
	w := world(b)
	attacks, err := detect.GenerateAttacks(w.Graph.TransitNodes(), 500, rand.New(rand.NewSource(13)))
	if err != nil {
		b.Fatal(err)
	}
	ps := detect.Tier1Probes(w.Class)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel, err := detect.Evaluate(w.Policy, ps, attacks, detect.SelectedRoute, core.Defense{})
		if err != nil {
			b.Fatal(err)
		}
		rec, err := detect.Evaluate(w.Policy, ps, attacks, detect.AnyReceived, core.Defense{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*sel.MissRate(), "%miss-selected")
		b.ReportMetric(100*rec.MissRate(), "%miss-received")
	}
}

// BenchmarkHoleAnalysis runs the paper's future-work study: successful
// attacks that also escape detection, with per-probe blindness reasons.
func BenchmarkHoleAnalysis(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.HoleAnalysis(w, experiments.HoleConfig{Attacks: 600, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Succeeded), "succeeded")
		b.ReportMetric(float64(res.Undetected), "holes")
	}
}

// BenchmarkAblationPGBGPVsDrop compares PGBGP history-based depref with
// drop-style origin validation at the same core deployment — the paper's
// corroboration of the PGBGP "62 core ASes" claim.
func BenchmarkAblationPGBGPVsDrop(b *testing.B) {
	w := world(b)
	deep, _ := w.DeepTarget()
	attackers := experiments.SampleAttackers(w.Graph.TransitNodes(), 60, rand.New(rand.NewSource(1)))
	deployed := topology.NodesByDegree(w.Graph)[:62*benchScale/42697+10]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deprefMean, dropMean, err := pgbgp.CompareWithDrop(w.Policy, deep, attackers, deployed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(deprefMean, "mean-pgbgp")
		b.ReportMetric(dropMean, "mean-drop")
	}
}

// BenchmarkAblationSBGPModes compares S*BGP security-1st/2nd/3rd route
// selection under partial core deployment against the undefended baseline
// (the Lychev et al. section-4 comparison the paper corroborates).
func BenchmarkAblationSBGPModes(b *testing.B) {
	w := world(b)
	deep, _ := w.DeepTarget()
	attackers := experiments.SampleAttackers(w.Graph.TransitNodes(), 40, rand.New(rand.NewSource(1)))
	// A self-interested target deploys together with its upstream chain
	// (without it no secure route to its prefix can exist — the
	// "squeeze"); the core provides the rest of the secure mesh.
	deployed := topology.NodesByDegree(w.Graph)[:40]
	cur := deep
	for w.Class.Depth[cur] > 0 {
		next := -1
		nbrs, rels := w.Graph.Neighbors(cur)
		for k, nb := range nbrs {
			if rels[k] == topology.RelProvider && w.Class.Depth[nb] == w.Class.Depth[cur]-1 {
				next = int(nb)
				break
			}
		}
		if next < 0 {
			break
		}
		deployed = append(deployed, next)
		cur = next
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		means, err := sbgp.CompareModes(w.Policy, deep, attackers, deployed, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(means[core.SecureOff], "mean-off")
		b.ReportMetric(means[core.SecurityFirst], "mean-sec1")
		b.ReportMetric(means[core.SecuritySecond], "mean-sec2")
		b.ReportMetric(means[core.SecurityThird], "mean-sec3")
	}
}

// BenchmarkMitigation runs the reactive sub-prefix counter-announcement
// study, reporting recovered ASes under permissive vs conservative ROA
// MaxLength (the mitigation/validation conflict).
func BenchmarkMitigation(b *testing.B) {
	w := world(b)
	deep, _ := w.DeepTarget()
	filtering := topology.NodesByDegree(w.Graph)[:20]
	victimPrefix := prefix.MustParse("129.82.0.0/16")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		study, err := mitigate.Study(w.Policy, deep, w.Class.Tier1[0], victimPrefix, filtering)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(study.Permissive.RecoveredASes), "recovered-permissive")
		b.ReportMetric(float64(study.Conservative.RecoveredASes), "recovered-maxlen-trap")
	}
}

// --- Micro-benchmarks on the core engine -------------------------------------

// BenchmarkSolverSweep measures raw sweep throughput (attacks/op core of
// every figure).
func BenchmarkSolverSweep(b *testing.B) {
	w := world(b)
	deep, _ := w.DeepTarget()
	attackers := experiments.SampleAttackers(w.Graph.TransitNodes(), 100, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hijack.Sweep(w.Policy, hijack.SweepConfig{Target: deep, Attackers: attackers}, sweep.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepRunWorkers measures the shared sweep kernel's parallel
// scaling: one fixed attack workload at increasing worker counts. The
// results are bit-identical at every count (see internal/sweep), so the
// sub-benchmarks differ only in wall-clock and scheduling overhead.
func BenchmarkSweepRunWorkers(b *testing.B) {
	w := world(b)
	deep, _ := w.DeepTarget()
	attackers := experiments.SampleAttackers(w.Graph.TransitNodes(), 200, rand.New(rand.NewSource(1)))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hijack.Sweep(w.Policy, hijack.SweepConfig{Target: deep, Attackers: attackers}, sweep.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioKinds measures one sweep per attack scenario against
// the same defended deep target: the kinds share the solver's three-stage
// kernel but differ in scenario resolution (forged-origin checks ASPA
// plausibility per attacker; route leaks solve a defense-free baseline
// first), so the sub-benchmarks expose the marginal cost of each kind.
func BenchmarkScenarioKinds(b *testing.B) {
	w := world(b)
	deep, _ := w.DeepTarget()
	attackers := experiments.SampleAttackers(w.Graph.TransitNodes(), 100, rand.New(rand.NewSource(1)))
	set := asn.NewIndexSet(w.Graph.N())
	for _, n := range topology.NodesByDegree(w.Graph)[:62] {
		set.Add(n)
	}
	def := (core.MechROV | core.MechASPA | core.MechPeerlock).Deploy(set)
	for _, kind := range core.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := hijack.Sweep(w.Policy, hijack.SweepConfig{
					Target: deep, Attackers: attackers, Kind: kind, Defense: def,
				}, sweep.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Summary().Mean, "mean-polluted")
			}
		})
	}
}

// BenchmarkSolverWithFilters measures the marginal cost of filter checks.
func BenchmarkSolverWithFilters(b *testing.B) {
	w := world(b)
	deep, _ := w.DeepTarget()
	blocked := asn.NewIndexSet(w.Graph.N())
	for _, n := range topology.NodesByDegree(w.Graph)[:30] {
		blocked.Add(n)
	}
	s := core.NewSolver(w.Policy)
	attack := core.Attack{Target: deep, Attacker: w.Class.Tier1[0]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(attack, blocked); err != nil {
			b.Fatal(err)
		}
	}
}
