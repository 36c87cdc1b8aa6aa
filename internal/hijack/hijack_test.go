package hijack

import (
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// testWorld builds a mid-sized synthetic topology with policy and
// classification for sweep tests.
func testWorld(t *testing.T, n int) (*core.Policy, *topology.Graph, *topology.Classification) {
	t.Helper()
	g := topology.MustGenerate(topology.DefaultParams(n))
	con, err := topology.ContractSiblings(g)
	if err != nil {
		t.Fatal(err)
	}
	cg := con.Graph
	c := topology.Classify(cg, topology.ClassifyOptions{})
	pol, err := core.NewPolicy(cg, c.Tier1)
	if err != nil {
		t.Fatal(err)
	}
	return pol, cg, c
}

func TestSweepValidation(t *testing.T) {
	pol, _, _ := testWorld(t, 200)
	if _, err := Sweep(pol, SweepConfig{Target: -1}, sweep.Options{}); err == nil {
		t.Error("bad target accepted")
	}
	if _, err := Sweep(pol, SweepConfig{Target: 0, Attackers: []int{pol.N()}}, sweep.Options{}); err == nil {
		t.Error("bad attacker accepted")
	}
}

func TestSweepBasics(t *testing.T) {
	pol, g, c := testWorld(t, 400)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(pol, SweepConfig{Target: target, Attackers: AllNodes(g.N())}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attackers) != g.N()-1 {
		t.Fatalf("attacks = %d, want %d (target skipped)", len(res.Attackers), g.N()-1)
	}
	sum := res.Summary()
	if sum.Mean <= 0 {
		t.Error("mean pollution should be positive on an undefended graph")
	}
	if sum.Max >= g.N() {
		t.Error("pollution cannot reach all nodes (attacker+target excluded)")
	}
	for i, p := range res.Pollution {
		if p < 0 || p > g.N()-2 {
			t.Fatalf("attack %d pollution %d out of range", i, p)
		}
		if res.WeightFrac[i] < 0 || res.WeightFrac[i] > 1 {
			t.Fatalf("attack %d weight fraction %v out of [0,1]", i, res.WeightFrac[i])
		}
	}
	// CCDF starts with all attacks and decreases.
	ccdf := res.CCDF()
	if len(ccdf) == 0 || ccdf[0].Count != len(res.Attackers) {
		t.Errorf("CCDF head = %+v", ccdf[:min(3, len(ccdf))])
	}
	if res.CountAttacksAtLeast(0) != len(res.Attackers) {
		t.Error("CountAttacksAtLeast(0) should count everything")
	}
}

func TestSweepWorkersAgree(t *testing.T) {
	pol, g, c := testWorld(t, 300)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 1, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Target: target, Attackers: AllNodes(g.N())}
	seq, err := Sweep(pol, cfg, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(pol, cfg, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Pollution {
		if seq.Pollution[i] != par.Pollution[i] {
			t.Fatalf("parallel sweep diverged at %d: %d vs %d", i, seq.Pollution[i], par.Pollution[i])
		}
	}
}

// TestSweepDepthMonotonicity reproduces the paper's central Section IV
// finding on the synthetic topology: deeper targets are (on average) more
// vulnerable than depth-1 targets.
func TestSweepDepthMonotonicity(t *testing.T) {
	pol, g, c := testWorld(t, 1200)
	shallow, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 1, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	deepQ := topology.TargetQuery{Depth: 3, Stub: true}
	deep, err := topology.FindTarget(g, c, deepQ)
	if err != nil {
		t.Skip("no depth-3 stub in this topology")
	}
	attackers := AllNodes(g.N())
	rs, err := Sweep(pol, SweepConfig{Target: shallow, Attackers: attackers}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Sweep(pol, SweepConfig{Target: deep, Attackers: attackers}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Summary().Mean <= rs.Summary().Mean {
		t.Errorf("depth-3 target mean pollution %.1f not worse than depth-1 %.1f",
			rd.Summary().Mean, rs.Summary().Mean)
	}
}

// TestSweepBlockedReducesPollution: filtering at high-degree ASes must
// reduce pollution and can never increase it on any single attack.
func TestSweepBlockedReducesPollution(t *testing.T) {
	pol, g, c := testWorld(t, 800)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	attackers := g.TransitNodes()
	base, err := Sweep(pol, SweepConfig{Target: target, Attackers: attackers}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocked := asn.NewIndexSet(g.N())
	for _, i := range topology.NodesByDegree(g)[:40] {
		blocked.Add(i)
	}
	def, err := Sweep(pol, SweepConfig{Target: target, Attackers: attackers, Blocked: blocked}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Summary().Mean >= base.Summary().Mean {
		t.Errorf("filtering did not reduce mean pollution: %.1f vs %.1f",
			def.Summary().Mean, base.Summary().Mean)
	}
	// A blocked set can reroute individual ASes but a blocked node itself
	// must never be polluted.
	for k, a := range def.Attackers {
		_ = a
		_ = k
	}
	// Spot-check one attack outcome directly.
	s := core.NewSolver(pol)
	o, err := s.Solve(core.Attack{Target: target, Attacker: attackers[0]}, blocked)
	if err != nil {
		t.Fatal(err)
	}
	members := blocked.Members(nil)
	for _, b := range members {
		if o.Polluted(b) {
			t.Fatalf("blocked node %d polluted", b)
		}
	}
}

func TestTopAttackers(t *testing.T) {
	pol, g, c := testWorld(t, 400)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 1, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(pol, SweepConfig{Target: target, Attackers: AllNodes(g.N())}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopAttackers(5, g, c)
	if len(top) != 5 {
		t.Fatalf("top = %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Pollution > top[i-1].Pollution {
			t.Fatal("TopAttackers not sorted by pollution")
		}
	}
	// The strongest attack must match the sweep max.
	if top[0].Pollution != res.Summary().Max {
		t.Errorf("top pollution %d != max %d", top[0].Pollution, res.Summary().Max)
	}
	// Asking for more than available truncates.
	all := res.TopAttackers(10*g.N(), g, c)
	if len(all) != len(res.Attackers) {
		t.Errorf("oversized k returned %d, want %d", len(all), len(res.Attackers))
	}
}

// TestAggressivenessDepthCorrelation verifies the paper's negative
// depth/aggressiveness correlation on synthetic data.
func TestAggressivenessDepthCorrelation(t *testing.T) {
	pol, g, c := testWorld(t, 1000)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(pol, SweepConfig{Target: target, Attackers: AllNodes(g.N())}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rho, err := res.AggressivenessDepthCorrelation(c)
	if err != nil {
		t.Fatal(err)
	}
	if rho >= 0 {
		t.Errorf("aggressiveness/depth correlation = %.3f, want negative", rho)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
