package sbgp

import (
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/topology"
)

func testWorld(t *testing.T, n int) (*core.Policy, *topology.Graph, *topology.Classification) {
	t.Helper()
	g := topology.MustGenerate(topology.DefaultParams(n))
	con, err := topology.ContractSiblings(g)
	if err != nil {
		t.Fatal(err)
	}
	c := topology.Classify(con.Graph, topology.ClassifyOptions{})
	pol, err := core.NewPolicy(con.Graph, c.Tier1)
	if err != nil {
		t.Fatal(err)
	}
	return pol, con.Graph, c
}

func TestEvaluateValidation(t *testing.T) {
	pol, _, _ := testWorld(t, 200)
	if _, err := Evaluate(pol, -1, nil, nil, core.SecurityFirst); err == nil {
		t.Error("bad target accepted")
	}
	if _, err := Evaluate(pol, 0, []int{1}, []int{pol.N()}, core.SecurityFirst); err == nil {
		t.Error("bad deployed node accepted")
	}
}

// TestSecurityOffMatchesBaseline: mode off must equal a plain engine run.
// Security off runs on the staged solver, so this is the reference test
// holding that swap to the message engine: every transit attacker against
// a depth-1 and a depth-2 stub, through Evaluate and through CompareModes.
func TestSecurityOffMatchesBaseline(t *testing.T) {
	pol, g, c := testWorld(t, 500)
	attackers := g.TransitNodes()
	deployed := topology.NodesByDegree(g)[:20]
	plain := core.NewEngine(pol)
	for _, depth := range []int{1, 2} {
		target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: depth, Stub: true})
		if err != nil {
			t.Fatal(err)
		}
		off, err := Evaluate(pol, target, attackers, deployed, core.SecureOff)
		if err != nil {
			t.Fatal(err)
		}
		if len(off.Attackers) != len(attackers) {
			t.Fatalf("depth %d: %d attackers evaluated, want %d", depth, len(off.Attackers), len(attackers))
		}
		sum := 0
		for i, a := range off.Attackers {
			o, _, err := plain.Run(core.Attack{Target: target, Attacker: a}, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if o.PollutedCount() != off.Pollution[i] {
				t.Fatalf("depth %d: mode-off diverges from baseline at attacker %d: %d vs %d",
					depth, a, off.Pollution[i], o.PollutedCount())
			}
			sum += o.PollutedCount()
		}
		means, err := CompareModes(pol, target, attackers, deployed, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(sum) / float64(len(off.Attackers)); means[core.SecureOff] != want {
			t.Errorf("depth %d: CompareModes mode-off mean %v, engine mean %v", depth, means[core.SecureOff], want)
		}
	}
}

// TestSecurityModeOrdering reproduces the Lychev et al. section-4 shape
// that the paper corroborates: against origin hijacks, ranking security
// higher in route selection can only help —
// security-1st ≤ security-2nd ≤ security-3rd ≤ off (in mean pollution).
func TestSecurityModeOrdering(t *testing.T) {
	pol, g, c := testWorld(t, 900)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	attackers := g.TransitNodes()
	if len(attackers) > 50 {
		attackers = attackers[:50]
	}
	deployed := topology.NodesByDegree(g)[:40]
	means, err := CompareModes(pol, target, attackers, deployed, 0)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	if means[core.SecurityFirst] > means[core.SecuritySecond]+eps {
		t.Errorf("security-1st (%.1f) worse than security-2nd (%.1f)",
			means[core.SecurityFirst], means[core.SecuritySecond])
	}
	if means[core.SecuritySecond] > means[core.SecurityThird]+eps {
		t.Errorf("security-2nd (%.1f) worse than security-3rd (%.1f)",
			means[core.SecuritySecond], means[core.SecurityThird])
	}
	if means[core.SecurityThird] > means[core.SecureOff]+eps {
		t.Errorf("security-3rd (%.1f) worse than off (%.1f)",
			means[core.SecurityThird], means[core.SecureOff])
	}
	// And security-1st at a meaningful core deployment must actually beat
	// the undefended baseline.
	if means[core.SecurityFirst] >= means[core.SecureOff] {
		t.Errorf("security-1st (%.1f) no better than undefended (%.1f)",
			means[core.SecurityFirst], means[core.SecureOff])
	}
}

// TestSecureChainRequiresFullPath: a secure route exists only along fully
// deployed paths — breaking one hop of the chain removes the protection.
func TestSecureChainRequiresFullPath(t *testing.T) {
	// Hand-built chain: T1(1) ── M(10) ── target(20); attacker(30) under T1.
	b := topology.NewBuilder()
	for _, l := range []struct {
		a, c asn.ASN
		r    topology.Rel
	}{
		{1, 10, topology.RelCustomer},
		{10, 20, topology.RelCustomer},
		{1, 30, topology.RelCustomer},
		{1, 2, topology.RelPeer},
		{2, 40, topology.RelCustomer}, // observer stub under the other tier-1
	} {
		if err := b.AddLink(l.a, l.c, l.r); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	c := topology.Classify(g, topology.ClassifyOptions{Tier2MinCustomers: 1})
	pol, err := core.NewPolicy(g, c.Tier1, core.WithTier1ShortestPath(false))
	if err != nil {
		t.Fatal(err)
	}
	ix := func(a asn.ASN) int {
		i, ok := g.Index(a)
		if !ok {
			t.Fatalf("missing AS%v", a)
		}
		return i
	}
	target, attacker, observerT1 := ix(20), ix(30), ix(2)

	// Fully deployed chain {target, M, T1a, T1b}: T1b prefers the secure
	// (longer) route to the target over the shorter bogus customer route
	// under security-1st... both routes reach T1b as peer/customer:
	// T1a offers the target's secure route (customer-class at T1a), the
	// attacker's insecure route is also a customer route of T1a — T1a
	// itself picks by length: bogus (dist 1) beats legit (dist 2) when
	// insecure. With security-1st at T1a, the secure route wins there and
	// everything below T1b stays clean.
	full := []int{target, ix(10), ix(1), observerT1}
	res, err := Evaluate(pol, target, []int{attacker}, full, core.SecurityFirst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pollution[0] != 0 {
		t.Errorf("fully deployed chain: pollution = %d, want 0", res.Pollution[0])
	}

	// Break the chain at M(10): no secure route can exist anywhere, so
	// the outcome reverts to the undefended one.
	broken := []int{target, ix(1), observerT1}
	resBroken, err := Evaluate(pol, target, []int{attacker}, broken, core.SecurityFirst)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := Evaluate(pol, target, []int{attacker}, nil, core.SecureOff)
	if err != nil {
		t.Fatal(err)
	}
	if resBroken.Pollution[0] != resOff.Pollution[0] {
		t.Errorf("broken chain should equal undefended: %d vs %d",
			resBroken.Pollution[0], resOff.Pollution[0])
	}
	if resBroken.Pollution[0] == 0 {
		t.Error("broken chain cannot protect anyone")
	}
}

func TestModeName(t *testing.T) {
	names := map[core.SecureMode]string{
		core.SecureOff:      "security off",
		core.SecurityFirst:  "security 1st",
		core.SecuritySecond: "security 2nd",
		core.SecurityThird:  "security 3rd",
	}
	for m, want := range names {
		if got := ModeName(m); got != want {
			t.Errorf("ModeName(%d) = %q, want %q", m, got, want)
		}
	}
}
