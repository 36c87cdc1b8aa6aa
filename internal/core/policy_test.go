package core

import (
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// buildPolicy constructs a Policy over a topology built from links, with
// tier-1s inferred by Classify.
func buildPolicy(t *testing.T, links []link, opts ...PolicyOption) (*Policy, *topology.Graph) {
	t.Helper()
	g := buildGraph(t, links)
	c := topology.Classify(g, topology.ClassifyOptions{Tier2MinCustomers: 1})
	pol, err := NewPolicy(g, c.Tier1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return pol, g
}

// buildGraph builds the topology the links describe.
func buildGraph(t *testing.T, links []link) *topology.Graph {
	t.Helper()
	b := topology.NewBuilder()
	for _, l := range links {
		if err := b.AddLink(l.a, l.b, l.rel); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

type link struct {
	a, b asn.ASN
	rel  topology.Rel
}

// diamond is the canonical valley-free test topology:
//
//	   T1a(1) == T1b(2)       tier-1 peers
//	   /    \       \
//	A(10)   B(11)   C(12)     customers of tier-1s; A peers with B
//	 |        |       |
//	a(20)    b(21)   c(22)    stubs
var diamond = []link{
	{1, 2, topology.RelPeer},
	{1, 10, topology.RelCustomer},
	{1, 11, topology.RelCustomer},
	{2, 12, topology.RelCustomer},
	{10, 11, topology.RelPeer},
	{10, 20, topology.RelCustomer},
	{11, 21, topology.RelCustomer},
	{12, 22, topology.RelCustomer},
}

func nodeIx(t *testing.T, g *topology.Graph, a asn.ASN) int {
	t.Helper()
	i, ok := g.Index(a)
	if !ok {
		t.Fatalf("ASN %v missing", a)
	}
	return i
}

func TestNewPolicyRejectsSiblings(t *testing.T) {
	b := topology.NewBuilder()
	if err := b.AddLink(1, 2, topology.RelSibling); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLink(1, 3, topology.RelCustomer); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if _, err := NewPolicy(g, nil); err == nil {
		t.Fatal("sibling graph accepted; contraction must be explicit")
	}
}

func TestNewPolicyRejectsBadTier1(t *testing.T) {
	b := topology.NewBuilder()
	if err := b.AddLink(1, 2, topology.RelCustomer); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if _, err := NewPolicy(g, []int{5}); err == nil {
		t.Fatal("out-of-range tier-1 index accepted")
	}
}

func TestPolicyAdjacency(t *testing.T) {
	pol, g := buildPolicy(t, diamond)
	a := nodeIx(t, g, 10)
	if got := len(pol.Providers(a)); got != 1 {
		t.Errorf("providers(A) = %d, want 1", got)
	}
	if got := len(pol.Customers(a)); got != 1 {
		t.Errorf("customers(A) = %d, want 1", got)
	}
	if got := len(pol.Peers(a)); got != 1 {
		t.Errorf("peers(A) = %d, want 1", got)
	}
	t1 := nodeIx(t, g, 1)
	if !pol.IsTier1(t1) {
		t.Error("AS1 should be tier-1")
	}
	if pol.IsTier1(a) {
		t.Error("AS10 should not be tier-1")
	}
}

func TestExportRules(t *testing.T) {
	cases := []struct {
		class RouteClass
		rel   topology.Rel
		want  bool
	}{
		{ClassOrigin, topology.RelProvider, true},
		{ClassOrigin, topology.RelPeer, true},
		{ClassOrigin, topology.RelCustomer, true},
		{ClassCustomer, topology.RelProvider, true},
		{ClassCustomer, topology.RelPeer, true},
		{ClassCustomer, topology.RelCustomer, true},
		{ClassPeer, topology.RelProvider, false},
		{ClassPeer, topology.RelPeer, false},
		{ClassPeer, topology.RelCustomer, true},
		{ClassProvider, topology.RelProvider, false},
		{ClassProvider, topology.RelPeer, false},
		{ClassProvider, topology.RelCustomer, true},
		{ClassNone, topology.RelCustomer, false},
	}
	for _, c := range cases {
		if got := exportsTo(c.class, c.rel); got != c.want {
			t.Errorf("exportsTo(%v, %v) = %v, want %v", c.class, c.rel, got, c.want)
		}
	}
}

func TestBetterOrdering(t *testing.T) {
	pol, g := buildPolicy(t, diamond)
	v := nodeIx(t, g, 10) // non-tier-1
	// Customer beats peer regardless of length.
	if !pol.better(v, ClassCustomer, 9, 5, ClassPeer, 1, 1) {
		t.Error("customer class must beat peer class at non-tier-1")
	}
	// Shorter wins within a class.
	if !pol.better(v, ClassPeer, 2, 5, ClassPeer, 3, 1) {
		t.Error("shorter path must win within class")
	}
	// Next-hop id breaks exact ties.
	if !pol.better(v, ClassPeer, 2, 1, ClassPeer, 2, 5) {
		t.Error("lower next-hop must win ties")
	}
	if pol.better(v, ClassPeer, 2, 5, ClassPeer, 2, 1) {
		t.Error("higher next-hop must lose ties")
	}
	// Anything beats no route.
	if !pol.better(v, ClassProvider, 9, 5, ClassNone, 0, -1) {
		t.Error("a route must beat no route")
	}
	if pol.better(v, ClassNone, 0, -1, ClassProvider, 9, 5) {
		t.Error("no route must not beat a route")
	}

	t1 := nodeIx(t, g, 1) // tier-1: shortest path first
	if !pol.better(t1, ClassPeer, 1, 5, ClassCustomer, 2, 1) {
		t.Error("tier-1 must prefer shorter peer route over longer customer route")
	}
	if pol.better(t1, ClassPeer, 2, 1, ClassCustomer, 2, 5) {
		t.Error("tier-1 equal-length tie must fall back to class preference")
	}
}

func TestBetterOrderingTier1Disabled(t *testing.T) {
	pol, g := buildPolicy(t, diamond, WithTier1ShortestPath(false))
	t1 := nodeIx(t, g, 1)
	if pol.better(t1, ClassPeer, 1, 5, ClassCustomer, 2, 1) {
		t.Error("with SPF disabled, tier-1 must use class preference")
	}
	if pol.Tier1ShortestPath() {
		t.Error("Tier1ShortestPath should report false")
	}
}

// TestPolicyIdleList: AcquireSolver hands back released solvers, most
// recent first, builds a new one only when none is idle, and refuses a
// solver built over another policy.
func TestPolicyIdleList(t *testing.T) {
	pol, _ := buildPolicy(t, diamond)
	a, b := pol.AcquireSolver(), pol.AcquireSolver()
	if a == b {
		t.Fatal("two acquires returned one solver")
	}
	pol.ReleaseSolver(a)
	pol.ReleaseSolver(b)
	if got := pol.AcquireSolver(); got != b {
		t.Error("the last solver released is not the first handed out")
	}
	if got := pol.AcquireSolver(); got != a {
		t.Error("the first solver released is not handed out second")
	}
	if c := pol.AcquireSolver(); c == a || c == b {
		t.Error("an empty idle list handed out a solver in use")
	}

	other, _ := buildPolicy(t, diamond)
	defer func() {
		if recover() == nil {
			t.Error("releasing another policy's solver did not panic")
		}
	}()
	pol.ReleaseSolver(NewSolver(other))
}
