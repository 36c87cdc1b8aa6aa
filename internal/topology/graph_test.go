package topology

import (
	"bytes"
	"strings"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// tinyGraph builds the small hand-checkable topology used across tests:
//
//	T1a(1) ====peer==== T1b(2)        (tier-1 clique)
//	  |                  |  \
//	 T2(10)             T2b(11)       (tier-2s, peered with each other)
//	  |    \             |
//	 M(20)  S1(30)      M2(21)        (mid transits; M2 sibling of M)
//	  |
//	 S2(31)                           (stub at depth 2)
func tinyBuilder(t *testing.T) *Builder {
	t.Helper()
	b := NewBuilder()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddLink(1, 2, RelPeer))
	must(b.AddLink(1, 10, RelCustomer))
	must(b.AddLink(2, 11, RelCustomer))
	must(b.AddLink(10, 11, RelPeer))
	must(b.AddLink(10, 20, RelCustomer))
	must(b.AddLink(10, 30, RelCustomer))
	must(b.AddLink(11, 21, RelCustomer))
	must(b.AddLink(20, 31, RelCustomer))
	must(b.AddLink(20, 21, RelSibling))
	// Tier-2s need ≥5 customers to classify as tier-2 with defaults; use a
	// lower threshold in tests instead of padding the graph.
	return b
}

func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	return tinyBuilder(t).Build()
}

func nodeOf(t *testing.T, g *Graph, a asn.ASN) int {
	t.Helper()
	i, ok := g.Index(a)
	if !ok {
		t.Fatalf("ASN %v not in graph", a)
	}
	return i
}

func TestBuilderBasics(t *testing.T) {
	g := tinyGraph(t)
	if g.N() != 8 {
		t.Fatalf("N = %d, want 8", g.N())
	}
	if g.Edges() != 9 {
		t.Fatalf("Edges = %d, want 9", g.Edges())
	}
	a1 := nodeOf(t, g, 1)
	a10 := nodeOf(t, g, 10)
	if got := g.Rel(a1, a10); got != RelCustomer {
		t.Errorf("rel(1→10) = %v, want customer", got)
	}
	if got := g.Rel(a10, a1); got != RelProvider {
		t.Errorf("rel(10→1) = %v, want provider", got)
	}
	a2 := nodeOf(t, g, 2)
	if got := g.Rel(a1, a2); got != RelPeer {
		t.Errorf("rel(1→2) = %v, want peer", got)
	}
	if got := g.Rel(a1, nodeOf(t, g, 31)); got != 0 {
		t.Errorf("rel(1→31) = %v, want 0 (not adjacent)", got)
	}
	if g.Degree(a1) != 2 {
		t.Errorf("degree(1) = %d, want 2", g.Degree(a1))
	}
}

func TestBuilderRejectsSelfAndConflicts(t *testing.T) {
	b := NewBuilder()
	if err := b.AddLink(5, 5, RelPeer); err == nil {
		t.Error("self link accepted")
	}
	if err := b.AddLink(1, 2, RelCustomer); err != nil {
		t.Fatal(err)
	}
	// Same link, same meaning (from the other side): no error.
	if err := b.AddLink(2, 1, RelProvider); err != nil {
		t.Errorf("re-adding equivalent link failed: %v", err)
	}
	// Conflicting meaning: error.
	if err := b.AddLink(1, 2, RelPeer); err == nil {
		t.Error("conflicting link accepted")
	}
	if err := b.AddLink(1, 2, Rel(9)); err == nil {
		t.Error("invalid relationship accepted")
	}
}

func TestBuildDeterminism(t *testing.T) {
	g1 := tinyGraph(t)
	var buf1, buf2 bytes.Buffer
	if err := Write(&buf1, g1); err != nil {
		t.Fatal(err)
	}
	// Build again from a builder populated in a different order.
	b := NewBuilder()
	if err := b.AddLink(31, 20, RelProvider); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		a, b asn.ASN
		r    Rel
	}{
		{21, 20, RelSibling}, {21, 11, RelProvider}, {30, 10, RelProvider},
		{20, 10, RelProvider}, {11, 10, RelPeer}, {11, 2, RelProvider},
		{10, 1, RelProvider}, {2, 1, RelPeer},
	} {
		if err := b.AddLink(l.a, l.b, l.r); err != nil {
			t.Fatal(err)
		}
	}
	if err := Write(&buf2, b.Build()); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Errorf("builds differ:\n%s\nvs\n%s", buf1.String(), buf2.String())
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	g := tinyGraph(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.Edges() != g.Edges() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d", g2.N(), g2.Edges(), g.N(), g.Edges())
	}
	for i := 0; i < g.N(); i++ {
		j := nodeOf(t, g2, g.ASN(i))
		nbrs, rels := g.Neighbors(i)
		for k, nb := range nbrs {
			j2 := nodeOf(t, g2, g.ASN(int(nb)))
			if got := g2.Rel(j, j2); got != rels[k] {
				t.Errorf("link %v-%v: rel %v, want %v", g.ASN(i), g.ASN(int(nb)), got, rels[k])
			}
		}
	}
}

func TestParseCAIDAFormat(t *testing.T) {
	in := `# serial-1 style comment
1|10|-1
1|2|0
10|20|-1
20|21|1
`
	g, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 {
		t.Fatalf("N = %d, want 5", g.N())
	}
	if got := g.Rel(nodeOf(t, g, 1), nodeOf(t, g, 10)); got != RelCustomer {
		t.Errorf("-1 should mean as2 is customer, got %v", got)
	}
	if got := g.Rel(nodeOf(t, g, 1), nodeOf(t, g, 2)); got != RelPeer {
		t.Errorf("0 should mean peer, got %v", got)
	}
	if got := g.Rel(nodeOf(t, g, 20), nodeOf(t, g, 21)); got != RelSibling {
		t.Errorf("1 should mean sibling, got %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"1|2",          // missing rel
		"1|2|7",        // unknown code
		"x|2|0",        // bad asn
		"1|y|0",        // bad asn
		"1|2|zero",     // non-numeric rel
		"",             // empty topology
		"# only\n#com", // comments only
	}
	for _, in := range bad {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestClassifyTiny(t *testing.T) {
	g := tinyGraph(t)
	c := Classify(g, ClassifyOptions{Tier2MinCustomers: 1})
	wantT1 := []asn.ASN{1, 2}
	if len(c.Tier1) != len(wantT1) {
		t.Fatalf("Tier1 = %v", c.Tier1)
	}
	for i, a := range wantT1 {
		if g.ASN(c.Tier1[i]) != a {
			t.Errorf("Tier1[%d] = %v, want %v", i, g.ASN(c.Tier1[i]), a)
		}
	}
	t2set := asn.NewSet()
	for _, i := range c.Tier2 {
		t2set.Add(g.ASN(i))
	}
	if !t2set.Contains(10) || !t2set.Contains(11) || len(t2set) != 2 {
		t.Errorf("Tier2 = %v, want {10, 11}", t2set.Sorted())
	}

	// Depth v2 (anchors tier-1 and tier-2).
	wantDepth := map[asn.ASN]int{1: 0, 2: 0, 10: 0, 11: 0, 20: 1, 21: 1, 30: 1, 31: 2}
	for a, d := range wantDepth {
		if got := c.Depth[nodeOf(t, g, a)]; got != d {
			t.Errorf("depth(%v) = %d, want %d", a, got, d)
		}
	}
	// Depth v1 (tier-1 anchors only): one deeper for everything under T2.
	wantV1 := map[asn.ASN]int{1: 0, 2: 0, 10: 1, 11: 1, 20: 2, 21: 2, 30: 2, 31: 3}
	for a, d := range wantV1 {
		if got := c.DepthV1[nodeOf(t, g, a)]; got != d {
			t.Errorf("depthV1(%v) = %d, want %d", a, got, d)
		}
	}
	if c.MaxDepth() != 2 {
		t.Errorf("MaxDepth = %d, want 2", c.MaxDepth())
	}
	if !c.IsTier1(nodeOf(t, g, 1)) || c.IsTier1(nodeOf(t, g, 10)) {
		t.Error("IsTier1 misclassified")
	}
	if !c.IsTier2(nodeOf(t, g, 10)) || c.IsTier2(nodeOf(t, g, 1)) {
		t.Error("IsTier2 misclassified")
	}
}

func TestDepthUnreachable(t *testing.T) {
	b := NewBuilder()
	if err := b.AddLink(1, 2, RelPeer); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLink(3, 4, RelPeer); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	d := DepthFrom(g, []int{nodeOf(t, g, 1)})
	if d[nodeOf(t, g, 3)] != DepthUnreachable {
		t.Error("disconnected node should be DepthUnreachable")
	}
	// Peer links must not propagate depth.
	if d[nodeOf(t, g, 2)] != DepthUnreachable {
		t.Error("depth must only descend provider→customer links")
	}
}

func TestReachAndCone(t *testing.T) {
	g := tinyGraph(t)
	// From stub 31: up 20→10→1, plus sibling not traversed; down from
	// {31,20,10,1}: customers 31, 30, 20, 10. Reachable set excludes self:
	// {20, 10, 1, 30}. Note 21 is reachable only via sibling/peer links.
	if got := Reach(g, nodeOf(t, g, 31)); got != 4 {
		t.Errorf("Reach(31) = %d, want 4", got)
	}
	// Tier-1 AS 1: no providers; cone below = 10, 20, 30, 31.
	if got := Reach(g, nodeOf(t, g, 1)); got != 4 {
		t.Errorf("Reach(1) = %d, want 4", got)
	}
	if got := CustomerCone(g, nodeOf(t, g, 10)); got != 4 {
		t.Errorf("CustomerCone(10) = %d, want 4 (10,20,30,31)", got)
	}
	if got := CustomerCone(g, nodeOf(t, g, 31)); got != 1 {
		t.Errorf("CustomerCone(stub) = %d, want 1", got)
	}
}

func TestNodesByDegree(t *testing.T) {
	g := tinyGraph(t)
	order := NodesByDegree(g)
	if len(order) != g.N() {
		t.Fatalf("order covers %d nodes", len(order))
	}
	for i := 1; i < len(order); i++ {
		if g.Degree(order[i-1]) < g.Degree(order[i]) {
			t.Fatal("NodesByDegree not descending")
		}
	}
	top := NodesWithDegreeAtLeast(g, 3)
	for _, i := range top {
		if g.Degree(i) < 3 {
			t.Errorf("node %v has degree %d < 3", g.ASN(i), g.Degree(i))
		}
	}
}

func TestTransitNodes(t *testing.T) {
	g := tinyGraph(t)
	transit := asn.NewSet()
	for _, i := range g.TransitNodes() {
		transit.Add(g.ASN(i))
	}
	want := asn.NewSet(1, 2, 10, 11, 20)
	got := transit.Sorted()
	wantSorted := want.Sorted()
	if len(got) != len(wantSorted) {
		t.Fatalf("transit = %v, want %v", got, wantSorted)
	}
	for i := range got {
		if got[i] != wantSorted[i] {
			t.Fatalf("transit = %v, want %v", got, wantSorted)
		}
	}
}

func TestRehome(t *testing.T) {
	g := tinyGraph(t)
	c := Classify(g, ClassifyOptions{Tier2MinCustomers: 1})
	stub := nodeOf(t, g, 31)
	if c.Depth[stub] != 2 {
		t.Fatalf("precondition: depth(31) = %d, want 2", c.Depth[stub])
	}
	// Re-home 31 from mid 20 directly to tier-2 10.
	g2, err := Rehome(g, stub, []int{nodeOf(t, g, 10)})
	if err != nil {
		t.Fatal(err)
	}
	c2 := Classify(g2, ClassifyOptions{Tier2MinCustomers: 1})
	stub2 := nodeOf(t, g2, 31)
	if c2.Depth[stub2] != 1 {
		t.Errorf("after rehome depth = %d, want 1", c2.Depth[stub2])
	}
	if g2.Rel(stub2, nodeOf(t, g2, 20)) != 0 {
		t.Error("old provider link survived rehome")
	}
	// Original graph untouched.
	if g.Rel(stub, nodeOf(t, g, 20)) != RelProvider {
		t.Error("rehome mutated the original graph")
	}
	// Self-providing is rejected.
	if _, err := Rehome(g, stub, []int{stub}); err == nil {
		t.Error("self-provider accepted")
	}
}

func TestContractSiblings(t *testing.T) {
	g := tinyGraph(t)
	con, err := ContractSiblings(g)
	if err != nil {
		t.Fatal(err)
	}
	cg := con.Graph
	if cg.N() != g.N()-1 {
		t.Fatalf("contracted N = %d, want %d", cg.N(), g.N()-1)
	}
	// 21 merged into 20 (lower ASN representative).
	if _, ok := cg.Index(21); ok {
		t.Error("AS21 should be merged away")
	}
	m := nodeOf(t, cg, 20)
	// Merged node keeps 20's links and gains 21's provider 11.
	if got := cg.Rel(m, nodeOf(t, cg, 11)); got != RelProvider {
		t.Errorf("merged rel to 11 = %v, want provider", got)
	}
	if got := cg.Rel(m, nodeOf(t, cg, 10)); got != RelProvider {
		t.Errorf("merged rel to 10 = %v, want provider", got)
	}
	if got := cg.Rel(m, nodeOf(t, cg, 31)); got != RelCustomer {
		t.Errorf("merged rel to 31 = %v, want customer", got)
	}
	// NodeMap: both 20 and 21 map to the merged node.
	i20, i21 := nodeOf(t, g, 20), nodeOf(t, g, 21)
	if con.NodeMap[i20] != m || con.NodeMap[i21] != m {
		t.Errorf("NodeMap = %d/%d, want both %d", con.NodeMap[i20], con.NodeMap[i21], m)
	}
	if len(con.Groups) != 1 || len(con.Groups[0]) != 2 {
		t.Errorf("Groups = %v", con.Groups)
	}
	// No sibling links remain.
	for i := 0; i < cg.N(); i++ {
		_, rels := cg.Neighbors(i)
		for _, r := range rels {
			if r == RelSibling {
				t.Fatal("sibling link survived contraction")
			}
		}
	}
	// Address weight summed (defaults 1+1).
	if w := cg.AddrWeight(m); w != 2 {
		t.Errorf("merged weight = %d, want 2", w)
	}
}

func TestFindTarget(t *testing.T) {
	g := tinyGraph(t)
	c := Classify(g, ClassifyOptions{Tier2MinCustomers: 1})

	i, err := FindTarget(g, c, TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.ASN(i) != 31 {
		t.Errorf("depth-2 stub = %v, want AS31", g.ASN(i))
	}
	// Single-homed depth-1 stubs under tier-2: AS21 (sibling of 20, no
	// customers) comes first by ASN, then AS30.
	i, err = FindTarget(g, c, TargetQuery{Depth: 1, Stub: true, MultiHomed: Bool(false), Hierarchy: UnderTier2})
	if err != nil {
		t.Fatal(err)
	}
	if g.ASN(i) != 21 {
		t.Errorf("depth-1 stub = %v, want AS21", g.ASN(i))
	}
	if _, err := FindTarget(g, c, TargetQuery{Depth: 7}); err == nil {
		t.Error("impossible query should fail")
	}
	if got := FindTargets(g, c, TargetQuery{Depth: 1, Stub: true}, 10); len(got) != 2 {
		t.Errorf("FindTargets found %d, want 2 (AS21, AS30)", len(got))
	}
}

func TestParseSerial2FourColumns(t *testing.T) {
	// CAIDA serial-2 appends a source column; it must be ignored.
	in := "1|10|-1|bgp\n1|2|0|mlp\n"
	g, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	if got := g.Rel(nodeOf(t, g, 1), nodeOf(t, g, 10)); got != RelCustomer {
		t.Errorf("serial-2 p2c parsed as %v", got)
	}
}

func TestRehomeMultiProvider(t *testing.T) {
	g := tinyGraph(t)
	stub := nodeOf(t, g, 31)
	// Multi-home 31 to both tier-2s.
	g2, err := Rehome(g, stub, []int{nodeOf(t, g, 10), nodeOf(t, g, 11)})
	if err != nil {
		t.Fatal(err)
	}
	s2 := nodeOf(t, g2, 31)
	if g2.CountRel(s2, RelProvider) != 2 {
		t.Errorf("providers = %d, want 2", g2.CountRel(s2, RelProvider))
	}
	c := Classify(g2, ClassifyOptions{Tier2MinCustomers: 1})
	if c.Depth[s2] != 1 {
		t.Errorf("depth after multi-home = %d, want 1", c.Depth[s2])
	}
}

// TestGraphIndex holds Index to a linear scan of the ASN column on a
// 2,000-AS world and its contraction: every node's ASN maps back to it,
// and every other ASN from 0 to past the largest is rejected.
func TestGraphIndex(t *testing.T) {
	p := DefaultParams(2000)
	p.Seed = 42
	g := MustGenerate(p)
	con, err := ContractSiblings(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{g, con.Graph} {
		scan := func(a asn.ASN) (int, bool) {
			for i := 0; i < g.N(); i++ {
				if g.ASN(i) == a {
					return i, true
				}
			}
			return 0, false
		}
		for a := asn.ASN(0); a <= g.ASN(g.N()-1)+2; a++ {
			i, ok := g.Index(a)
			wi, wok := scan(a)
			if i != wi || ok != wok {
				t.Fatalf("Index(%v) = %d, %v; linear scan %d, %v", a, i, ok, wi, wok)
			}
		}
	}
	if _, ok := (&Graph{}).Index(1); ok {
		t.Error("empty graph found AS1")
	}
}
