package topology

import (
	"slices"
	"sort"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// nodesByDegreeOracle is the comparison sort NodesByDegree replaced,
// kept verbatim: every published deployment set was ranked by it.
func nodesByDegreeOracle(g *Graph) []int {
	nodes := make([]int, g.N())
	for i := range nodes {
		nodes[i] = i
	}
	sort.Slice(nodes, func(a, b int) bool {
		da, db := g.Degree(nodes[a]), g.Degree(nodes[b])
		if da != db {
			return da > db
		}
		return g.ASN(nodes[a]) < g.ASN(nodes[b])
	})
	return nodes
}

// tieGraph is a hand-built graph where most degrees tie: links are added
// out of ASN order so the tie-break, not insertion, sets the order.
func tieGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	for _, l := range []struct {
		a, c asn.ASN
		rel  Rel
	}{
		{90, 10, RelCustomer}, {90, 70, RelCustomer}, {50, 70, RelPeer},
		{30, 10, RelProvider}, {30, 60, RelCustomer}, {80, 60, RelPeer},
		{20, 40, RelCustomer}, {40, 100, RelCustomer}, {55, 100, RelPeer},
		{110, 120, RelCustomer},
	} {
		if err := b.AddLink(l.a, l.c, l.rel); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestNodesByDegreeMatchesOracle holds the counting sort to the
// comparison sort on generated graphs at three scales, contracted or not,
// and on a hand-built graph with degree ties.
func TestNodesByDegreeMatchesOracle(t *testing.T) {
	check := func(name string, g *Graph) {
		t.Helper()
		if got, want := NodesByDegree(g), nodesByDegreeOracle(g); !slices.Equal(got, want) {
			t.Errorf("%s: NodesByDegree differs from the oracle:\n got %v\nwant %v", name, head(got), head(want))
		}
	}
	sizes := []int{200, 2000, 42697}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		p := DefaultParams(n)
		p.Seed = 7
		g, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		check("generated", g)
		con, err := ContractSiblings(g)
		if err != nil {
			t.Fatal(err)
		}
		check("contracted", con.Graph)
	}
	check("ties", tieGraph(t))
	if got := NodesByDegree(&Graph{}); len(got) != 0 {
		t.Errorf("empty graph ranks %v", got)
	}
}

func head(s []int) []int {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}
