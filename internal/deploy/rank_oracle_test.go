package deploy

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// depthRankedOracle is the comparison sort DepthRanked replaced, kept
// verbatim: every published depth-ranked deployment set came from it.
func depthRankedOracle(g *topology.Graph, c *topology.Classification, k int) Strategy {
	nodes := append([]int(nil), g.TransitNodes()...)
	sort.SliceStable(nodes, func(i, j int) bool {
		di, dj := c.Depth[nodes[i]], c.Depth[nodes[j]]
		// Unreachable (depth -1) sorts after every finite depth.
		if di == topology.DepthUnreachable {
			di = int(^uint(0) >> 1)
		}
		if dj == topology.DepthUnreachable {
			dj = int(^uint(0) >> 1)
		}
		if di != dj {
			return di < dj
		}
		if gi, gj := g.Degree(nodes[i]), g.Degree(nodes[j]); gi != gj {
			return gi > gj
		}
		return nodes[i] < nodes[j]
	})
	if k > len(nodes) {
		k = len(nodes)
	}
	return Strategy{
		Name:  fmt.Sprintf("%d shallowest transit ASes", k),
		Nodes: nodes[:k],
	}
}

// checkDepthRanked compares DepthRanked with the oracle at every k from
// 0 to past the transit count.
func checkDepthRanked(t *testing.T, name string, g *topology.Graph, c *topology.Classification) {
	t.Helper()
	n := len(g.TransitNodes())
	for _, k := range []int{0, 1, n / 3, n, n + 5} {
		got, want := DepthRanked(g, c, k), depthRankedOracle(g, c, k)
		if got.Name != want.Name || !slices.Equal(got.Nodes, want.Nodes) {
			t.Errorf("%s k=%d: DepthRanked %q %v, oracle %q %v", name, k, got.Name, got.Nodes, want.Name, want.Nodes)
		}
	}
}

// TestDepthRankedMatchesOracle holds the counting-sort DepthRanked to the
// comparison sort on generated worlds at three scales and on a hand-built
// graph with depth and degree ties and unreachable transit ASes.
func TestDepthRankedMatchesOracle(t *testing.T) {
	sizes := []int{200, 2000, 42697}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		_, g, c := testWorld(t, n)
		checkDepthRanked(t, fmt.Sprintf("n=%d", n), g, c)
		if got, want := TopDegree(g, 50), topology.NodesByDegree(g)[:50]; !slices.Equal(got.Nodes, want) {
			t.Errorf("n=%d: TopDegree(50) = %v, want %v", n, got.Nodes, want)
		}
	}

	// Tier-1 1 over transit 2, 3 and 4 (depth 1, degree ties among them),
	// 5 under 2 and 3 (depth 2); 6 and 7 form a provider island no
	// tier-1 reaches (unreachable, one of each degree), 8 another.
	b := topology.NewBuilder()
	for _, l := range [][2]asn.ASN{
		{1, 2}, {1, 3}, {1, 4}, {2, 5}, {3, 5}, {2, 20}, {3, 21}, {4, 22}, {4, 23},
		{5, 24}, {6, 7}, {6, 25}, {7, 26}, {8, 27}, {8, 28},
	} {
		if err := b.AddLink(l[0], l[1], topology.RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	c := topology.Classify(g, topology.ClassifyOptions{})
	unreachable := 0
	for _, v := range g.TransitNodes() {
		if c.Depth[v] == topology.DepthUnreachable {
			unreachable++
		}
	}
	if unreachable < 2 {
		t.Fatalf("hand-built graph has %d unreachable transit ASes, want ≥ 2 (depths %v)", unreachable, c.Depth)
	}
	checkDepthRanked(t, "hand-built", g, c)

	// The same graph under a hand-set depth vector: every transit AS at
	// one depth except two unreachable ones, so degree and index decide.
	flat := *c
	flat.Depth = make([]int, g.N())
	for i := range flat.Depth {
		flat.Depth[i] = 3
	}
	for _, a := range []asn.ASN{1, 5} {
		i, _ := g.Index(a)
		flat.Depth[i] = topology.DepthUnreachable
	}
	checkDepthRanked(t, "flat depths", g, &flat)
}
