package topology

import "sort"

// DepthUnreachable marks nodes with no provider path to any anchor AS.
const DepthUnreachable = -1

// Classification holds the structural metrics the paper's analysis is
// built on: which ASes are tier-1 and tier-2, and each AS's depth under
// both of the paper's depth definitions.
type Classification struct {
	// Tier1 are the top-of-hierarchy ASes: no providers, densely peered
	// with each other (the paper's topology has 17).
	Tier1 []int
	// Tier2 are large transit ASes directly customered to a tier-1. The
	// paper redefines depth against tier-1 ∪ tier-2 after observing that
	// stubs of large tier-2s behave like depth-1 ASes.
	Tier2 []int
	// DepthV1 is hops to the nearest tier-1 (the paper's first definition).
	DepthV1 []int
	// Depth is hops to the nearest tier-1 or tier-2 (the paper's final
	// definition, used everywhere after Section IV).
	Depth []int

	tier []int8 // per node: 1 tier-1, 2 tier-2, 0 neither
}

// IsTier1 reports whether node i is classified tier-1.
func (c *Classification) IsTier1(i int) bool { return c.tier[i] == 1 }

// IsTier2 reports whether node i is classified tier-2.
func (c *Classification) IsTier2(i int) bool { return c.tier[i] == 2 }

// MaxDepth returns the largest finite depth value.
func (c *Classification) MaxDepth() int {
	m := 0
	for _, d := range c.Depth {
		if d > m {
			m = d
		}
	}
	return m
}

// ClassifyOptions tunes tier inference. The zero value gives the defaults
// described on each field.
type ClassifyOptions struct {
	// Tier1PeerFraction is the fraction of other provider-free ASes a
	// provider-free AS must peer with to count as tier-1. Default 0.5.
	Tier1PeerFraction float64
	// Tier2MinCustomers is the minimum customer count for a direct
	// customer of a tier-1 to count as a (large) tier-2. Default 5.
	Tier2MinCustomers int
}

func (o ClassifyOptions) withDefaults() ClassifyOptions {
	if o.Tier1PeerFraction == 0 {
		o.Tier1PeerFraction = 0.5
	}
	if o.Tier2MinCustomers == 0 {
		o.Tier2MinCustomers = 5
	}
	return o
}

// Classify infers tier-1 and tier-2 sets and computes both depth metrics.
//
// Tier-1 inference: candidates are ASes with no providers; a candidate
// qualifies if it peers with at least Tier1PeerFraction of the other
// candidates (tier-1s form a near-clique). If no candidate qualifies (tiny
// or degenerate graphs) the highest-degree provider-free AS is used.
func Classify(g *Graph, opts ClassifyOptions) *Classification {
	opts = opts.withDefaults()

	var candidates []int
	for i := 0; i < g.N(); i++ {
		if g.CountRel(i, RelProvider) == 0 {
			candidates = append(candidates, i)
		}
	}
	candSet := make(map[int]bool, len(candidates))
	for _, i := range candidates {
		candSet[i] = true
	}

	var tier1 []int
	for _, i := range candidates {
		nbrs, rels := g.Neighbors(i)
		peers := 0
		for k, nb := range nbrs {
			if rels[k] == RelPeer && candSet[int(nb)] {
				peers++
			}
		}
		need := int(opts.Tier1PeerFraction * float64(len(candidates)-1))
		if len(candidates) == 1 || peers >= need && peers > 0 {
			tier1 = append(tier1, i)
		}
	}
	if len(tier1) == 0 && len(candidates) > 0 {
		best := candidates[0]
		for _, i := range candidates[1:] {
			if g.Degree(i) > g.Degree(best) {
				best = i
			}
		}
		tier1 = []int{best}
	}
	sort.Ints(tier1)
	tier := make([]int8, g.N())
	for _, i := range tier1 {
		tier[i] = 1
	}

	// Tier-2: direct customers of a tier-1 that are substantial transits.
	var tier2 []int
	for i := 0; i < g.N(); i++ {
		if tier[i] == 1 {
			continue
		}
		nbrs, rels := g.Neighbors(i)
		hasT1Provider := false
		for k, nb := range nbrs {
			if rels[k] == RelProvider && tier[nb] == 1 {
				hasT1Provider = true
				break
			}
		}
		if hasT1Provider && g.CountRel(i, RelCustomer) >= opts.Tier2MinCustomers {
			tier2 = append(tier2, i)
			tier[i] = 2
		}
	}

	c := &Classification{Tier1: tier1, Tier2: tier2, tier: tier}
	c.DepthV1 = DepthFrom(g, tier1)
	anchors := make([]int, 0, len(tier1)+len(tier2))
	anchors = append(anchors, tier1...)
	anchors = append(anchors, tier2...)
	c.Depth = DepthFrom(g, anchors)
	return c
}

// DepthFrom computes, for every node, the minimum number of provider hops
// to reach any anchor (each anchor has depth 0; its direct customers depth
// 1, and so on). Nodes with no provider chain to an anchor get
// DepthUnreachable.
func DepthFrom(g *Graph, anchors []int) []int {
	depth := make([]int, g.N())
	for i := range depth {
		depth[i] = DepthUnreachable
	}
	queue := make([]int32, 0, g.N())
	for _, a := range anchors {
		if depth[a] == DepthUnreachable {
			depth[a] = 0
			queue = append(queue, int32(a))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		nbrs, rels := g.Neighbors(int(v))
		for k, nb := range nbrs {
			// Descend provider→customer links: nb is v's customer.
			if rels[k] == RelCustomer && depth[nb] == DepthUnreachable {
				depth[nb] = depth[v] + 1
				queue = append(queue, nb)
			}
		}
	}
	return depth
}

// Reach computes the paper's reach metric for node i: the number of other
// ASes reachable along valley-free paths that use no peer links — i.e. up
// through any chain of providers, then down through customer cones.
func Reach(g *Graph, i int) int {
	visitedUp := make(map[int]bool)
	up := []int{i}
	visitedUp[i] = true
	for head := 0; head < len(up); head++ {
		v := up[head]
		nbrs, rels := g.Neighbors(v)
		for k, nb := range nbrs {
			if rels[k] == RelProvider && !visitedUp[int(nb)] {
				visitedUp[int(nb)] = true
				up = append(up, int(nb))
			}
		}
	}
	// Descend customer links from everything on the up-paths.
	visited := make(map[int]bool, len(visitedUp))
	queue := make([]int, 0, len(up))
	for _, v := range up {
		visited[v] = true
		queue = append(queue, v)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		nbrs, rels := g.Neighbors(v)
		for k, nb := range nbrs {
			if rels[k] == RelCustomer && !visited[int(nb)] {
				visited[int(nb)] = true
				queue = append(queue, int(nb))
			}
		}
	}
	return len(visited) - 1 // exclude self
}

// CustomerCone returns the size of node i's customer cone (itself plus all
// ASes reachable by repeatedly following customer links).
func CustomerCone(g *Graph, i int) int {
	visited := make(map[int]bool)
	queue := []int{i}
	visited[i] = true
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		nbrs, rels := g.Neighbors(v)
		for k, nb := range nbrs {
			if rels[k] == RelCustomer && !visited[int(nb)] {
				visited[int(nb)] = true
				queue = append(queue, int(nb))
			}
		}
	}
	return len(visited)
}

// NodesByDegree returns all node indices sorted by descending degree
// (ties broken by ascending ASN for determinism). It is a stable counting
// sort over degree buckets fed in index order, O(n + max degree): index
// order is ASN order, since newGraph — behind every constructor — takes
// its ASNs ascending.
func NodesByDegree(g *Graph) []int {
	n := g.N()
	maxDeg := 0
	for i := 0; i < n; i++ {
		maxDeg = max(maxDeg, g.Degree(i))
	}
	// Bucket b holds degree maxDeg-b; start[b] is its next free slot.
	start := make([]int, maxDeg+2)
	for i := 0; i < n; i++ {
		start[maxDeg-g.Degree(i)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	nodes := make([]int, n)
	for i := 0; i < n; i++ {
		b := maxDeg - g.Degree(i)
		nodes[start[b]] = i
		start[b]++
	}
	return nodes
}

// NodesWithDegreeAtLeast returns all nodes with degree ≥ min, in the same
// order as NodesByDegree. This is the paper's "filter N ASes with degree ≥
// D" deployment-set constructor.
func NodesWithDegreeAtLeast(g *Graph, min int) []int {
	var out []int
	for _, i := range NodesByDegree(g) {
		if g.Degree(i) < min {
			break
		}
		out = append(out, i)
	}
	return out
}
