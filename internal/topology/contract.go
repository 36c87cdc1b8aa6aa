package topology

import (
	"slices"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// Contraction is the result of merging sibling groups: the contracted
// graph plus the mapping between old and new node indices. It implements
// the paper's sibling policy: "sibling to sibling: uses a community string
// to create the equivalent of one AS out of multiple sibling ASes".
type Contraction struct {
	// Graph is the contracted topology with no sibling links.
	Graph *Graph
	// NodeMap maps each original node index to its node in Graph.
	NodeMap []int
	// Groups lists the sibling groups that were merged (original indices),
	// each sorted ascending; single-node "groups" are omitted.
	Groups [][]int
}

// rankedRels lists the external relationships from most to least
// preferred by a merged group: customer > peer > provider, because the
// merged organization will use the most preferred of its sessions.
var rankedRels = [3]Rel{RelCustomer, RelPeer, RelProvider}

// relRank is r's position in rankedRels.
func relRank(r Rel) int {
	return slices.Index(rankedRels[:], r)
}

// ContractSiblings merges every connected component of sibling links into a
// single logical AS carrying the lowest member ASN. External relationships
// are unioned; when two members disagree about an external AS the most
// customer-like relationship wins (customer > peer > provider), because the
// merged organization will use the most preferred of its sessions.
func ContractSiblings(g *Graph) (*Contraction, error) {
	n := g.N()
	// Union-find over sibling links.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		nbrs, rels := g.Neighbors(i)
		for k, nb := range nbrs {
			if rels[k] == RelSibling {
				if ra, rb := find(int32(i)), find(nb); ra != rb {
					parent[rb] = ra
				}
			}
		}
	}

	// Representative per group: lowest ASN member. Node indices ascend with
	// ASN, so the lowest index is the lowest ASN, and scanning in index
	// order meets each group's representative first. A group's root
	// records its representative in repOfRoot; size counts members per
	// representative.
	rep := make([]int32, n)
	repOfRoot := make([]int32, n)
	size := make([]int32, n)
	for i := range repOfRoot {
		repOfRoot[i] = -1
	}
	for i := 0; i < n; i++ {
		r := find(int32(i))
		if repOfRoot[r] < 0 {
			repOfRoot[r] = int32(i)
		}
		rep[i] = repOfRoot[r]
		size[rep[i]]++
	}

	// External links between representatives, each link once (from its
	// lower-indexed end), keyed (lo, hi, rank) so that sorting brings every
	// pair's most customer-like relationship to the front of its run.
	// Conflicting relationships between two merged groups are thereby
	// resolved from the lower-indexed group's perspective.
	keys := make([]uint64, 0, g.Edges())
	for i := 0; i < n; i++ {
		nbrs, rels := g.Neighbors(i)
		for k, nb := range nbrs {
			if int(nb) <= i || rels[k] == RelSibling {
				continue
			}
			lo, hi, rel := rep[i], rep[nb], rels[k]
			if lo == hi {
				continue // internal to a merged group
			}
			if lo > hi {
				lo, hi, rel = hi, lo, rel.invert()
			}
			keys = append(keys, linkKey(lo, hi)|uint64(relRank(rel)))
		}
	}
	slices.Sort(keys)
	keys = slices.CompactFunc(keys, func(a, b uint64) bool { return a>>2 == b>>2 })

	// The contracted graph holds the representatives with an external
	// link (marked 0 here, the rest -1), numbered in index (so ASN) order.
	nodeOf := make([]int32, n)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	for _, key := range keys {
		lo, hi, _ := unpackLink(key)
		nodeOf[lo], nodeOf[hi] = 0, 0
	}
	var asns []asn.ASN
	for i := 0; i < n; i++ {
		if nodeOf[i] == 0 {
			nodeOf[i] = int32(len(asns))
			asns = append(asns, g.ASN(i))
		}
	}
	for j, key := range keys {
		lo, hi, _ := unpackLink(key)
		keys[j] = packLink(nodeOf[lo], nodeOf[hi], rankedRels[key&3])
	}
	cg := newGraph(asns, keys)

	// Attributes: the representative keeps its region; address weight sums
	// over the group. A group without external links vanishes from the
	// contracted graph and maps to -1. As when the graph went through a
	// Builder, the weight column exists for any non-empty input and the
	// region column when some representative has a region.
	nodeMap := make([]int, n)
	if n > 0 {
		cg.addrWeight = make([]int64, len(asns))
	}
	for i := 0; i < n; i++ {
		ni := nodeOf[rep[i]]
		nodeMap[i] = int(ni)
		if ni >= 0 {
			cg.addrWeight[ni] += g.AddrWeight(i)
		}
		if int(rep[i]) == i && g.Region(i) >= 0 {
			if cg.region == nil {
				cg.region = make([]int32, len(asns))
				for k := range cg.region {
					cg.region[k] = -1
				}
			}
			if ni >= 0 {
				cg.region[ni] = int32(g.Region(i))
			}
		}
	}

	// Groups: members in index order, groups in representative order. A
	// representative is its group's first member, so it opens the group.
	var groups [][]int
	groupOf := make([]int32, n) // representative -> its index in groups
	for i := 0; i < n; i++ {
		r := rep[i]
		if size[r] < 2 {
			continue
		}
		if int(r) == i {
			groupOf[r] = int32(len(groups))
			groups = append(groups, make([]int, 0, size[r]))
		}
		groups[groupOf[r]] = append(groups[groupOf[r]], i)
	}
	return &Contraction{Graph: cg, NodeMap: nodeMap, Groups: groups}, nil
}
