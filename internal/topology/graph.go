// Package topology models the AS-level Internet graph the simulation runs
// on: business relationships between ASes (provider/customer, peer, sibling),
// the CAIDA AS-relationship interchange format, structural metrics (degree,
// depth, reach, tier classification), synthetic Internet generation, and the
// graph surgery (re-homing) used by the paper's Section VII experiments.
//
// Simulation code addresses ASes by dense node index in [0, N); the mapping
// to real ASN values is kept at the edges of the system.
package topology

import (
	"fmt"
	"slices"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/xmaps"
)

// Rel describes the role a neighbor plays from a node's own perspective.
type Rel int8

const (
	// RelProvider means the neighbor is this node's transit provider.
	RelProvider Rel = iota + 1
	// RelCustomer means the neighbor is this node's customer.
	RelCustomer
	// RelPeer means a settlement-free peering relationship.
	RelPeer
	// RelSibling means the neighbor belongs to the same organization; the
	// paper merges sibling groups into one logical AS via a community
	// string, which this package implements as graph contraction.
	RelSibling
)

// String returns the relationship name.
func (r Rel) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelSibling:
		return "sibling"
	default:
		return fmt.Sprintf("Rel(%d)", int8(r))
	}
}

// invert returns the relationship as seen from the other endpoint.
func (r Rel) invert() Rel {
	switch r {
	case RelProvider:
		return RelCustomer
	case RelCustomer:
		return RelProvider
	default:
		return r
	}
}

// Graph is an immutable AS-level topology in compressed sparse row form.
// Build one with a Builder, Parse (CAIDA format) or Generate.
type Graph struct {
	asns []asn.ASN // ascending: node indices are in ASN order

	off []int32 // off[i]:off[i+1] bounds node i's adjacency
	nbr []int32 // neighbor node index
	rel []Rel   // relationship from node i's perspective

	region     []int32 // optional region label per node (-1 = unassigned)
	addrWeight []int64 // synthetic announced address-space weight per node
}

// N returns the number of ASes in the graph.
func (g *Graph) N() int { return len(g.asns) }

// Edges returns the number of undirected relationship links.
func (g *Graph) Edges() int { return len(g.nbr) / 2 }

// ASN returns the AS number of node i.
func (g *Graph) ASN(i int) asn.ASN { return g.asns[i] }

// Index returns the node index for an ASN. Node indices ascend with
// ASN, so it binary-searches the ASN column.
func (g *Graph) Index(a asn.ASN) (int, bool) {
	if i, ok := slices.BinarySearch(g.asns, a); ok {
		return i, true
	}
	return 0, false
}

// Degree returns the total number of neighbors of node i.
func (g *Graph) Degree(i int) int { return int(g.off[i+1] - g.off[i]) }

// Neighbors returns node i's adjacency as parallel slices of neighbor
// indices and relationships. The slices alias internal storage and must not
// be modified.
func (g *Graph) Neighbors(i int) ([]int32, []Rel) {
	lo, hi := g.off[i], g.off[i+1]
	return g.nbr[lo:hi], g.rel[lo:hi]
}

// Rel returns the relationship of node j from node i's perspective, or 0 if
// they are not adjacent.
func (g *Graph) Rel(i, j int) Rel {
	nbrs, rels := g.Neighbors(i)
	for k, n := range nbrs {
		if int(n) == j {
			return rels[k]
		}
	}
	return 0
}

// CountRel returns how many neighbors of node i have relationship r.
func (g *Graph) CountRel(i int, r Rel) int {
	_, rels := g.Neighbors(i)
	c := 0
	for _, rr := range rels {
		if rr == r {
			c++
		}
	}
	return c
}

// IsTransit reports whether node i has at least one customer.
func (g *Graph) IsTransit(i int) bool { return g.CountRel(i, RelCustomer) > 0 }

// TransitNodes returns the indices of all ASes with at least one customer —
// the attacker population for the paper's "optimistic" scenario.
func (g *Graph) TransitNodes() []int {
	var out []int
	for i := 0; i < g.N(); i++ {
		if g.IsTransit(i) {
			out = append(out, i)
		}
	}
	return out
}

// Region returns the region label of node i, or -1 when regions are not
// assigned.
func (g *Graph) Region(i int) int {
	if g.region == nil {
		return -1
	}
	return int(g.region[i])
}

// RegionNodes returns all nodes labeled with the given region.
func (g *Graph) RegionNodes(r int) []int {
	var out []int
	for i := 0; i < g.N(); i++ {
		if g.Region(i) == r {
			out = append(out, i)
		}
	}
	return out
}

// AddrWeight returns the synthetic announced-address-space weight of node
// i, used for "fraction of address space polluted" statistics and for
// circle sizes in the polar visualization. Weights default to 1.
func (g *Graph) AddrWeight(i int) int64 {
	if g.addrWeight == nil {
		return 1
	}
	return g.addrWeight[i]
}

// AddrWeights returns every node's address weight indexed by node, for
// bulk accounting loops; nil means every node weighs 1. The slice is the
// graph's own storage: callers must not modify it.
func (g *Graph) AddrWeights() []int64 { return g.addrWeight }

// TotalAddrWeight returns the sum of all address weights.
func (g *Graph) TotalAddrWeight() int64 {
	var total int64
	for i := 0; i < g.N(); i++ {
		total += g.AddrWeight(i)
	}
	return total
}

// Builder accumulates relationship links and produces an immutable Graph.
type Builder struct {
	links      map[uint64]Rel // key packs (low ASN)<<32 | high ASN; rel is high's role from low's perspective
	regions    map[asn.ASN]int32
	addrWeight map[asn.ASN]int64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{links: make(map[uint64]Rel)}
}

// AddLink records a relationship between a and b, where rel is b's role
// from a's perspective (e.g. AddLink(a, b, RelCustomer) makes a a provider
// of b). Self-links are rejected; re-adding the same link with the same
// relationship is a no-op; conflicting relationships are an error.
func (b *Builder) AddLink(a, c asn.ASN, rel Rel) error {
	if a == c {
		return fmt.Errorf("self link on %v", a)
	}
	if rel < RelProvider || rel > RelSibling {
		return fmt.Errorf("link %v-%v: invalid relationship %d", a, c, int8(rel))
	}
	key, r := orderLink(a, c, rel)
	if prev, ok := b.links[key]; ok {
		if prev != r {
			return fmt.Errorf("link %v-%v: conflicting relationships %v and %v", a, c, prev, r)
		}
		return nil
	}
	b.links[key] = r
	return nil
}

// orderLink normalizes a link to the key (low ASN)<<32 | high ASN with the
// relationship expressed as the high node's role from the low node's
// perspective.
func orderLink(a, c asn.ASN, rel Rel) (uint64, Rel) {
	if a > c {
		a, c, rel = c, a, rel.invert()
	}
	return uint64(a.Uint32())<<32 | uint64(c.Uint32()), rel
}

// linkASNs returns the (low, high) ASNs of an orderLink key.
func linkASNs(key uint64) (asn.ASN, asn.ASN) {
	return asn.FromUint32(uint32(key >> 32)), asn.FromUint32(uint32(key))
}

// SetRegion labels an AS with a region identifier.
func (b *Builder) SetRegion(a asn.ASN, region int) {
	if b.regions == nil {
		b.regions = make(map[asn.ASN]int32)
	}
	b.regions[a] = int32(region)
}

// SetAddrWeight records the announced address-space weight of an AS.
func (b *Builder) SetAddrWeight(a asn.ASN, weight int64) {
	if b.addrWeight == nil {
		b.addrWeight = make(map[asn.ASN]int64)
	}
	b.addrWeight[a] = weight
}

// Build assembles the immutable Graph. Node indices are assigned in
// ascending ASN order, so builds are deterministic regardless of insertion
// order.
func (b *Builder) Build() *Graph {
	keys := xmaps.SortedKeys(b.links)
	asns := make([]asn.ASN, 0, 2*len(keys))
	for _, key := range keys {
		a, c := linkASNs(key)
		asns = append(asns, a, c)
	}
	slices.Sort(asns)
	asns = slices.Clone(slices.Compact(asns))

	// Index order is ASN order, so the keys stay sorted once rewritten
	// over node indices.
	links := make([]uint64, len(keys))
	for j, key := range keys {
		a, c := linkASNs(key)
		lo, _ := slices.BinarySearch(asns, a)
		hi, _ := slices.BinarySearch(asns, c)
		links[j] = packLink(int32(lo), int32(hi), b.links[key])
	}
	g := newGraph(asns, links)
	if b.regions != nil {
		g.region = make([]int32, len(asns))
		for i, a := range asns {
			g.region[i] = -1
			if r, ok := b.regions[a]; ok {
				g.region[i] = r
			}
		}
	}
	if b.addrWeight != nil {
		g.addrWeight = make([]int64, len(asns))
		for i, a := range asns {
			g.addrWeight[i] = 1
			if w, ok := b.addrWeight[a]; ok {
				g.addrWeight[i] = w
			}
		}
	}
	return g
}

// linkKey packs the node pair lo < hi into one word: lo in the top 31
// bits, hi in the next 31, leaving the low two bits for a relationship
// code. Ascending words order links by (lo, hi), and a run of equal
// (lo, hi) by code.
func linkKey(lo, hi int32) uint64 {
	return uint64(lo)<<33 | uint64(hi)<<2
}

// packLink is linkKey carrying rel-1 as the code, where rel is hi's role
// from lo's perspective.
func packLink(lo, hi int32, rel Rel) uint64 {
	return linkKey(lo, hi) | uint64(rel-1)
}

// unpackLink is packLink's inverse.
func unpackLink(key uint64) (lo, hi int32, rel Rel) {
	return int32(key >> 33), int32(key>>2) & (1<<31 - 1), Rel(key&3) + 1
}

// newGraph assembles the CSR graph over asns (ascending, one per node)
// from packLink words sorted ascending with no (lo, hi) pair twice.
// Filling in link order leaves every node's adjacency in ascending
// neighbor order: its links to lower nodes come first, sorted by the
// lower end, then its links to higher nodes, sorted by the higher end.
// Regions and address weights are left for the caller.
func newGraph(asns []asn.ASN, links []uint64) *Graph {
	n := len(asns)
	off := make([]int32, n+1)
	for _, key := range links {
		lo, hi, _ := unpackLink(key)
		off[lo+1]++
		off[hi+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	nbr := make([]int32, off[n])
	rel := make([]Rel, off[n])
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for _, key := range links {
		lo, hi, r := unpackLink(key)
		nbr[cursor[lo]], rel[cursor[lo]] = hi, r
		cursor[lo]++
		nbr[cursor[hi]], rel[cursor[hi]] = lo, r.invert()
		cursor[hi]++
	}
	return &Graph{asns: asns, off: off, nbr: nbr, rel: rel}
}

// Clone returns a Builder pre-populated with all of g's links and
// attributes, the starting point for graph surgery such as re-homing.
func Clone(g *Graph) *Builder {
	b := NewBuilder()
	for i := 0; i < g.N(); i++ {
		nbrs, rels := g.Neighbors(i)
		for k, nb := range nbrs {
			if int(nb) > i { // visit each undirected link once
				// rels[k] is the neighbor's role from i's perspective.
				if err := b.AddLink(g.ASN(i), g.ASN(int(nb)), rels[k]); err != nil {
					// Links coming from a valid Graph cannot conflict.
					panic(fmt.Sprintf("clone: %v", err))
				}
			}
		}
		if r := g.Region(i); r >= 0 {
			b.SetRegion(g.ASN(i), r)
		}
		if g.addrWeight != nil {
			b.SetAddrWeight(g.ASN(i), g.AddrWeight(i))
		}
	}
	return b
}

// Rehome replaces node i's provider links with the given new providers,
// returning a new Graph. It is the paper's Section VII "reduce
// vulnerability by re-homing" operation. Other links (customers, peers,
// siblings) are preserved.
func Rehome(g *Graph, i int, newProviders []int) (*Graph, error) {
	b := NewBuilder()
	target := g.ASN(i)
	for v := 0; v < g.N(); v++ {
		nbrs, rels := g.Neighbors(v)
		for k, nb := range nbrs {
			if int(nb) <= v {
				continue
			}
			// Drop the target's existing provider links.
			if v == i && rels[k] == RelProvider {
				continue
			}
			if int(nb) == i && rels[k].invert() == RelProvider {
				continue
			}
			if err := b.AddLink(g.ASN(v), g.ASN(int(nb)), rels[k]); err != nil {
				return nil, fmt.Errorf("rehome: %w", err)
			}
		}
		if r := g.Region(v); r >= 0 {
			b.SetRegion(g.ASN(v), r)
		}
		if g.addrWeight != nil {
			b.SetAddrWeight(g.ASN(v), g.AddrWeight(v))
		}
	}
	for _, p := range newProviders {
		if p == i {
			return nil, fmt.Errorf("rehome: %v cannot provide for itself", target)
		}
		if err := b.AddLink(target, g.ASN(p), RelProvider); err != nil {
			return nil, fmt.Errorf("rehome: %w", err)
		}
	}
	return b.Build(), nil
}
