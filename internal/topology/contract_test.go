package topology

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// contractSiblingsOracle is the original map-based sibling contraction,
// kept verbatim as the reference the dense ContractSiblings must match
// exactly: graph, NodeMap and Groups.
func contractSiblingsOracle(g *Graph) (*Contraction, error) {
	// Union-find over sibling links.
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < g.N(); i++ {
		nbrs, rels := g.Neighbors(i)
		for k, nb := range nbrs {
			if rels[k] == RelSibling {
				union(i, int(nb))
			}
		}
	}

	// Representative per group: lowest ASN member. Node indices ascend with
	// ASN, so the lowest index is the lowest ASN.
	repOf := make(map[int]int) // root -> representative index
	members := make(map[int][]int)
	for i := 0; i < g.N(); i++ {
		r := find(i)
		members[r] = append(members[r], i)
		if cur, ok := repOf[r]; !ok || i < cur {
			repOf[r] = i
		}
	}

	b := NewBuilder()
	repIdx := func(i int) int { return repOf[find(i)] }

	type pair [2]int
	merged := make(map[pair]Rel)
	relRank := func(r Rel) int { // lower = more preferred for the merged AS
		switch r {
		case RelCustomer:
			return 0
		case RelPeer:
			return 1
		default:
			return 2
		}
	}
	for i := 0; i < g.N(); i++ {
		nbrs, rels := g.Neighbors(i)
		ri := repIdx(i)
		for k, nb := range nbrs {
			if rels[k] == RelSibling {
				continue
			}
			rj := repIdx(int(nb))
			if ri == rj {
				continue // internal to a merged group
			}
			lo, hi, rel := ri, rj, rels[k]
			if lo > hi {
				lo, hi, rel = hi, lo, rel.invert()
			}
			key := pair{lo, hi}
			// Conflicting relationships between two merged groups are
			// resolved deterministically from the lower-indexed group's
			// perspective, preferring the most customer-like session.
			if prev, ok := merged[key]; !ok || relRank(rel) < relRank(prev) {
				merged[key] = rel
			}
		}
	}
	keys := make([]pair, 0, len(merged))
	for k := range merged { //bgplint:ignore maporder keys are sorted immediately below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, key := range keys {
		if err := b.AddLink(g.ASN(key[0]), g.ASN(key[1]), merged[key]); err != nil {
			return nil, fmt.Errorf("contract: %w", err)
		}
	}
	// Attributes: the representative keeps its region; address weight sums
	// over the group.
	groupWeight := make(map[int]int64)
	for i := 0; i < g.N(); i++ {
		groupWeight[repIdx(i)] += g.AddrWeight(i)
	}
	//bgplint:ignore maporder keyed per-rep writes; each representative is visited once
	for rep, w := range groupWeight {
		b.SetAddrWeight(g.ASN(rep), w)
		if r := g.Region(rep); r >= 0 {
			b.SetRegion(g.ASN(rep), r)
		}
	}

	cg := b.Build()
	nodeMap := make([]int, g.N())
	for i := 0; i < g.N(); i++ {
		ni, ok := cg.Index(g.ASN(repIdx(i)))
		if !ok {
			// A fully isolated sibling group (no external links) vanishes
			// from the contracted graph; map it to -1.
			ni = -1
		}
		nodeMap[i] = ni
	}
	var groups [][]int
	//bgplint:ignore maporder groups are sorted immediately below
	for root, ms := range members {
		if len(ms) > 1 {
			sort.Ints(ms)
			groups = append(groups, ms)
		}
		_ = root
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return &Contraction{Graph: cg, NodeMap: nodeMap, Groups: groups}, nil
}

// fuzzContractGraph decodes a small sibling-heavy graph from data:
// data[0] picks the node count (2..15), data[1] whether regions and
// address weights are set, and every following byte triple (a, b, r)
// adds the link a–b with relationship 1+r%4. Self links and links that
// conflict with an earlier one are skipped. ASNs are a permutation of
// the node ids, so node index and decode order differ.
func fuzzContractGraph(data []byte) *Graph {
	if len(data) < 2 {
		return NewBuilder().Build()
	}
	n := 2 + int(data[0])%14
	flags := data[1]
	asnOf := func(i int) asn.ASN { return asn.FromUint32(uint32(1 + (i*37)%101)) }
	b := NewBuilder()
	for k := 2; k+2 < len(data); k += 3 {
		a, c := int(data[k])%n, int(data[k+1])%n
		if a == c {
			continue
		}
		_ = b.AddLink(asnOf(a), asnOf(c), Rel(1+data[k+2]%4))
	}
	for i := 0; i < n; i++ {
		if flags&1 != 0 {
			b.SetRegion(asnOf(i), (i+int(flags>>2))%4-1)
		}
		if flags&2 != 0 {
			b.SetAddrWeight(asnOf(i), int64(1+3*i))
		}
	}
	return b.Build()
}

// contractSeeds are hand-built inputs covering the contraction's corner
// cases; each is a fuzzContractGraph encoding.
var contractSeeds = []struct {
	name string
	data []byte
}{
	{"sibling chain and component", []byte{
		8, 3,
		0, 1, 3, 1, 2, 3, 2, 3, 3, // chain 0–1–2–3
		4, 5, 3, 5, 4, 3, // component 4–5 (the link twice)
		6, 0, 1, 6, 4, 1, 7, 2, 0, 7, 5, 2, // customers and a peer
	}},
	{"isolated sibling group", []byte{
		6, 2,
		0, 1, 3, // 0–1 only siblings of each other: NodeMap -1
		2, 3, 1, 3, 4, 1, 4, 5, 2,
	}},
	{"conflicting relationships between groups", []byte{
		6, 1,
		0, 1, 3, 2, 3, 3, // groups {0,1} and {2,3}
		0, 2, 1, // 0 provides 2: customer from {0,1}
		1, 3, 0, // 1 is 3's customer: provider from {0,1}
		3, 0, 2, // 3–0 peer
		4, 1, 2, 5, 3, 0,
	}},
	{"link inside a merged group", []byte{
		5, 0,
		0, 1, 3, 1, 2, 3, 0, 2, 1, // triangle: two siblings and one customer link
		3, 0, 1, 4, 2, 2,
	}},
	{"no siblings", []byte{4, 3, 0, 1, 1, 1, 2, 2, 2, 3, 0}},
	{"empty", []byte{0, 0}},
}

// checkContraction compares ContractSiblings with the oracle on g.
func checkContraction(t *testing.T, g *Graph) {
	t.Helper()
	got, gotErr := ContractSiblings(g)
	want, wantErr := contractSiblingsOracle(g)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("error = %v, oracle error = %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	var gb, wb bytes.Buffer
	writeGraphDump(&gb, got.Graph)
	writeGraphDump(&wb, want.Graph)
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("contracted graph differs from oracle:\n got %s\nwant %s", graphString(got.Graph), graphString(want.Graph))
	}
	if !reflect.DeepEqual(got.NodeMap, want.NodeMap) {
		t.Fatalf("NodeMap = %v, oracle %v", got.NodeMap, want.NodeMap)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("Groups = %v, oracle %v", got.Groups, want.Groups)
	}
}

// graphString renders g's links for failure messages.
func graphString(g *Graph) string {
	var buf bytes.Buffer
	for i := 0; i < g.N(); i++ {
		fmt.Fprintf(&buf, "%v(r%d,w%d):", g.ASN(i), g.Region(i), g.AddrWeight(i))
		nbrs, rels := g.Neighbors(i)
		for k, nb := range nbrs {
			fmt.Fprintf(&buf, " %v/%v", g.ASN(int(nb)), rels[k])
		}
		buf.WriteString("; ")
	}
	return buf.String()
}

func TestContractSiblingsMatchesOracle(t *testing.T) {
	for _, s := range contractSeeds {
		t.Run(s.name, func(t *testing.T) { checkContraction(t, fuzzContractGraph(s.data)) })
	}
	for _, n := range []int{200, 2000} {
		t.Run(fmt.Sprintf("generated%d", n), func(t *testing.T) {
			checkContraction(t, MustGenerate(DefaultParams(n)))
		})
	}
}

// FuzzContractSiblings holds the dense contraction to the map-based
// oracle on small random graphs.
func FuzzContractSiblings(f *testing.F) {
	for _, s := range contractSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkContraction(t, fuzzContractGraph(data))
	})
}
