package topology

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestDefaultParamsScaling(t *testing.T) {
	p := DefaultParams(42697)
	if p.Tier1 != 17 {
		t.Errorf("paper-scale Tier1 = %d, want 17", p.Tier1)
	}
	transit := p.Tier1 + p.Tier2 + p.Mid + p.Small
	frac := float64(transit) / float64(p.Total())
	if frac < 0.10 || frac > 0.20 {
		t.Errorf("transit fraction = %.3f, want ≈ 0.147", frac)
	}
	small := DefaultParams(10)
	if small.Total() < 40 {
		t.Errorf("minimum params too small: %d", small.Total())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestGenParamsValidate(t *testing.T) {
	bad := []GenParams{
		{Tier1: 0, Regions: 1},
		{Tier1: 1, Regions: 0},
		{Tier1: 1, Regions: 1, Stub: -1},
		{Tier1: 1, Regions: 1, MultihomeFraction: 1.5},
		{Tier1: 1, Regions: 1, ChainFraction: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams(800)
	g1 := MustGenerate(p)
	g2 := MustGenerate(p)
	var b1, b2 bytes.Buffer
	if err := Write(&b1, g1); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same seed produced different graphs")
	}
	p.Seed = 2
	var b3 bytes.Buffer
	if err := Write(&b3, MustGenerate(p)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGenerateStructure(t *testing.T) {
	p := DefaultParams(2000)
	g := MustGenerate(p)
	if g.N() != p.Total() {
		t.Fatalf("N = %d, want %d", g.N(), p.Total())
	}
	c := Classify(g, ClassifyOptions{})

	if len(c.Tier1) != p.Tier1 {
		t.Errorf("classified %d tier-1s, generated %d", len(c.Tier1), p.Tier1)
	}
	if len(c.Tier2) == 0 {
		t.Error("no tier-2s classified")
	}

	// Every AS must have a finite depth (the graph is fully connected to
	// the core by construction).
	depthHist := map[int]int{}
	for i := 0; i < g.N(); i++ {
		if c.Depth[i] == DepthUnreachable {
			t.Fatalf("node %v unreachable from core", g.ASN(i))
		}
		depthHist[c.Depth[i]]++
	}
	// The paper's experiments need targets out to depth 5.
	for d := 1; d <= 4; d++ {
		if depthHist[d] == 0 {
			t.Errorf("no ASes at depth %d; hist=%v", d, depthHist)
		}
	}
	if c.MaxDepth() < 4 {
		t.Errorf("MaxDepth = %d, want ≥ 4 for deep-target scenarios", c.MaxDepth())
	}

	// Transit fraction in the right ballpark.
	transit := len(g.TransitNodes())
	frac := float64(transit) / float64(g.N())
	if frac < 0.08 || frac > 0.30 {
		t.Errorf("transit fraction %.3f outside sanity band", frac)
	}

	// Degree distribution: heavy head. Top node should be well above the
	// mean degree.
	order := NodesByDegree(g)
	mean := float64(2*g.Edges()) / float64(g.N())
	if top := float64(g.Degree(order[0])); top < 5*mean {
		t.Errorf("max degree %.0f vs mean %.1f: no heavy head", top, mean)
	}

	// Multihoming: a visible fraction of stubs has ≥2 providers.
	stubs, multi := 0, 0
	for i := 0; i < g.N(); i++ {
		if g.IsTransit(i) {
			continue
		}
		stubs++
		if g.CountRel(i, RelProvider) >= 2 {
			multi++
		}
	}
	if stubs == 0 {
		t.Fatal("no stubs generated")
	}
	mfrac := float64(multi) / float64(stubs)
	if mfrac < 0.15 || mfrac > 0.60 {
		t.Errorf("multihomed stub fraction = %.2f, want around 0.35", mfrac)
	}
}

func TestGenerateIslandRegion(t *testing.T) {
	p := DefaultParams(2000)
	g := MustGenerate(p)
	island := p.Regions - 1
	nodes := g.RegionNodes(island)
	if len(nodes) < p.IslandSize/2 {
		t.Fatalf("island has %d nodes, want ≈ %d", len(nodes), p.IslandSize)
	}
	inIsland := make(map[int]bool, len(nodes))
	for _, i := range nodes {
		inIsland[i] = true
	}
	// The island must touch the outside world through few border links
	// (hub-dominant, like the paper's NZ study).
	borderASes := map[int]bool{}
	for _, i := range nodes {
		nbrs, _ := g.Neighbors(i)
		for _, nb := range nbrs {
			if !inIsland[int(nb)] {
				borderASes[i] = true
			}
		}
	}
	if len(borderASes) == 0 {
		t.Fatal("island is fully disconnected")
	}
	if len(borderASes) > len(nodes)/4 {
		t.Errorf("island border too wide: %d of %d nodes", len(borderASes), len(nodes))
	}
}

func TestGenerateSiblingsPresent(t *testing.T) {
	p := DefaultParams(2000)
	if p.SiblingGroups == 0 {
		t.Skip("no sibling groups at this scale")
	}
	g := MustGenerate(p)
	found := 0
	for i := 0; i < g.N(); i++ {
		_, rels := g.Neighbors(i)
		for _, r := range rels {
			if r == RelSibling {
				found++
			}
		}
	}
	if found == 0 {
		t.Error("no sibling links generated")
	}
	con, err := ContractSiblings(g)
	if err != nil {
		t.Fatal(err)
	}
	if con.Graph.N() >= g.N() {
		t.Error("contraction did not shrink the graph")
	}
}

func TestGenerateAddrWeights(t *testing.T) {
	g := MustGenerate(DefaultParams(800))
	c := Classify(g, ClassifyOptions{})
	if len(c.Tier1) == 0 {
		t.Fatal("no tier-1")
	}
	t1 := c.Tier1[0]
	if g.AddrWeight(t1) <= 1 {
		t.Error("tier-1 should carry large address weight")
	}
	if g.TotalAddrWeight() <= int64(g.N()) {
		t.Error("total weight suspiciously small")
	}
}

// TestGraphSymmetryProperty: for every edge, the relationship seen from
// one endpoint must be the inverse of the relationship seen from the
// other — on hand-built, generated, and contracted graphs.
func TestGraphSymmetryProperty(t *testing.T) {
	graphs := []*Graph{MustGenerate(DefaultParams(600))}
	if con, err := ContractSiblings(graphs[0]); err == nil {
		graphs = append(graphs, con.Graph)
	}
	inverse := map[Rel]Rel{
		RelProvider: RelCustomer,
		RelCustomer: RelProvider,
		RelPeer:     RelPeer,
		RelSibling:  RelSibling,
	}
	for gi, g := range graphs {
		for i := 0; i < g.N(); i++ {
			nbrs, rels := g.Neighbors(i)
			for k, nb := range nbrs {
				back := g.Rel(int(nb), i)
				if back != inverse[rels[k]] {
					t.Fatalf("graph %d: rel(%d→%d)=%v but rel(%d→%d)=%v",
						gi, i, nb, rels[k], nb, i, back)
				}
			}
		}
		// Degree sums must equal twice the edge count.
		total := 0
		for i := 0; i < g.N(); i++ {
			total += g.Degree(i)
		}
		if total != 2*g.Edges() {
			t.Fatalf("graph %d: degree sum %d != 2×edges %d", gi, total, 2*g.Edges())
		}
	}
}

// TestPickWeightedMatchesScan holds the Fenwick draw to the linear scan
// it replaced: from the same RNG state both must return the same
// candidate and consume the same draw, with exclusions that repeat, lie
// outside the list or cover all of it.
func TestPickWeightedMatchesScan(t *testing.T) {
	scan := func(rng *rand.Rand, degree, candidates []int, used map[int]bool) int {
		total := 0
		for _, c := range candidates {
			if !used[c] {
				total += degree[c] + 1
			}
		}
		if total == 0 {
			return -1
		}
		r := rng.Intn(total)
		for _, c := range candidates {
			if used[c] {
				continue
			}
			r -= degree[c] + 1
			if r < 0 {
				return c
			}
		}
		return -1
	}
	src := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + src.Intn(40)
		s := &genState{degree: make([]int, 2*n)}
		for i := range s.degree {
			s.degree[i] = src.Intn(50)
		}
		var ids []int
		for id := 0; id < 2*n; id++ {
			if src.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		l := s.newDrawList(ids, 0, make([]int32, 2*n))
		// Raise some weights after the build, as link does.
		for k := src.Intn(5); k > 0; k-- {
			id := src.Intn(2 * n)
			s.degree[id]++
			l.add(id, 1)
		}
		used := make([]int, src.Intn(4))
		usedSet := map[int]bool{}
		for k := range used {
			used[k] = src.Intn(2 * n)
			usedSet[used[k]] = true
		}
		if trial%50 == 0 {
			used = ids // everything excluded
			usedSet = map[int]bool{}
			for _, id := range ids {
				usedSet[id] = true
			}
		}
		seed := src.Int63()
		s.rng = rand.New(rand.NewSource(seed))
		ref := rand.New(rand.NewSource(seed))
		got, want := s.pickWeighted(l, used), scan(ref, s.degree, ids, usedSet)
		if got != want {
			t.Fatalf("trial %d: pickWeighted = %d, scan = %d (ids %v, used %v, degree %v)", trial, got, want, ids, used, s.degree)
		}
		if a, b := s.rng.Int63(), ref.Int63(); a != b {
			t.Fatalf("trial %d: RNG streams diverged after the draw", trial)
		}
	}
}
