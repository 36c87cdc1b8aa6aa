package topology

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// GenParams configures the synthetic Internet generator. The defaults
// produced by DefaultParams(n) scale the macro-structure of the paper's
// CAIDA snapshot (42,697 ASes: 17 tier-1s, ~6,318 transit ASes ≈ 14.7 %,
// the rest stubs at depths 1–7) down to n ASes.
type GenParams struct {
	Seed int64

	Tier1 int // top clique size
	Tier2 int // large transits directly under tier-1
	Mid   int // regional transit providers
	Small int // small transit providers (some form deep chains)
	Stub  int // edge networks

	// Regions partitions mid/small/stub ASes geographically; attachment is
	// region-biased. The last region is generated as an "island" (the
	// paper's New Zealand analog): a bounded sub-mesh reached almost
	// exclusively through one hub transit AS.
	Regions    int
	IslandSize int

	// SiblingGroups is the number of two-AS sibling organizations to embed.
	SiblingGroups int

	// MultihomeFraction is the probability that a stub gets a second
	// provider (a further 1/6 of those get a third).
	MultihomeFraction float64

	// ChainFraction is the fraction of small transits arranged into
	// provider chains of length 2–4 below a mid transit, which is what
	// creates the deep (depth 4–6) targets the paper studies.
	ChainFraction float64
}

// Validate checks the parameters for internal consistency.
func (p GenParams) Validate() error {
	if p.Tier1 < 1 {
		return fmt.Errorf("genparams: need at least one tier-1, got %d", p.Tier1)
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"Tier2", p.Tier2}, {"Mid", p.Mid}, {"Small", p.Small}, {"Stub", p.Stub}} {
		if c.v < 0 {
			return fmt.Errorf("genparams: %s must be non-negative, got %d", c.name, c.v)
		}
	}
	if p.Regions < 1 {
		return fmt.Errorf("genparams: need at least one region, got %d", p.Regions)
	}
	if p.MultihomeFraction < 0 || p.MultihomeFraction > 1 {
		return fmt.Errorf("genparams: MultihomeFraction out of [0,1]: %v", p.MultihomeFraction)
	}
	if p.ChainFraction < 0 || p.ChainFraction > 1 {
		return fmt.Errorf("genparams: ChainFraction out of [0,1]: %v", p.ChainFraction)
	}
	return nil
}

// Total returns the number of ASes the parameters will generate.
func (p GenParams) Total() int { return p.Tier1 + p.Tier2 + p.Mid + p.Small + p.Stub }

// DefaultParams returns parameters scaled from the paper's topology to
// approximately n ASes (n ≥ 50). Pass n = 42697 for paper scale.
func DefaultParams(n int) GenParams {
	if n < 50 {
		n = 50
	}
	scale := func(paper int, min int) int {
		v := n * paper / 42697
		if v < min {
			v = min
		}
		return v
	}
	p := GenParams{
		Seed:              1,
		Tier1:             scale(17, 3),
		Tier2:             scale(55, 4),
		Mid:               scale(1250, 12),
		Small:             scale(5000, 16),
		Regions:           maxInt(3, n/1200),
		IslandSize:        scale(187, 40),
		SiblingGroups:     maxInt(1, n/2500),
		MultihomeFraction: 0.35,
		ChainFraction:     0.22,
	}
	rest := n - p.Tier1 - p.Tier2 - p.Mid - p.Small
	if rest < 10 {
		rest = 10
	}
	p.Stub = rest
	return p
}

// genState carries the in-progress topology through the generator stages.
type genState struct {
	p   GenParams
	rng *rand.Rand

	asns   []asn.ASN // node id (generation order) -> ASN
	region []int     // node id -> region, -1 global
	weight []int64   // node id -> address weight

	tier1, tier2, mid, small *drawList // node ids per transit layer
	degree                   []int     // running degree, for preferential attachment

	// Mids and smalls per region, in layer order; built when the stubs
	// attach, once every transit has its region.
	midByRegion, smallByRegion []*drawList

	// links in creation order; head and next thread each node's half of
	// them (half 2k is link k at a, 2k+1 at b) into its adjacency list.
	links      []genLink
	head, next []int32

	islandHub    int   // node id of the island's hub transit
	islandTrans  []int // island-internal transit ASes
	islandRegion int
}

// genLink is one generated link: rel is b's role from a's perspective.
type genLink struct {
	a, b int32
	rel  Rel
}

// Generate builds a synthetic Internet-like AS graph. The same parameters
// (including Seed) always produce the identical graph.
func Generate(p GenParams) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &genState{
		p:            p,
		rng:          rand.New(rand.NewSource(p.Seed)),
		islandRegion: p.Regions - 1,
	}
	s.assignASNs()
	s.buildTier1()
	s.buildTier2()
	s.buildMid()
	s.buildSmall()
	s.buildStubs()
	s.buildSiblings()
	s.assignWeights()
	g := s.graph()
	if g.N() == 0 {
		return nil, fmt.Errorf("generate: empty graph")
	}
	return g, nil
}

// MustGenerate is Generate for tests and examples; it panics on error.
func MustGenerate(p GenParams) *Graph {
	g, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return g
}

func (s *genState) assignASNs() {
	n := s.p.Total()
	// Random but collision-free ASNs from a shuffled range, so that node
	// index and ASN never coincide by accident in tests: the first n
	// entries of rand.Perm(4n), drawn as Perm draws them. Perm's step i
	// moves entry j to i and writes i at j; for i >= n only a write
	// below n matters, since entries at n or above never move back down.
	pool := make([]int32, n)
	for i := 0; i < 4*n; i++ {
		j := s.rng.Intn(i + 1)
		if i < n {
			pool[i] = pool[j]
			pool[j] = int32(i)
		} else if j < n {
			pool[j] = int32(i)
		}
	}
	s.asns = make([]asn.ASN, n)
	for i, v := range pool {
		s.asns[i] = asn.FromUint32(uint32(v) + 100)
	}
	s.region = make([]int, n)
	s.head = make([]int32, n)
	for i := range s.region {
		s.region[i] = -1
		s.head[i] = -1
	}
	s.degree = make([]int, n)
	// The transit layers are consecutive id ranges in layer order.
	next := 0
	layer := func(size int) *drawList {
		ids := make([]int, size)
		for i := range ids {
			ids[i] = next + i
		}
		l := s.newDrawList(ids, next, make([]int32, size))
		next += size
		return l
	}
	s.tier1 = layer(s.p.Tier1)
	s.tier2 = layer(s.p.Tier2)
	s.mid = layer(s.p.Mid)
	s.small = layer(s.p.Small)
}

func (s *genState) link(a, b int, rel Rel) {
	k := int32(len(s.links))
	s.links = append(s.links, genLink{int32(a), int32(b), rel})
	s.next = append(s.next, s.head[a], s.head[b])
	s.head[a], s.head[b] = 2*k, 2*k+1
	s.bump(a)
	s.bump(b)
}

// bump raises id's degree, and with it its weight in the draw lists
// holding it: its layer's and, once built, its region's.
func (s *genState) bump(id int) {
	s.degree[id]++
	layer, byRegion := s.drawLists(id)
	if layer == nil {
		return // a stub: never a candidate
	}
	layer.add(id, 1)
	if r := s.region[id]; r >= 0 && r < len(byRegion) {
		byRegion[r].add(id, 1)
	}
}

// drawLists returns the layer list holding id and that layer's lists
// per region (nil until built); both are nil for a stub.
func (s *genState) drawLists(id int) (*drawList, []*drawList) {
	p := s.p
	switch {
	case id < p.Tier1:
		return s.tier1, nil
	case id < p.Tier1+p.Tier2:
		return s.tier2, nil
	case id < p.Tier1+p.Tier2+p.Mid:
		return s.mid, s.midByRegion
	case id < p.Tier1+p.Tier2+p.Mid+p.Small:
		return s.small, s.smallByRegion
	}
	return nil, nil
}

// linkExists reports whether a and b are already linked, walking the
// adjacency of the lower-degree end.
func (s *genState) linkExists(a, b int) bool {
	if s.degree[a] > s.degree[b] {
		a, b = b, a
	}
	for e := s.head[a]; e >= 0; e = s.next[e] {
		if l := s.links[e>>1]; int(l.a) == b || int(l.b) == b {
			return true
		}
	}
	return false
}

// pickWeighted selects one candidate with probability proportional to
// degree+1 (preferential attachment), excluding the ids in used (which
// may repeat, or lie outside the list). It draws rng.Intn over the same
// total, and returns the same candidate, as a walk down the list
// subtracting each unused weight until the draw goes negative.
func (s *genState) pickWeighted(l *drawList, used []int) int {
	var excl [4]int // positions in l of the used ids, ascending
	ex := excl[:0]
	total := l.tree.total
	for _, id := range used {
		if i, ok := l.pos(id); ok && !slices.Contains(ex, i) {
			ex = append(ex, i)
			total -= s.degree[id] + 1
		}
	}
	if total == 0 {
		return -1
	}
	slices.Sort(ex)
	// The walk returns the first position whose prefix of unused weights
	// exceeds r. Below the first excluded position that is the first
	// position whose full prefix exceeds r; past it, r grows by the
	// excluded weight.
	r := s.rng.Intn(total)
	i := l.tree.search(r)
	for _, x := range ex {
		if i < x {
			break
		}
		r += s.degree[l.ids[x]] + 1
		i = l.tree.search(r)
	}
	return l.ids[i]
}

func (s *genState) buildTier1() {
	t1 := s.tier1.ids
	// Full peering clique.
	for i := range t1 {
		for j := i + 1; j < len(t1); j++ {
			s.link(t1[i], t1[j], RelPeer)
		}
	}
}

func (s *genState) buildTier2() {
	t2s := s.tier2.ids
	for _, t2 := range t2s {
		// 1–3 tier-1 providers, degree-weighted.
		n := 1 + s.rng.Intn(3)
		used := make([]int, 0, 3)
		for k := 0; k < n; k++ {
			p := s.pickWeighted(s.tier1, used)
			if p < 0 {
				break
			}
			used = append(used, p)
			s.link(p, t2, RelCustomer)
		}
	}
	// Dense tier-2 peering mesh (~55 %), mirroring the highly
	// inter-connected degree≥500 backbone class in the paper.
	for i := range t2s {
		for j := i + 1; j < len(t2s); j++ {
			if s.rng.Float64() < 0.55 {
				s.link(t2s[i], t2s[j], RelPeer)
			}
		}
	}
}

func (s *genState) buildMid() {
	mids := s.mid.ids
	for _, id := range mids {
		s.region[id] = s.rng.Intn(maxInt(1, s.p.Regions-1)) // not the island
	}
	// The island hub is a dedicated mid transit homed to tier-2s.
	if len(mids) > 0 {
		s.islandHub = mids[len(mids)-1]
		s.region[s.islandHub] = s.islandRegion
	}
	for _, m := range mids {
		nProv := 1 + s.rng.Intn(2)
		if s.rng.Float64() < 0.25 {
			nProv++
		}
		used := make([]int, 0, 3)
		for k := 0; k < nProv; k++ {
			layer := s.tier2
			if len(layer.ids) == 0 || s.rng.Float64() < 0.2 {
				layer = s.tier1
			}
			p := s.pickWeighted(layer, used)
			if p < 0 {
				continue
			}
			used = append(used, p)
			s.link(p, m, RelCustomer)
		}
	}
	// Sparse regional peering among mids.
	for i := range mids {
		for k := 0; k < 2; k++ {
			if s.rng.Float64() > 0.08 {
				continue
			}
			j := s.rng.Intn(len(mids))
			a, b := mids[i], mids[j]
			if a == b || s.region[a] != s.region[b] {
				continue
			}
			if s.linkExists(a, b) {
				continue
			}
			s.link(a, b, RelPeer)
		}
	}
}

func (s *genState) buildSmall() {
	smalls, mids := s.small.ids, s.mid.ids
	// Reserve a slice of smalls as island-internal transits, arranged as a
	// two-level hierarchy below the hub so the island has depth of its own
	// (the paper's NZ region holds ASes at several depths). One first-level
	// transit gets a backup provider outside the island, mirroring a
	// regional ISP with its own international transit.
	nIslandTrans := minInt(len(smalls)/8, maxInt(4, s.p.IslandSize/8))
	idx := 0
	for ; idx < nIslandTrans && idx < len(smalls); idx++ {
		sm := smalls[idx]
		s.region[sm] = s.islandRegion
		s.islandTrans = append(s.islandTrans, sm)
		if k := len(s.islandTrans); k <= maxInt(2, nIslandTrans/2) {
			s.link(s.islandHub, sm, RelCustomer) // first level: under the hub
			if k == 2 && len(s.tier2.ids) > 0 {
				out := s.pickWeighted(s.tier2, nil)
				if out >= 0 {
					s.link(out, sm, RelCustomer)
				}
			}
		} else {
			// Second level: under a first-level island transit.
			parent := s.islandTrans[s.rng.Intn(maxInt(1, len(s.islandTrans)/2))]
			s.link(parent, sm, RelCustomer)
		}
	}

	// Deep chains: consume groups of 2–4 smalls as provider chains below a
	// mid, producing transit ASes at depths 2–4 (and stub targets below
	// them at depths 3–5+).
	nChain := int(s.p.ChainFraction * float64(len(smalls)-idx))
	for idx < len(smalls) && nChain > 0 {
		chainLen := 2 + s.rng.Intn(3)
		if chainLen > nChain {
			chainLen = nChain
		}
		if idx+chainLen > len(smalls) {
			chainLen = len(smalls) - idx
		}
		parent := mids[s.rng.Intn(len(mids))]
		if parent == s.islandHub && len(mids) > 1 {
			parent = mids[0]
		}
		region := s.region[parent]
		for k := 0; k < chainLen; k++ {
			sm := smalls[idx]
			s.region[sm] = region
			s.link(parent, sm, RelCustomer)
			parent = sm
			idx++
			nChain--
		}
	}

	// Remaining smalls: ordinary single/dual-homed transits under mids
	// (mostly) or tier-2s.
	for ; idx < len(smalls); idx++ {
		sm := smalls[idx]
		var parentLayer *drawList
		if s.rng.Float64() < 0.7 && len(mids) > 0 {
			parentLayer = s.mid
		} else if len(s.tier2.ids) > 0 {
			parentLayer = s.tier2
		} else {
			parentLayer = s.tier1
		}
		p := s.pickWeighted(parentLayer, []int{s.islandHub})
		if p < 0 {
			p = s.tier1.ids[0]
		}
		s.region[sm] = s.region[p]
		if s.region[sm] < 0 {
			s.region[sm] = s.rng.Intn(maxInt(1, s.p.Regions-1))
		}
		s.link(p, sm, RelCustomer)
		if s.rng.Float64() < 0.3 {
			if q := s.pickWeighted(parentLayer, []int{s.islandHub, p}); q >= 0 {
				s.link(q, sm, RelCustomer)
			}
		}
	}
}

// providerPool returns attachment candidates for a stub in a region,
// preferring transit ASes of that region.
func (s *genState) providerPool(region int, roll float64) *drawList {
	switch {
	case roll < 0.03:
		return s.tier1
	case roll < 0.30 && len(s.tier2.ids) > 0:
		return s.tier2
	case roll < 0.72 && len(s.mid.ids) > 0:
		return s.regionFiltered(s.mid, s.midByRegion, region)
	case len(s.small.ids) > 0:
		return s.regionFiltered(s.small, s.smallByRegion, region)
	default:
		return s.tier1
	}
}

// regionFiltered returns, most of the time, the layer's candidates in the
// given region (byRegion[region]), or else the whole layer.
func (s *genState) regionFiltered(layer *drawList, byRegion []*drawList, region int) *drawList {
	if region < 0 || s.rng.Float64() > 0.8 {
		return layer
	}
	if l := byRegion[region]; len(l.ids) > 0 {
		return l
	}
	return layer
}

// byRegion splits a layer's draw list into one list per region, each in
// layer order. The lists are runs of one array, filled by a counting sort
// on region, and share one position array.
func (s *genState) byRegion(layer *drawList) []*drawList {
	off := make([]int, s.p.Regions+1) // region r's run starts at off[r]
	for _, id := range layer.ids {
		if r := s.region[id]; r >= 0 {
			off[r+1]++
		}
	}
	for r := 1; r < len(off); r++ {
		off[r] += off[r-1]
	}
	ids := make([]int, off[s.p.Regions])
	for _, id := range layer.ids {
		if r := s.region[id]; r >= 0 {
			ids[off[r]] = id
			off[r]++ // now the run's next free slot; its end once filled
		}
	}
	at := make([]int32, len(layer.at))
	lists := make([]*drawList, s.p.Regions)
	lo := 0
	for r := range lists {
		lists[r] = s.newDrawList(ids[lo:off[r]], layer.base, at)
		lo = off[r]
	}
	return lists
}

func (s *genState) buildStubs() {
	s.midByRegion = s.byRegion(s.mid)
	s.smallByRegion = s.byRegion(s.small)
	base := s.p.Tier1 + s.p.Tier2 + s.p.Mid + s.p.Small
	nIslandStubs := maxInt(0, s.p.IslandSize-len(s.islandTrans)-1)
	for i := 0; i < s.p.Stub; i++ {
		id := base + i
		if i < nIslandStubs {
			// Island stubs attach inside the island, with a deep bias so
			// the region has its own vulnerable tail; ~12 % also multihome
			// to a provider outside the island (the region is reachable
			// around, not only through, the hub — as with the paper's NZ).
			s.region[id] = s.islandRegion
			pool := s.islandTrans
			if len(pool) == 0 || s.rng.Float64() < 0.15 {
				pool = []int{s.islandHub}
			} else if deep := pool[len(pool)/2:]; len(deep) > 0 && s.rng.Float64() < 0.6 {
				pool = deep // prefer second-level island transits
			}
			p := pool[s.rng.Intn(len(pool))]
			s.link(p, id, RelCustomer)
			switch {
			case s.rng.Float64() < 0.12 && len(s.mid.ids) > 1:
				if out := s.pickWeighted(s.mid, []int{s.islandHub, p}); out >= 0 {
					s.link(out, id, RelCustomer)
				}
			case s.rng.Float64() < 0.2 && len(s.islandTrans) > 1:
				q := s.islandTrans[s.rng.Intn(len(s.islandTrans))]
				if q != p {
					s.link(q, id, RelCustomer)
				}
			}
			continue
		}
		region := s.rng.Intn(maxInt(1, s.p.Regions-1))
		s.region[id] = region
		pool := s.providerPool(region, s.rng.Float64())
		p := s.pickWeighted(pool, nil)
		if p < 0 {
			p = s.tier1.ids[0]
		}
		s.link(p, id, RelCustomer)
		if s.rng.Float64() < s.p.MultihomeFraction {
			pool2 := s.providerPool(region, s.rng.Float64())
			if q := s.pickWeighted(pool2, []int{p}); q >= 0 {
				s.link(q, id, RelCustomer)
				if s.rng.Float64() < 1.0/6 {
					if r := s.pickWeighted(pool2, []int{p, q}); r >= 0 {
						s.link(r, id, RelCustomer)
					}
				}
			}
		}
	}
}

func (s *genState) buildSiblings() {
	// Pair up mids from the same region as sibling organizations.
	mids := s.mid.ids
	made := 0
	for attempt := 0; attempt < s.p.SiblingGroups*20 && made < s.p.SiblingGroups; attempt++ {
		if len(mids) < 2 {
			return
		}
		a := mids[s.rng.Intn(len(mids))]
		b := mids[s.rng.Intn(len(mids))]
		if a == b || a == s.islandHub || b == s.islandHub {
			continue
		}
		if s.linkExists(a, b) {
			continue
		}
		s.link(a, b, RelSibling)
		made++
	}
}

func (s *genState) assignWeights() {
	// Layer weights by id; the ids no layer marks are the stubs, which
	// draw theirs in id order.
	s.weight = make([]int64, len(s.asns))
	for _, layer := range []struct {
		ids    []int
		weight int64
	}{{s.small.ids, 1 << 8}, {s.mid.ids, 1 << 10}, {s.tier2.ids, 1 << 14}, {s.tier1.ids, 1 << 16}} {
		for _, id := range layer.ids {
			s.weight[id] = layer.weight
		}
	}
	for id, w := range s.weight {
		if w == 0 {
			s.weight[id] = 1 << uint(4+s.rng.Intn(5))
		}
	}
}

// graph assembles the generated links into the CSR Graph. As in
// Builder.Build, the linked nodes are numbered in ascending ASN order, a
// link repeated with the same relationship counts once and a conflicting
// one is an error (which the generator's invariants rule out: every
// link is created once, between nodes of distinct layers or checked
// peers).
func (s *genState) graph() *Graph {
	// The linked ids in ASN order: sort asn<<32 | id keys.
	byASN := make([]uint64, 0, len(s.asns))
	for id, d := range s.degree {
		if d > 0 {
			byASN = append(byASN, uint64(s.asns[id].Uint32())<<32|uint64(id))
		}
	}
	sortKeys(byASN)
	ids := make([]int32, len(byASN))
	node := make([]int32, len(s.asns)) // id -> node index
	asns := make([]asn.ASN, len(ids))
	for i, key := range byASN {
		id := int32(uint32(key))
		ids[i] = id
		node[id] = int32(i)
		asns[i] = s.asns[id]
	}
	keys := make([]uint64, len(s.links))
	for k, l := range s.links {
		a, b, rel := node[l.a], node[l.b], l.rel
		if a > b {
			a, b, rel = b, a, rel.invert()
		}
		keys[k] = packLink(a, b, rel)
	}
	sortKeys(keys)
	keys = slices.Compact(keys)
	for k := 1; k < len(keys); k++ {
		if keys[k]>>2 == keys[k-1]>>2 {
			lo, hi, _ := unpackLink(keys[k])
			panic(fmt.Sprintf("generate: link %v-%v: conflicting relationships", asns[lo], asns[hi]))
		}
	}
	g := newGraph(asns, keys)
	g.region = make([]int32, len(ids))
	g.addrWeight = make([]int64, len(ids))
	for i, id := range ids {
		g.region[i] = int32(s.region[id])
		g.addrWeight[i] = s.weight[id]
	}
	return g
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
