package topology

import (
	"fmt"
	"math/rand"

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
	b   *Builder

	asns   []asn.ASN // node id (generation order) -> ASN
	region []int     // node id -> region, -1 global

	tier1, tier2, mid, small, stub []int // node ids per layer
	degree                         []int // running degree, for preferential attachment

	islandHub    int   // node id of the island's hub transit
	islandTrans  []int // island-internal transit ASes
	islandRegion int
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
		b:            NewBuilder(),
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
	g := s.b.Build()
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
	// index and ASN never coincide by accident in tests.
	pool := s.rng.Perm(n * 4)
	s.asns = make([]asn.ASN, n)
	for i := 0; i < n; i++ {
		s.asns[i] = asn.FromUint32(uint32(pool[i] + 100))
	}
	s.region = make([]int, n)
	for i := range s.region {
		s.region[i] = -1
	}
	s.degree = make([]int, n)
}

func (s *genState) link(a, b int, rel Rel) {
	// Generator invariants make conflicts impossible: every link is created
	// exactly once between nodes of distinct layers or deduplicated peers.
	if err := s.b.AddLink(s.asns[a], s.asns[b], rel); err != nil {
		panic(fmt.Sprintf("generate: %v", err))
	}
	s.degree[a]++
	s.degree[b]++
}

// pickWeighted selects one candidate with probability proportional to
// degree+1 (preferential attachment), excluding ids in `used`.
func (s *genState) pickWeighted(candidates []int, used map[int]bool) int {
	total := 0
	for _, c := range candidates {
		if !used[c] {
			total += s.degree[c] + 1
		}
	}
	if total == 0 {
		return -1
	}
	r := s.rng.Intn(total)
	for _, c := range candidates {
		if used[c] {
			continue
		}
		r -= s.degree[c] + 1
		if r < 0 {
			return c
		}
	}
	return -1
}

func (s *genState) buildTier1() {
	n := s.p.Tier1
	for i := 0; i < n; i++ {
		s.tier1 = append(s.tier1, i)
	}
	// Full peering clique.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.link(s.tier1[i], s.tier1[j], RelPeer)
		}
	}
}

func (s *genState) buildTier2() {
	base := s.p.Tier1
	for i := 0; i < s.p.Tier2; i++ {
		s.tier2 = append(s.tier2, base+i)
	}
	for _, t2 := range s.tier2 {
		// 1–3 tier-1 providers, degree-weighted.
		n := 1 + s.rng.Intn(3)
		used := map[int]bool{}
		for k := 0; k < n; k++ {
			p := s.pickWeighted(s.tier1, used)
			if p < 0 {
				break
			}
			used[p] = true
			s.link(p, t2, RelCustomer)
		}
	}
	// Dense tier-2 peering mesh (~55 %), mirroring the highly
	// inter-connected degree≥500 backbone class in the paper.
	for i := 0; i < len(s.tier2); i++ {
		for j := i + 1; j < len(s.tier2); j++ {
			if s.rng.Float64() < 0.55 {
				s.link(s.tier2[i], s.tier2[j], RelPeer)
			}
		}
	}
}

func (s *genState) buildMid() {
	base := s.p.Tier1 + s.p.Tier2
	for i := 0; i < s.p.Mid; i++ {
		id := base + i
		s.mid = append(s.mid, id)
		s.region[id] = s.rng.Intn(maxInt(1, s.p.Regions-1)) // not the island
	}
	// The island hub is a dedicated mid transit homed to tier-2s.
	if len(s.mid) > 0 {
		s.islandHub = s.mid[len(s.mid)-1]
		s.region[s.islandHub] = s.islandRegion
	}
	for _, m := range s.mid {
		nProv := 1 + s.rng.Intn(2)
		if s.rng.Float64() < 0.25 {
			nProv++
		}
		used := map[int]bool{}
		for k := 0; k < nProv; k++ {
			layer := s.tier2
			if len(layer) == 0 || s.rng.Float64() < 0.2 {
				layer = s.tier1
			}
			p := s.pickWeighted(layer, used)
			if p < 0 {
				continue
			}
			used[p] = true
			s.link(p, m, RelCustomer)
		}
	}
	// Sparse regional peering among mids.
	for i := 0; i < len(s.mid); i++ {
		for k := 0; k < 2; k++ {
			if s.rng.Float64() > 0.08 {
				continue
			}
			j := s.rng.Intn(len(s.mid))
			a, b := s.mid[i], s.mid[j]
			if a == b || s.region[a] != s.region[b] {
				continue
			}
			if s.b.linkExists(s.asns[a], s.asns[b]) {
				continue
			}
			s.link(a, b, RelPeer)
		}
	}
}

func (s *genState) buildSmall() {
	base := s.p.Tier1 + s.p.Tier2 + s.p.Mid
	for i := 0; i < s.p.Small; i++ {
		s.small = append(s.small, base+i)
	}
	// Reserve a slice of smalls as island-internal transits, arranged as a
	// two-level hierarchy below the hub so the island has depth of its own
	// (the paper's NZ region holds ASes at several depths). One first-level
	// transit gets a backup provider outside the island, mirroring a
	// regional ISP with its own international transit.
	nIslandTrans := minInt(len(s.small)/8, maxInt(4, s.p.IslandSize/8))
	idx := 0
	for ; idx < nIslandTrans && idx < len(s.small); idx++ {
		sm := s.small[idx]
		s.region[sm] = s.islandRegion
		s.islandTrans = append(s.islandTrans, sm)
		if k := len(s.islandTrans); k <= maxInt(2, nIslandTrans/2) {
			s.link(s.islandHub, sm, RelCustomer) // first level: under the hub
			if k == 2 && len(s.tier2) > 0 {
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
	nChain := int(s.p.ChainFraction * float64(len(s.small)-idx))
	for idx < len(s.small) && nChain > 0 {
		chainLen := 2 + s.rng.Intn(3)
		if chainLen > nChain {
			chainLen = nChain
		}
		if idx+chainLen > len(s.small) {
			chainLen = len(s.small) - idx
		}
		parent := s.mid[s.rng.Intn(len(s.mid))]
		if parent == s.islandHub && len(s.mid) > 1 {
			parent = s.mid[0]
		}
		region := s.region[parent]
		for k := 0; k < chainLen; k++ {
			sm := s.small[idx]
			s.region[sm] = region
			s.link(parent, sm, RelCustomer)
			parent = sm
			idx++
			nChain--
		}
	}

	// Remaining smalls: ordinary single/dual-homed transits under mids
	// (mostly) or tier-2s.
	for ; idx < len(s.small); idx++ {
		sm := s.small[idx]
		var parentLayer []int
		if s.rng.Float64() < 0.7 && len(s.mid) > 0 {
			parentLayer = s.mid
		} else if len(s.tier2) > 0 {
			parentLayer = s.tier2
		} else {
			parentLayer = s.tier1
		}
		used := map[int]bool{s.islandHub: true}
		p := s.pickWeighted(parentLayer, used)
		if p < 0 {
			p = s.tier1[0]
		}
		used[p] = true
		s.region[sm] = s.region[p]
		if s.region[sm] < 0 {
			s.region[sm] = s.rng.Intn(maxInt(1, s.p.Regions-1))
		}
		s.link(p, sm, RelCustomer)
		if s.rng.Float64() < 0.3 {
			if q := s.pickWeighted(parentLayer, used); q >= 0 {
				s.link(q, sm, RelCustomer)
			}
		}
	}
}

// providerPool returns attachment candidates for a stub in a region,
// preferring transit ASes of that region.
func (s *genState) providerPool(region int, roll float64) []int {
	switch {
	case roll < 0.03:
		return s.tier1
	case roll < 0.30 && len(s.tier2) > 0:
		return s.tier2
	case roll < 0.72 && len(s.mid) > 0:
		return s.regionFiltered(s.mid, region)
	case len(s.small) > 0:
		return s.regionFiltered(s.small, region)
	default:
		return s.tier1
	}
}

func (s *genState) regionFiltered(layer []int, region int) []int {
	if region < 0 || s.rng.Float64() > 0.8 {
		return layer
	}
	var out []int
	for _, v := range layer {
		if s.region[v] == region {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return layer
	}
	return out
}

func (s *genState) buildStubs() {
	base := s.p.Tier1 + s.p.Tier2 + s.p.Mid + s.p.Small
	nIslandStubs := maxInt(0, s.p.IslandSize-len(s.islandTrans)-1)
	for i := 0; i < s.p.Stub; i++ {
		id := base + i
		s.stub = append(s.stub, id)
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
			case s.rng.Float64() < 0.12 && len(s.mid) > 1:
				if out := s.pickWeighted(s.mid, map[int]bool{s.islandHub: true, p: true}); out >= 0 {
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
		used := map[int]bool{}
		p := s.pickWeighted(pool, used)
		if p < 0 {
			p = s.tier1[0]
		}
		used[p] = true
		s.link(p, id, RelCustomer)
		if s.rng.Float64() < s.p.MultihomeFraction {
			pool2 := s.providerPool(region, s.rng.Float64())
			if q := s.pickWeighted(pool2, used); q >= 0 {
				used[q] = true
				s.link(q, id, RelCustomer)
				if s.rng.Float64() < 1.0/6 {
					if r := s.pickWeighted(pool2, used); r >= 0 {
						s.link(r, id, RelCustomer)
					}
				}
			}
		}
	}
	for i := range s.asns {
		s.b.SetRegion(s.asns[i], s.region[i])
	}
}

func (s *genState) buildSiblings() {
	// Pair up mids from the same region as sibling organizations.
	made := 0
	for attempt := 0; attempt < s.p.SiblingGroups*20 && made < s.p.SiblingGroups; attempt++ {
		if len(s.mid) < 2 {
			return
		}
		a := s.mid[s.rng.Intn(len(s.mid))]
		b := s.mid[s.rng.Intn(len(s.mid))]
		if a == b || a == s.islandHub || b == s.islandHub {
			continue
		}
		if s.b.linkExists(s.asns[a], s.asns[b]) {
			continue
		}
		s.link(a, b, RelSibling)
		made++
	}
}

func (s *genState) assignWeights() {
	// One weight per id, filled from the layer lists lowest layer first so
	// that an id listed in two layers keeps the higher layer's weight. The
	// ids no layer marks are the stubs, which draw theirs in id order.
	weights := make([]int64, len(s.asns))
	for _, layer := range []struct {
		ids    []int
		weight int64
	}{{s.small, 1 << 8}, {s.mid, 1 << 10}, {s.tier2, 1 << 14}, {s.tier1, 1 << 16}} {
		for _, id := range layer.ids {
			weights[id] = layer.weight
		}
	}
	for id, w := range weights {
		if w == 0 {
			w = 1 << uint(4+s.rng.Intn(5))
		}
		s.b.SetAddrWeight(s.asns[id], w)
	}
}

// linkExists reports whether the builder already has any link between a and b.
func (b *Builder) linkExists(a, c asn.ASN) bool {
	key, _ := orderLink(a, c, RelPeer)
	_, ok := b.links[key]
	return ok
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
