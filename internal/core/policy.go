// Package core implements the paper's BGP origin-hijack simulator: the
// routing policy model (Gao–Rexford LOCAL_PREF classes, valley-free export,
// tier-1 shortest-path override), a fast three-stage BFS solver that
// computes the converged routing state of a one- or two-origin announcement
// in O(V+E), and a faithful generation-stepped message-passing engine with
// Adj-RIB-In state and withdrawals that reproduces the paper's simulator
// behaviour tick by tick. The two are property-tested to produce identical
// outcomes; sweeps use the solver, propagation traces use the engine.
package core

import (
	"fmt"
	"sync"

	"github.com/bgpsim/bgpsim/internal/topology"
)

// RouteClass ranks how a route was learned. Smaller is more preferred
// under standard LOCAL_PREF policy (customer > peer > provider); a node's
// own origination beats everything.
type RouteClass int8

const (
	// ClassNone means no route.
	ClassNone RouteClass = 0
	// ClassOrigin is a self-originated route.
	ClassOrigin RouteClass = 1
	// ClassCustomer is a route learned from a customer.
	ClassCustomer RouteClass = 2
	// ClassPeer is a route learned from a settlement-free peer.
	ClassPeer RouteClass = 3
	// ClassProvider is a route learned from a transit provider.
	ClassProvider RouteClass = 4
)

// String returns the class name.
func (c RouteClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassOrigin:
		return "origin"
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	default:
		return fmt.Sprintf("RouteClass(%d)", int8(c))
	}
}

// Origin identifies which announcement a route leads to in a hijack
// scenario.
const (
	// OriginNone marks nodes with no route.
	OriginNone int8 = -1
	// OriginTarget marks routes leading to the legitimate origin.
	OriginTarget int8 = 0
	// OriginAttacker marks routes leading to the hijacker: pollution.
	OriginAttacker int8 = 1
)

// Policy is the immutable routing state of a topology — per-class
// adjacency in CSR form plus the tier-1 set, and the lane tally's plan,
// built once on first use — plus the idle list of the Solvers built over
// it. Build once, share across any number of Solvers and Engines.
type Policy struct {
	g     *topology.Graph
	n     int
	tier1 []bool
	// tier1List is the tier-1 set as an ascending node list, for the
	// passes that visit the club instead of testing membership.
	tier1List []int32

	// Per-relationship CSR adjacency. providers[i] = nodes that provide
	// transit to i, etc.
	provOff, custOff, peerOff []int32
	provAdj, custAdj, peerAdj []int32
	// tranOff/tranAdj is custAdj restricted to transit customers, those
	// with customers of their own: the rows both provider floods offer
	// over, which leaves the stubs to the stub passes. hasTran marks the
	// nodes whose row is non-empty, the floods' sources.
	tranOff, tranAdj []int32
	hasTran          []uint64
	// soleOff/soleAdj is custAdj restricted to single-homed stubs, those
	// with one provider and no customer, ascending: the nodes whose
	// provider-stage route a scalar Outcome derives from the row's owner.
	// hasSole marks the nodes whose row is non-empty.
	soleOff, soleAdj []int32
	hasSole          []uint64
	// solePeer marks the single-homed stubs with peers: the only ones
	// besides the seeds that the peer stage can route, which a lane tally
	// visits one by one.
	solePeer []uint64
	// multiStub is the bitmap of the other stubs, the multi-homed ones:
	// more than one provider, no customer. The scalar stub pull visits them.
	multiStub []uint64
	// Bitmaps (bit i%64 of word i/64) of the nodes with at least one
	// provider / peer / customer. levelWalk masks each level word with
	// hasProv, hasPeer or hasTran, so a node with nobody to offer a route
	// to in a stage is never visited as that stage's source: a node whose
	// customers are all stubs never sources in the provider stage.
	hasProv, hasPeer, hasCust []uint64

	// tier1SPF enables the paper's tier-1 policy: "Tier-1 routers always
	// accept shortest path" regardless of neighbor class.
	tier1SPF bool
	// tieHigh flips the deterministic next-hop tie-break (see
	// WithPreferHighNextHop).
	tieHigh bool

	// plan is the lane tally's grouping of the nodes, built by the first
	// lane tally over the policy (tallyPlan) and read-only after.
	planOnce sync.Once
	plan     *tallyPlan

	// idle holds the Solvers handed back by ReleaseSolver, warm arenas and
	// all, for AcquireSolver to hand out again. It never holds more than
	// were in use at once, and it is freed with the policy.
	idleMu sync.Mutex
	idle   []*Solver
}

// AcquireSolver returns an idle Solver over the policy, most recently
// released first, or a new one when none is idle. Hand it back with
// ReleaseSolver once done; a Solver never released is simply collected.
func (p *Policy) AcquireSolver() *Solver {
	p.idleMu.Lock()
	k := len(p.idle) - 1
	if k < 0 {
		p.idleMu.Unlock()
		return NewSolver(p)
	}
	s := p.idle[k]
	p.idle[k] = nil
	p.idle = p.idle[:k]
	p.idleMu.Unlock()
	return s
}

// ReleaseSolver hands a Solver built over the policy back to its idle
// list. The caller must not use it, or any Outcome it returned, again.
func (p *Policy) ReleaseSolver(s *Solver) {
	if s.pol != p {
		panic("core: ReleaseSolver of a solver built over another policy")
	}
	p.idleMu.Lock()
	p.idle = append(p.idle, s)
	p.idleMu.Unlock()
}

// PolicyOption customizes Policy construction.
type PolicyOption func(*policyOptions)

type policyOptions struct {
	tier1SPF bool
	tieHigh  bool
}

// WithTier1ShortestPath toggles the tier-1 shortest-path-first import
// override (default on, as in the paper; the paper's Section VI analysis of
// undetected attack AS6450→AS7314 hinges on it).
func WithTier1ShortestPath(on bool) PolicyOption {
	return func(o *policyOptions) { o.tier1SPF = on }
}

// WithPreferHighNextHop flips the final tie-break to prefer the higher
// next-hop ASN. Real routers break ties by arbitrary local criteria; this
// knob produces a plausible "other internet" whose RIBs diverge from the
// default policy's exactly where ties occur — the perturbation used by the
// RouteViews-style validation study.
func WithPreferHighNextHop(on bool) PolicyOption {
	return func(o *policyOptions) { o.tieHigh = on }
}

// NewPolicy builds the policy context. tier1 lists the node indices with
// tier-1 import behaviour. The graph must be sibling-free: contract sibling
// groups first (topology.ContractSiblings); a sibling link is an error.
func NewPolicy(g *topology.Graph, tier1 []int, opts ...PolicyOption) (*Policy, error) {
	o := policyOptions{tier1SPF: true}
	for _, opt := range opts {
		opt(&o)
	}
	n := g.N()
	p := &Policy{g: g, n: n, tier1: make([]bool, n), tier1SPF: o.tier1SPF, tieHigh: o.tieHigh}
	for _, t := range tier1 {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("policy: tier-1 index %d out of range", t)
		}
		p.tier1[t] = true
	}

	var nProv, nCust, nPeer int32
	for i := 0; i < n; i++ {
		_, rels := g.Neighbors(i)
		for _, r := range rels {
			switch r {
			case topology.RelProvider:
				nProv++
			case topology.RelCustomer:
				nCust++
			case topology.RelPeer:
				nPeer++
			case topology.RelSibling:
				return nil, fmt.Errorf("policy: graph has sibling links; contract siblings first (node %v)", g.ASN(i))
			}
		}
	}
	p.provOff = make([]int32, n+1)
	p.custOff = make([]int32, n+1)
	p.peerOff = make([]int32, n+1)
	words := (n + 63) / 64
	p.hasProv = make([]uint64, words)
	p.hasPeer = make([]uint64, words)
	p.hasCust = make([]uint64, words)
	p.provAdj = make([]int32, nProv)
	p.custAdj = make([]int32, nCust)
	p.peerAdj = make([]int32, nPeer)
	var cp, cc, cr int32
	for i := 0; i < n; i++ {
		p.provOff[i], p.custOff[i], p.peerOff[i] = cp, cc, cr
		nbrs, rels := g.Neighbors(i)
		for k, nb := range nbrs {
			switch rels[k] {
			case topology.RelProvider:
				p.provAdj[cp] = nb
				cp++
			case topology.RelCustomer:
				p.custAdj[cc] = nb
				cc++
			case topology.RelPeer:
				p.peerAdj[cr] = nb
				cr++
			}
		}
		bit := uint64(1) << (i & 63)
		if cp > p.provOff[i] {
			p.hasProv[i>>6] |= bit
		}
		if cr > p.peerOff[i] {
			p.hasPeer[i>>6] |= bit
		}
		if cc > p.custOff[i] {
			p.hasCust[i>>6] |= bit
		}
		if p.tier1[i] {
			p.tier1List = append(p.tier1List, int32(i))
		}
	}
	p.provOff[n], p.custOff[n], p.peerOff[n] = cp, cc, cr
	// Each transit customer sits in all its providers' tranAdj rows, each
	// single-homed stub in one soleAdj row: size both before filling them.
	p.multiStub = make([]uint64, words)
	var nTran, nSole int
	for i := 0; i < n; i++ {
		switch provs := p.provOff[i+1] - p.provOff[i]; {
		case p.custOff[i+1] > p.custOff[i]:
			nTran += int(provs)
		case provs == 1:
			nSole++
		case provs > 1:
			p.multiStub[i>>6] |= 1 << (i & 63)
		}
	}
	p.tranOff, p.tranAdj = make([]int32, n+1), make([]int32, 0, nTran)
	p.soleOff, p.soleAdj = make([]int32, n+1), make([]int32, 0, nSole)
	p.hasTran = make([]uint64, words)
	p.hasSole = make([]uint64, words)
	p.solePeer = make([]uint64, words)
	for i := 0; i < n; i++ {
		p.tranOff[i], p.soleOff[i] = int32(len(p.tranAdj)), int32(len(p.soleAdj))
		for _, c := range p.Customers(i) {
			if p.hasCust[c>>6]>>(c&63)&1 != 0 {
				p.tranAdj = append(p.tranAdj, c)
			} else if p.sole(c) {
				p.soleAdj = append(p.soleAdj, c)
			}
		}
		if len(p.tranAdj) > int(p.tranOff[i]) {
			p.hasTran[i>>6] |= 1 << (i & 63)
		}
		if len(p.soleAdj) > int(p.soleOff[i]) {
			p.hasSole[i>>6] |= 1 << (i & 63)
		}
		if p.sole(int32(i)) && p.peerOff[i+1] > p.peerOff[i] {
			p.solePeer[i>>6] |= 1 << (i & 63)
		}
	}
	p.tranOff[n], p.soleOff[n] = int32(len(p.tranAdj)), int32(len(p.soleAdj))
	return p, nil
}

// sole reports whether node i is a single-homed stub: a provider, no
// customer, and not multi-homed.
func (p *Policy) sole(i int32) bool { return p.soleWord(int(i>>6))>>(i&63)&1 != 0 }

// soleWord is word wi of the single-homed stubs' bitmap.
func (p *Policy) soleWord(wi int) uint64 { return p.hasProv[wi] &^ p.hasCust[wi] &^ p.multiStub[wi] }

// Graph returns the topology the policy was built over.
func (p *Policy) Graph() *topology.Graph { return p.g }

// N returns the node count.
func (p *Policy) N() int { return p.n }

// IsTier1 reports whether node i uses tier-1 import policy.
func (p *Policy) IsTier1(i int) bool { return p.tier1[i] }

// Tier1ShortestPath reports whether the tier-1 SPF override is enabled.
func (p *Policy) Tier1ShortestPath() bool { return p.tier1SPF }

// PreferHighNextHop reports whether the final next-hop tie-break is
// flipped (WithPreferHighNextHop).
func (p *Policy) PreferHighNextHop() bool { return p.tieHigh }

// Providers returns node i's providers.
func (p *Policy) Providers(i int) []int32 { return p.provAdj[p.provOff[i]:p.provOff[i+1]] }

// Customers returns node i's customers.
func (p *Policy) Customers(i int) []int32 { return p.custAdj[p.custOff[i]:p.custOff[i+1]] }

// Peers returns node i's peers.
func (p *Policy) Peers(i int) []int32 { return p.peerAdj[p.peerOff[i]:p.peerOff[i+1]] }

// better reports whether route a=(classA, distA, nhA) is preferred over
// b at node v. The order is total (next-hop node index — equivalently ASN,
// since indices ascend with ASN — breaks ties), which makes converged
// states unique and the two engines comparable.
func (p *Policy) better(v int, classA RouteClass, distA int16, nhA int32, classB RouteClass, distB int16, nhB int32) bool {
	if classB == ClassNone {
		return classA != ClassNone
	}
	if classA == ClassNone {
		return false
	}
	if p.tier1SPF && p.tier1[v] {
		// Tier-1: shortest path first, then class, then next-hop.
		if distA != distB {
			return distA < distB
		}
		if classA != classB {
			return classA < classB
		}
		return p.betterNH(nhA, nhB)
	}
	if classA != classB {
		return classA < classB
	}
	if distA != distB {
		return distA < distB
	}
	return p.betterNH(nhA, nhB)
}

// betterNH is the final deterministic tie-break between equally preferred
// routes: lowest next-hop node index (≡ lowest ASN) by default.
func (p *Policy) betterNH(a, b int32) bool {
	if p.tieHigh {
		return a > b
	}
	return a < b
}

// exportsTo reports whether a node whose best route has the given class
// announces that route to a neighbor with relationship rel (rel is the
// neighbor's role from the node's perspective). This is the valley-free
// export rule:
//
//	origin/customer routes → everyone
//	peer/provider routes   → customers only
func exportsTo(best RouteClass, rel topology.Rel) bool {
	return offersToPeers(best) || best != ClassNone && rel == topology.RelCustomer
}

// offersToPeers reports whether a node whose best route has class c
// exports it to peers, and to providers: only origin and customer-class
// selections are.
func offersToPeers(c RouteClass) bool {
	return c == ClassOrigin || c == ClassCustomer
}
