package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// fuzzCase is one differential-fuzz input: a small relationship graph, the
// policy options, two (attack, defense) cells — prev is solved first on
// the reused solver so the cell under test runs on warm buffers, level
// arenas and (for leaks) a cached baseline left by another cell — and a
// lane batch around the cell under test.
type fuzzCase struct {
	n      int      // candidate ASNs 1..n; the ones no link names do not exist
	ranks  []byte   // per candidate: the higher (rank, lower ASN) end of a transit link is the provider
	links  [][3]int // (a, b, kind) over candidates; kind 0 transit, 1 peer
	tier1  uint32   // bit i: node i has tier-1 import policy
	noSPF  bool
	tieHi  bool
	snap   bool // BuildSnapshot on the reused solver between the two cells
	at     fuzzCell
	prev   fuzzCell
	lanes  fuzzLanes
	seeded string // set on hand-written seeds, for failure messages
}

// fuzzLanes shapes the SolveLanes batch the reused solver also runs: width
// lanes sharing the cell under test's target, kind, sub-prefix flag and
// defense, that cell in lane pos, and in lane i ≠ pos attacker
// base[i%8] + i/8·step — duplicates whenever step is 0 or the width
// exceeds the graph. late runs the batch after the snapshot build instead
// of before it.
type fuzzLanes struct {
	width, pos int
	late       bool
	base       [8]byte
	step       byte
}

// attackers resolves the batch against an n-node graph. Only the cell
// under test may attack its own target (and must then fail the batch as it
// fails the scalar solve); a drawn attacker that lands on the target moves
// on by one.
func (l fuzzLanes) attackers(at Attack, n int) []int {
	out := make([]int, l.width)
	for i := range out {
		a := (int(l.base[i%8]) + i/8*int(l.step)) % n
		if a == at.Target {
			a = (a + 1) % n
		}
		out[i] = a
	}
	out[l.pos] = at.Attacker
	return out
}

// fuzzCell is an attack and defense in index-free form: node numbers are
// reduced modulo the built graph's size, set bit i selects node i.
type fuzzCell struct {
	target, attacker int
	kind             AttackKind
	subPrefix        bool
	rov, aspa        uint32
	peerlock         bool
}

// fuzzWorld is a fuzzCase resolved against the graph it built.
type fuzzWorld struct {
	pol          *Policy
	at, prev     Attack
	def, prevDef Defense
}

// fuzzMaxNodes bounds the graph so one input solves in microseconds and a
// bitmask per node set fits a uint32.
const fuzzMaxNodes = 32

// byteReader hands out the fuzz input byte by byte; an exhausted input
// reads as zeros, so every prefix of an input is itself an input.
type byteReader struct{ b []byte }

func (r *byteReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *byteReader) mask() uint32 {
	return uint32(r.byte()) | uint32(r.byte())<<8 | uint32(r.byte())<<16 | uint32(r.byte())<<24
}

func (r *byteReader) cell() fuzzCell {
	flags := r.byte()
	return fuzzCell{
		target:    int(r.byte()),
		attacker:  int(r.byte()),
		kind:      AttackKind(flags & 0x0f % 3),
		subPrefix: flags&0x10 != 0,
		peerlock:  flags&0x20 != 0,
		rov:       r.mask(),
		aspa:      r.mask(),
	}
}

func decodeFuzzCase(data []byte) fuzzCase {
	r := &byteReader{data}
	c := fuzzCase{n: 2 + int(r.byte())%(fuzzMaxNodes-1)}
	opts := r.byte()
	c.noSPF, c.tieHi, c.snap, c.lanes.late = opts&1 != 0, opts&2 != 0, opts&4 != 0, opts&8 != 0
	c.tier1 = r.mask()
	c.at = r.cell()
	c.prev = r.cell()
	c.lanes.width = 1 + int(r.byte())%LaneWidth
	c.lanes.pos = int(r.byte()) % c.lanes.width
	c.lanes.step = r.byte()
	for i := range c.lanes.base {
		c.lanes.base[i] = r.byte()
	}
	c.ranks = make([]byte, c.n)
	for i := range c.ranks {
		c.ranks[i] = r.byte()
	}
	for len(r.b) >= 3 {
		c.links = append(c.links, [3]int{int(r.byte()) % c.n, int(r.byte()) % c.n, int(r.byte()) % 2})
	}
	return c
}

// encode is decodeFuzzCase's inverse, used to write the seed corpus as
// graphs rather than as byte strings.
func (c fuzzCase) encode() []byte {
	mask := func(m uint32) []byte { return []byte{byte(m), byte(m >> 8), byte(m >> 16), byte(m >> 24)} }
	cell := func(x fuzzCell) []byte {
		flags := byte(x.kind)
		if x.subPrefix {
			flags |= 0x10
		}
		if x.peerlock {
			flags |= 0x20
		}
		out := []byte{flags, byte(x.target), byte(x.attacker)}
		return append(append(out, mask(x.rov)...), mask(x.aspa)...)
	}
	var opts byte
	for bit, on := range []bool{c.noSPF, c.tieHi, c.snap, c.lanes.late} {
		if on {
			opts |= 1 << bit
		}
	}
	out := []byte{byte(c.n - 2), opts}
	out = append(out, mask(c.tier1)...)
	out = append(out, cell(c.at)...)
	out = append(out, cell(c.prev)...)
	out = append(out, byte(c.lanes.width-1), byte(c.lanes.pos), c.lanes.step)
	out = append(out, c.lanes.base[:]...)
	ranks := make([]byte, c.n)
	copy(ranks, c.ranks)
	out = append(out, ranks...)
	for _, l := range c.links {
		out = append(out, byte(l[0]), byte(l[1]), byte(l[2]))
	}
	return out
}

// build materialises the case. Transit links are oriented by (rank, lower
// ASN first), a strict total order, so the provider hierarchy is acyclic
// whatever the bytes say. topology.Graph derives its node set from its
// links, so a degree-0 node cannot exist; components cut off from both
// origins, peer-only nodes and origins whose whole component is one link
// are the unreachable shapes the fuzzer can and does produce. It returns
// nil when fewer than two nodes are linked.
func (c fuzzCase) build() *fuzzWorld {
	b := topology.NewBuilder()
	linked := make(map[[2]int]bool)
	for _, l := range c.links {
		x, y := l[0], l[1]
		if x > y {
			x, y = y, x
		}
		if x == y || linked[[2]int{x, y}] {
			continue
		}
		linked[[2]int{x, y}] = true
		rel := topology.RelPeer
		if l[2] == 0 {
			// x has the lower ASN, so it provides unless y outranks it.
			rel = topology.RelCustomer
			if c.ranks[y] > c.ranks[x] {
				rel = topology.RelProvider
			}
		}
		if err := b.AddLink(asn.ASN(x+1), asn.ASN(y+1), rel); err != nil {
			panic(err) // distinct pairs, valid relationships: cannot conflict
		}
	}
	g := b.Build()
	n := g.N()
	if n < 2 {
		return nil
	}
	// Shortest-path-first import is defined for provider-free nodes (what
	// topology.Classify calls tier-1): the Engine's SPF compare would also
	// weigh a provider route against a customer route, an offer the staged
	// solvers never make to a routed node. So under SPF the mask selects
	// among provider-free nodes only; with SPF off membership matters to
	// Peerlock alone and any node may have it.
	var tier1 []int
	for i := 0; i < n; i++ {
		if c.tier1&(1<<i) != 0 && (c.noSPF || g.CountRel(i, topology.RelProvider) == 0) {
			tier1 = append(tier1, i)
		}
	}
	pol, err := NewPolicy(g, tier1, WithTier1ShortestPath(!c.noSPF), WithPreferHighNextHop(c.tieHi))
	if err != nil {
		panic(err) // in-range tier-1s, no sibling links
	}
	resolve := func(x fuzzCell) (Attack, Defense) {
		set := func(m uint32) *asn.IndexSet {
			if m == 0 {
				return nil
			}
			s := asn.NewIndexSet(n)
			for i := 0; i < n; i++ {
				if m&(1<<i) != 0 {
					s.Add(i)
				}
			}
			return s
		}
		return Attack{Target: x.target % n, Attacker: x.attacker % n, Kind: x.kind, SubPrefix: x.subPrefix},
			Defense{Blocked: set(x.rov), ASPA: set(x.aspa), Peerlock: x.peerlock}
	}
	w := &fuzzWorld{pol: pol}
	w.at, w.def = resolve(c.at)
	w.prev, w.prevDef = resolve(c.prev)
	return w
}

// fuzzSeeds is the checked-in corpus: shapes the ordered-level solver's
// correctness argument leans on.
func fuzzSeeds() []fuzzCase {
	const transit, peer = 0, 1
	// The diamond of policy_test.go on candidates 0..7: T1a=0 T1b=1, A=2
	// B=3 C=4, stubs a=5 b=6 c=7.
	diamond := fuzzCase{
		seeded: "diamond", n: 8, tier1: 0b11,
		ranks: []byte{9, 9, 5, 5, 5, 1, 1, 1},
		links: [][3]int{{0, 1, peer}, {0, 2, transit}, {0, 3, transit}, {1, 4, transit},
			{2, 3, peer}, {2, 5, transit}, {3, 6, transit}, {4, 7, transit}},
		at:    fuzzCell{target: 5, attacker: 7},
		prev:  fuzzCell{target: 7, attacker: 5, kind: KindRouteLeak},
		lanes: fuzzLanes{width: LaneWidth, pos: 17, base: [8]byte{0, 1, 2, 3, 4, 6, 7, 7}, step: 1},
	}
	// Tier-1 0 sits on top of the customer chain 0←2←3←4←5 and peers with
	// tier-1 1, whose customer target 5 also is. Attacker 4 hands 0 a
	// customer route of length 3; the peer route to the target has length
	// 2, so the SPF pass replaces it, and 0's customer 6 must see the flood
	// from the new distance.
	reroute := fuzzCase{
		seeded: "tier-1 re-routed to a shorter peer route", n: 7, tier1: 0b11,
		ranks: []byte{9, 9, 7, 6, 5, 1, 1},
		links: [][3]int{{0, 1, peer}, {0, 2, transit}, {2, 3, transit}, {3, 4, transit},
			{4, 5, transit}, {1, 5, transit}, {0, 6, transit}},
		at:    fuzzCell{target: 5, attacker: 4},
		prev:  fuzzCell{target: 5, attacker: 3, kind: KindForgedOrigin},
		lanes: fuzzLanes{width: 1},
	}
	// Attacker 3's only link is a peering with 2, which has no route to
	// target 1 to hand it: the leak has nothing to leak.
	noLeak := fuzzCase{
		seeded: "leak with no route to leak", n: 4, snap: true,
		ranks: []byte{9, 1, 9, 9},
		links: [][3]int{{0, 1, transit}, {2, 3, peer}},
		at:    fuzzCell{target: 1, attacker: 3, kind: KindRouteLeak, peerlock: true, aspa: 0b0101},
		prev:  fuzzCell{target: 1, attacker: 0, kind: KindRouteLeak},
		lanes: fuzzLanes{width: 5, pos: 4, late: true, base: [8]byte{0, 2, 3, 3}},
	}
	// Tier-1 0 has no customer route and two peers that both originate: the
	// target 1 and the attacker 2, each an offer of length 1. Under
	// WithPreferHighNextHop it takes the attacker's, and its customer 3
	// with it — a lane pull that walks the peer row forwards regardless
	// takes the target's.
	pullTie := fuzzCase{
		seeded: "tier-1 pulls a tie under the flipped tie-break", n: 4, tier1: 0b1, tieHi: true,
		ranks: []byte{9, 1, 1, 1},
		links: [][3]int{{0, 1, peer}, {0, 2, peer}, {0, 3, transit}},
		at:    fuzzCell{target: 1, attacker: 2},
		prev:  fuzzCell{target: 2, attacker: 1, subPrefix: true},
		lanes: fuzzLanes{width: 3, pos: 1, base: [8]byte{3, 0, 3}},
	}
	// 1 fills its gap with target 0's route across their peering and must
	// not hand it on across its other peering, to 2, which stays unrouted:
	// the attacker's component (3, 4) is out of reach.
	noPeerTransit := fuzzCase{
		seeded: "a peer route is not offered to peers", n: 5, noSPF: true,
		ranks: []byte{1, 1, 1, 1, 1},
		links: [][3]int{{0, 1, peer}, {1, 2, peer}, {3, 4, peer}},
		at:    fuzzCell{target: 0, attacker: 3},
		prev:  fuzzCell{target: 0, attacker: 4},
		lanes: fuzzLanes{width: 9, pos: 8, base: [8]byte{1, 2, 3, 4, 4, 3, 2, 1}, step: 2},
	}
	// Stub 5 has two providers: 0 reaches target 3 down the chain 0→2→3
	// (an offer of length 3), 1 is attacker 4's provider (length 2). Both
	// stub passes must keep the shorter offer, not the first in the row;
	// stub 6, 1's only customer, is the single-provider copy at +1, and a
	// scalar outcome derives it.
	shortest := fuzzCase{
		seeded: "a stub keeps its shortest provider offer", n: 7,
		ranks: []byte{9, 9, 5, 1, 1, 1, 1},
		links: [][3]int{{0, 2, transit}, {2, 3, transit}, {1, 4, transit}, {0, 5, transit},
			{1, 5, transit}, {1, 6, transit}},
		at:    fuzzCell{target: 3, attacker: 4},
		prev:  fuzzCell{target: 4, attacker: 3},
		lanes: fuzzLanes{width: 4, pos: 0, base: [8]byte{4, 6, 5, 2}},
	}
	// The same stubs validating: 5 drops 1's attacker offer and takes 0's
	// target route instead, 6 drops its only offer and stays unrouted — the
	// derivation, too, must ask the scenario.
	validating := shortest
	validating.seeded, validating.at.rov = "validating stubs drop the attacker's offer", 0b1100000
	// Stub 4's providers 0 and 1 offer length 2 each, 0 the route to target
	// 2, 1 the route to attacker 3. Under WithPreferHighNextHop the stub
	// takes 1's: read forwards, or with a later equal offer replacing the
	// kept one, either stub pass takes 0's.
	stubTie := fuzzCase{
		seeded: "a stub breaks a provider tie under the flipped tie-break", n: 5, tieHi: true,
		ranks: []byte{9, 9, 1, 1, 1},
		links: [][3]int{{0, 2, transit}, {1, 3, transit}, {0, 4, transit}, {1, 4, transit}},
		at:    fuzzCell{target: 2, attacker: 3},
		prev:  fuzzCell{target: 3, attacker: 2},
		lanes: fuzzLanes{width: 3, pos: 0, base: [8]byte{3, 4, 0}},
	}
	// Leaker 2 hands its real route to target 1 (length 2, via 0) up to its
	// other provider 3, whose only other customer is the single-homed stub
	// 4. With SPF off any node may be tier-1: 4 is, so Peerlock has it drop
	// the leak its provider offers, and it stays unrouted.
	peerlockStub := fuzzCase{
		seeded: "a Peerlock single-homed stub drops its provider's leak", n: 5, noSPF: true, tier1: 0b10000,
		ranks: []byte{9, 1, 5, 9, 1},
		links: [][3]int{{0, 1, transit}, {0, 2, transit}, {3, 2, transit}, {3, 4, transit}},
		at:    fuzzCell{target: 1, attacker: 2, kind: KindRouteLeak, peerlock: true},
		prev:  fuzzCell{target: 4, attacker: 1},
		lanes: fuzzLanes{width: 3, pos: 0, base: [8]byte{4, 3, 0}},
	}
	// Single-homed stub 1 of provider 0 peers with attacker 2: stage 2 fills
	// it with the attacker's route, which 0 selects too (2 is its
	// customer). Counting 0's stubs must count 1 once, and 2's stub 5,
	// which only derives its route, once.
	peerFilledStub := fuzzCase{
		seeded: "a peer-filled single-homed stub is counted once", n: 6,
		ranks: []byte{9, 1, 5, 1, 9, 1},
		links: [][3]int{{0, 1, transit}, {0, 2, transit}, {2, 5, transit}, {1, 2, peer}, {4, 3, transit}, {0, 4, peer}},
		at:    fuzzCell{target: 3, attacker: 2},
		prev:  fuzzCell{target: 2, attacker: 3, kind: KindForgedOrigin},
		lanes: fuzzLanes{width: 4, pos: 1, base: [8]byte{1, 5, 0, 4}},
	}
	// Target 2 and attacker 1 are both single-homed stubs of 0, which takes
	// the attacker's route (the lower next hop): both seeds sit in the stub
	// row of a polluted node and must be counted as their own records say.
	stubSeeds := fuzzCase{
		seeded: "single-homed seeds are counted once", n: 3,
		ranks: []byte{9, 1, 1},
		links: [][3]int{{0, 1, transit}, {0, 2, transit}},
		at:    fuzzCell{target: 2, attacker: 1},
		prev:  fuzzCell{target: 1, attacker: 2},
		lanes: fuzzLanes{width: 2, pos: 1, base: [8]byte{0, 1}},
	}
	// Target 1 and attacker 2 are single-homed stubs of 0, which takes the
	// target's route (the lower next hop), and both lanes of the batch are
	// attacker 2's. Its own origination is the one polluted word of 0's
	// stub row and must be counted once per lane, not once per lane naming
	// it.
	dupSoleAttacker := fuzzCase{
		seeded: "two lanes with the same single-homed attacker", n: 3,
		ranks: []byte{9, 1, 1},
		links: [][3]int{{0, 1, transit}, {0, 2, transit}},
		at:    fuzzCell{target: 1, attacker: 2},
		prev:  fuzzCell{target: 2, attacker: 1, subPrefix: true},
		lanes: fuzzLanes{width: 2, pos: 0, base: [8]byte{2, 2}},
	}
	// Forged-origin attacker 2, a customer of 0, ties target 1's route
	// through 4 at 0 and wins on the lower next hop. Single-homed stub 3 of
	// 0 validates ASPA and drops the route its provider would hand it; its
	// sibling stub 5 takes it.
	aspaSole := fuzzCase{
		seeded: "an ASPA-deploying single-homed stub", n: 6,
		ranks: []byte{9, 1, 1, 1, 5, 1},
		links: [][3]int{{0, 4, transit}, {4, 1, transit}, {0, 2, transit}, {0, 3, transit}, {0, 5, transit}},
		at:    fuzzCell{target: 1, attacker: 2, kind: KindForgedOrigin, aspa: 0b1000},
		prev:  fuzzCell{target: 1, attacker: 5, kind: KindForgedOrigin},
		lanes: fuzzLanes{width: 3, pos: 0, base: [8]byte{2, 5, 3}},
	}
	// Stub 6's two providers offer length-2 routes in the lane of attacker
	// 3 — 0 to target 2, 1 to the attacker — and under
	// WithPreferHighNextHop the stub takes 1's. In attacker 5's lane 1's
	// offer is longer and 0's wins outright; in attacker 7's lane both lead
	// to the attacker.
	twoProvTie := fuzzCase{
		seeded: "a two-provider stub tie under the flipped tie-break", n: 8, tieHi: true,
		ranks: []byte{9, 9, 1, 1, 5, 1, 1, 1},
		links: [][3]int{{0, 2, transit}, {1, 3, transit}, {1, 4, transit}, {4, 5, transit},
			{0, 6, transit}, {1, 6, transit}, {0, 7, transit}},
		at:    fuzzCell{target: 2, attacker: 3},
		prev:  fuzzCell{target: 3, attacker: 2},
		lanes: fuzzLanes{width: 4, pos: 0, base: [8]byte{3, 5, 7, 6}},
	}
	// Stub 6 has three providers: 1 hands it attacker 4's route (length
	// 2), 0 and 2 the route to target 3 through 5 (length 3 each). The
	// stub validates, so it drops the shortest offer and keeps 0's, the
	// first of the two equal ones.
	threeProvDrop := fuzzCase{
		seeded: "a validating three-provider stub drops its shortest offer", n: 7,
		ranks: []byte{9, 9, 9, 1, 1, 5, 1},
		links: [][3]int{{0, 5, transit}, {2, 5, transit}, {3, 5, transit}, {1, 4, transit},
			{0, 6, transit}, {1, 6, transit}, {2, 6, transit}},
		at:    fuzzCell{target: 3, attacker: 4, rov: 0b1000000},
		prev:  fuzzCell{target: 4, attacker: 3, rov: 0b1000000},
		lanes: fuzzLanes{width: 3, pos: 0, base: [8]byte{4, 5, 2}},
	}
	// Multi-homed stub 4 peers with target 2, so the peer stage routes it
	// to the target in every lane, though its provider 1 offers attacker
	// 3's route: the stub pass must leave its lanes alone.
	multiPeer := fuzzCase{
		seeded: "a multi-homed stub routed by the peer stage", n: 5,
		ranks: []byte{9, 9, 1, 1, 1},
		links: [][3]int{{0, 2, transit}, {1, 3, transit}, {0, 4, transit}, {1, 4, transit}, {2, 4, peer}, {0, 1, peer}},
		at:    fuzzCell{target: 2, attacker: 3},
		prev:  fuzzCell{target: 3, attacker: 2},
		lanes: fuzzLanes{width: 3, pos: 0, base: [8]byte{3, 1, 0}},
	}
	// Stub 6's providers 0, 1 and 2 offer length-2 routes: 0 to target 3,
	// 1 to attacker 4, and 2 to attacker 5 in that attacker's lane. The
	// stub takes the target's under the default tie-break and an
	// attacker's under the flipped one.
	threeProvTie := fuzzCase{
		seeded: "a three-provider stub tie between origins", n: 7,
		ranks: []byte{9, 9, 9, 1, 1, 1, 1},
		links: [][3]int{{0, 3, transit}, {1, 4, transit}, {2, 5, transit},
			{0, 6, transit}, {1, 6, transit}, {2, 6, transit}},
		at:    fuzzCell{target: 3, attacker: 4},
		prev:  fuzzCell{target: 4, attacker: 5},
		lanes: fuzzLanes{width: 3, pos: 0, base: [8]byte{4, 5, 6}},
	}
	threeProvTieHigh := threeProvTie
	threeProvTieHigh.seeded, threeProvTieHigh.tieHi = "a three-provider stub tie between origins, flipped", true
	everyoneTier1 := diamond
	everyoneTier1.seeded, everyoneTier1.tier1, everyoneTier1.tieHi = "whole-graph tier-1 set", ^uint32(0), true
	noTier1 := reroute
	noTier1.seeded, noTier1.tier1, noTier1.noSPF = "empty tier-1 set", 0, true
	noTier1.lanes = fuzzLanes{width: 12, pos: 0, late: true, base: [8]byte{4, 3, 2, 6, 0, 1, 4, 4}, step: 3}
	return []fuzzCase{diamond, reroute, noLeak, pullTie, noPeerTransit, everyoneTier1, noTier1, shortest, validating, stubTie,
		peerlockStub, peerFilledStub, stubSeeds, dupSoleAttacker, aspaSole, twoProvTie,
		threeProvDrop, multiPeer, threeProvTie, threeProvTieHigh}
}

// rootCause unwraps err to the innermost error's text: the three solvers
// prefix a shared validation error with their own name.
func rootCause(err error) string {
	for {
		inner := errors.Unwrap(err)
		if inner == nil {
			return err.Error()
		}
		err = inner
	}
}

// viewDiff returns the first node at which two converged states disagree
// on (has-route, class, dist, nexthop, origin), or "".
func viewDiff(want, got OutcomeView) string {
	if want.N() != got.N() {
		return fmt.Sprintf("node count %d vs %d", want.N(), got.N())
	}
	for i := 0; i < want.N(); i++ {
		if want.HasRoute(i) != got.HasRoute(i) || want.Class(i) != got.Class(i) || want.Dist(i) != got.Dist(i) ||
			want.NextHop(i) != got.NextHop(i) || want.Origin(i) != got.Origin(i) {
			return fmt.Sprintf("node %d: want (route=%v class=%v dist=%d nh=%d org=%d) got (route=%v class=%v dist=%d nh=%d org=%d)", i,
				want.HasRoute(i), want.Class(i), want.Dist(i), want.NextHop(i), want.Origin(i),
				got.HasRoute(i), got.Class(i), got.Dist(i), got.NextHop(i), got.Origin(i))
		}
	}
	return ""
}

// checkSolverEquivalence holds a fresh Solver, a Solver reused from another
// cell, the message Engine and the DeltaSolver — through SolveDelta, whichever
// kernel it chooses, through the unbounded repair, and through a repair that
// bails after one examination — to one answer: the same route at every node,
// or the same rejection. The reused solver also runs a lane batch around
// the cell, before or after its snapshot build, every lane of which must
// answer as a fresh Solver does on that lane's cell (requireLanes).
func checkSolverEquivalence(t *testing.T, c fuzzCase) {
	t.Helper()
	w := c.build()
	if w == nil {
		return
	}
	pol, at, def := w.pol, w.at, w.def
	want, wantErr := NewSolver(pol).SolveDefense(at, def)

	reused := NewSolver(pol)
	// prev may itself be invalid; the solver must come through that too.
	_, _ = reused.SolveDefense(w.prev, w.prevDef)
	batch := c.lanes.attackers(at, pol.N())
	if !c.lanes.late {
		requireLanes(t, reused, at.Target, batch, at.Kind, at.SubPrefix, def)
	}
	if c.snap {
		if _, err := reused.BuildSnapshot(w.prev.Attacker); err != nil {
			t.Fatalf("snapshot on reused solver: %v", err)
		}
		requireLevelSets(t, reused)
	}
	if c.lanes.late {
		requireLanes(t, reused, at.Target, batch, at.Kind, at.SubPrefix, def)
	}
	warm, warmErr := reused.SolveDefense(at, def)
	eng, _, engErr := NewEngine(pol).RunDefense(at, def, false)
	snap, err := BuildSnapshot(pol, at.Target)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	delta, deltaErr := NewDeltaSolver(pol).SolveDelta(snap, at, def)
	repair, repairErr := repairWithBudget(NewDeltaSolver(pol), snap, at, def, unbounded)
	bail, bailErr := repairWithBudget(NewDeltaSolver(pol), snap, at, def, 1)

	if wantErr != nil {
		for name, err := range map[string]error{"reused solver": warmErr, "engine": engErr,
			"delta solver": deltaErr, "delta repair": repairErr, "bailed repair": bailErr} {
			if err == nil {
				t.Fatalf("%s accepted %+v, fresh solver rejects it: %v", name, at, wantErr)
			}
			if rootCause(err) != rootCause(wantErr) {
				t.Fatalf("%s rejects %+v with %q, fresh solver with %q", name, at, rootCause(err), rootCause(wantErr))
			}
		}
		return
	}
	for _, other := range []struct {
		name string
		view OutcomeView
		err  error
	}{{"reused solver", warm, warmErr}, {"engine", eng, engErr}, {"delta solver", delta, deltaErr},
		{"delta repair", repair, repairErr}, {"bailed repair", bail, bailErr}} {
		if other.err != nil {
			t.Fatalf("%s rejects %+v (%v), fresh solver accepts it", other.name, at, other.err)
		}
		if d := viewDiff(want, other.view); d != "" {
			t.Fatalf("%s diverges from a fresh solver on %+v under %+v (spf=%v tiehigh=%v): %s",
				other.name, at, c.at, !c.noSPF, c.tieHi, d)
		}
	}
	// The engine writes every route it selects, so its pollution totals
	// count each node from its own record: the solvers' totals, which
	// count single-homed stubs from their provider's, and a clone's must
	// match them.
	if d := viewDiff(want, want.Clone()); d != "" {
		t.Fatalf("clone diverges from its outcome on %+v: %s", at, d)
	}
	// The same world weighed by powers of two and multi-bit weights in
	// turn: the fresh solver's and a clone's totals against the engine's,
	// and a lane batch's against fresh solvers'.
	mixed := oddWeights(pol.N())
	for v := 0; v < len(mixed); v += 2 {
		mixed[v] = 1 << (v % 7)
	}
	weighted := withWeights(t, pol, mixed)
	weng, _, err := NewEngine(weighted).RunDefense(at, def, false)
	if err != nil {
		t.Fatalf("engine on the weighted world: %v", err)
	}
	wwant, err := NewSolver(weighted).SolveDefense(at, def)
	if err != nil {
		t.Fatalf("solver on the weighted world: %v", err)
	}
	for _, w := range []struct {
		name string
		eng  *Outcome
		view []OutcomeView // a fresh solver's, a clone's, and a reused solver's
	}{
		{"unweighted", eng, []OutcomeView{want, want.Clone(), warm}},
		{"mixed", weng, []OutcomeView{wwant, wwant.Clone()}},
	} {
		wc, ww := w.eng.PollutedWeight()
		for k, v := range w.view {
			if gc, gw := v.PollutedWeight(); gc != wc || gw != ww {
				t.Fatalf("%s weights: view %d counts (%d, %d) polluted on %+v, the engine (%d, %d)",
					w.name, k, gc, gw, at, wc, ww)
			}
		}
	}
	requireLanes(t, NewSolver(weighted), at.Target, batch, at.Kind, at.SubPrefix, def)
	requireLevelSets(t, reused)
}

// FuzzSolverEquivalence is the differential fuzz target across the three
// propagation kernels. Bytes decode to a relationship graph of at most 32
// nodes, policy options, a tier-1 set (empty and whole-graph included) and
// two attack × defense cells; see fuzzCase.
func FuzzSolverEquivalence(f *testing.F) {
	for _, c := range fuzzSeeds() {
		f.Add(c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSolverEquivalence(t, decodeFuzzCase(data))
	})
}

// TestFuzzSeedsRoundTrip keeps the seed corpus meaning what its comments
// say: each seed survives encode/decode and builds the graph it names.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for _, c := range fuzzSeeds() {
		got := decodeFuzzCase(c.encode())
		got.seeded = c.seeded
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", c) {
			t.Errorf("%s: round trip changed the case:\n got %+v\nwant %+v", c.seeded, got, c)
		}
		if w := c.build(); w == nil || w.pol.N() != c.n {
			t.Errorf("%s: the graph does not link all %d candidates", c.seeded, c.n)
		}
	}
}
