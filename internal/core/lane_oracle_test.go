package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// oraclePullStubLanes is the lane stub pass that writes every stub, the
// single-homed ones too, each multi-homed stub through the one loop over
// its providers. It is the oracle the derived single-homed stubs, the
// two-provider pull and the grouped tally are held to.
func (s *Solver) oraclePullStubLanes() {
	pol, ln := s.pol, s.ln
	// A pulled route is one hop longer than the longest provider's.
	ln.growPlanes(s.top + 1)
	n, np := ln.n, ln.nplanes
	routed, att, planes := ln.routed, ln.att, ln.planes
	var pulled int64
	for wi, prov := range pol.hasProv {
		for stubs := prov &^ pol.hasCust[wi]; stubs != 0; stubs &= stubs - 1 {
			w := int32(wi<<6 | bits.TrailingZeros64(stubs))
			open := ln.full &^ routed[w]
			if open == 0 {
				continue
			}
			drop := uint64(0)
			if ln.rejLanes != 0 && ln.rej.rejects(pol, w, OriginAttacker) {
				drop = ln.rejLanes
			}
			provs := pol.provAdj[pol.provOff[w]:pol.provOff[w+1]]
			pulled += int64(len(provs))
			// The planes of w are zero in the lanes it is unrouted in, so a
			// route is written by ORing in the provider's distance +1, carried
			// up the planes; growPlanes above leaves no carry out.
			if len(provs) == 1 {
				v := provs[0]
				take := open & routed[v] &^ (att[v] & drop)
				if take == 0 {
					continue
				}
				routed[w] |= take
				att[w] |= att[v] & take
				carry := take
				for p, i, j := 0, int(v), int(w); p < np; p, i, j = p+1, i+n, j+n {
					x := planes[i] & take
					planes[j] |= x ^ carry
					carry &= x
				}
				continue
			}
			// The kept offer per lane: its provider's distance, bit-sliced,
			// and whether it leads to the attacker.
			var best [16]uint64
			var have, bogus uint64
			for k := range provs {
				v := provs[k]
				if pol.tieHigh {
					v = provs[len(provs)-1-k]
				}
				take := open & routed[v] &^ (att[v] & drop)
				if take&have != 0 {
					// Of the lanes that hold an offer, v takes those it beats
					// strictly: compare from the top plane down.
					lt, eq := uint64(0), ^uint64(0)
					for p, i := np-1, int(v)+(np-1)*n; p >= 0; p, i = p-1, i-n {
						x := planes[i]
						lt |= eq & best[p] &^ x
						eq &^= best[p] ^ x
					}
					take &^= have &^ lt
				}
				if take == 0 {
					continue
				}
				for p, i := 0, int(v); p < np; p, i = p+1, i+n {
					best[p] = best[p]&^take | planes[i]&take
				}
				have |= take
				bogus = bogus&^take | att[v]&take
			}
			if have == 0 {
				continue
			}
			routed[w] |= have
			att[w] |= bogus
			carry := have
			for p, j := 0, int(w); p < np; p, j = p+1, j+n {
				planes[j] |= best[p] ^ carry
				carry &= best[p]
			}
		}
	}
	s.stats.Pulled += pulled
}

// oracleTally is the lane tally over every node's written word, for the
// oracle's batches, in which every routed node has one.
func (ln *laneState) oracleTally(weights []int64) {
	var cnt, sum laneSum
	for v, a := range ln.att {
		if a == 0 {
			continue
		}
		cnt.add(a, 0)
		if weights == nil {
			continue
		}
		for wt := uint64(weights[v]); wt != 0; wt &= wt - 1 {
			sum.add(a, bits.TrailingZeros64(wt))
		}
	}
	for i := 0; i < ln.width; i++ {
		// The attacker's own origination is not pollution.
		a := ln.attackers[i]
		own := int64(ln.att[a] >> i & 1)
		ln.count[i] = int(cnt.lane(i) - own)
		if weights != nil {
			ln.weight[i] = sum.lane(i) - own*weights[a]
		}
	}
	ln.counted, ln.weighed = true, weights != nil
}

// laneOracle solves lane batches with oraclePullStubLanes on a solver of
// its own and answers from the lane words it wrote, deriving nothing.
type laneOracle struct{ s *Solver }

func (o laneOracle) solve(target int, attackers []int, kind AttackKind, sub bool, def Defense) error {
	s := o.s
	if err := s.seedLanes(target, attackers, kind, sub, def); err != nil {
		return err
	}
	pol := s.pol
	s.floodLanes(pol.provOff, pol.provAdj, pol.hasProv, ClassCustomer)
	if pol.tier1SPF {
		s.pullTier1Lanes()
	}
	s.floodLanes(pol.peerOff, pol.peerAdj, pol.hasPeer, ClassPeer)
	s.floodLanes(pol.tranOff, pol.tranAdj, pol.hasTran, ClassProvider)
	s.oraclePullStubLanes()
	return nil
}

// node returns node v's (route, origin, distance) in lane, as Outcome's
// accessors report them.
func (o laneOracle) node(v int, lane uint) (bool, int8, int16) {
	ln := o.s.ln
	if ln.routed[v]>>lane&1 == 0 {
		return false, OriginNone, -1
	}
	return true, int8(ln.att[v] >> lane & 1), ln.dist(v, lane)
}

func (o laneOracle) polluted(lane uint, weights []int64) (int, int64) {
	ln := o.s.ln
	ln.oracleTally(weights)
	if weights == nil {
		return ln.count[lane], int64(ln.count[lane])
	}
	return ln.count[lane], ln.weight[lane]
}

// withStubPeers rebuilds pol's world with k more peer links, each from a
// stub to a node it is not linked to, single-homed and multi-homed stubs
// in turn: the generator gives its stubs no peers, and the peer stage
// routing a stub is a case the lane derivation and tally must handle. Node
// indices, address weights and the tier-1 set carry over.
func withStubPeers(t *testing.T, pol *Policy, k int, seed int64, opts ...PolicyOption) *Policy {
	t.Helper()
	g, n := pol.Graph(), pol.N()
	return rebuildWorld(t, pol, g.AddrWeights(), func(b *topology.Builder) {
		rng := rand.New(rand.NewSource(seed))
		for added := 0; added < k; {
			w, v := rng.Intn(n), rng.Intn(n)
			multi := pol.multiStub[w>>6]>>(w&63)&1 != 0
			if added%2 == 0 && !pol.sole(int32(w)) || added%2 == 1 && !multi || v == w || g.Rel(w, v) != 0 {
				continue
			}
			if err := b.AddLink(g.ASN(w), g.ASN(v), topology.RelPeer); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}, opts...)
}

// withWeights rebuilds pol's world with address weights w, indexed by node
// — nil builds a graph without weights, which weighs every node 1 — under
// pol's tier-1 set and options: an outcome weighs by its own policy's
// graph, so a test weighs one world many ways through one policy each.
// Node indices carry over.
func withWeights(t testing.TB, pol *Policy, w []int64) *Policy {
	t.Helper()
	return rebuildWorld(t, pol, w, nil, WithTier1ShortestPath(pol.tier1SPF), WithPreferHighNextHop(pol.tieHigh))
}

// rebuildWorld builds a policy over pol's links and tier-1 set, with
// address weights w (nil: none) and whatever more links add, if non-nil,
// puts in.
func rebuildWorld(t testing.TB, pol *Policy, w []int64, add func(*topology.Builder), opts ...PolicyOption) *Policy {
	t.Helper()
	g, n := pol.Graph(), pol.N()
	b := topology.NewBuilder()
	for i := 0; i < n; i++ {
		if w != nil {
			b.SetAddrWeight(g.ASN(i), w[i])
		}
		nbrs, rels := g.Neighbors(i)
		for j, nb := range nbrs {
			if err := b.AddLink(g.ASN(i), g.ASN(int(nb)), rels[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if add != nil {
		add(b)
	}
	tier1 := make([]int, len(pol.tier1List))
	for i, t1 := range pol.tier1List {
		tier1[i] = int(t1)
	}
	rebuilt, err := NewPolicy(b.Build(), tier1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.N() != n {
		t.Fatalf("rebuilt world has %d nodes, want %d", rebuilt.N(), n)
	}
	return rebuilt
}

// stubCases counts, over the lanes of s's last batch, the multi-homed stub
// shapes the derivation must get right: routed by the peer stage (not a
// seed, but routed), a validating stub with three or more providers whose
// shortest offer is the attacker's and is dropped, and a stub whose
// shortest offers tie in distance but lead to different origins.
func stubCases(s *Solver, target int, attackers []int) (peerRouted, dropShortest, tie int) {
	pol, ln := s.pol, s.ln
	for wi, multi := range pol.multiStub {
		for stubs := multi; stubs != 0; stubs &= stubs - 1 {
			w := wi<<6 | bits.TrailingZeros64(stubs)
			validates := ln.rejLanes != 0 && ln.rej.rejects(pol, int32(w), OriginAttacker)
			for i, a := range attackers {
				bit := uint64(1) << i
				if ln.routed[w]&bit != 0 {
					if w != target && w != a {
						peerRouted++
					}
					continue
				}
				// The shortest offer overall, and among the offers kept.
				const far = int16(1 << 14)
				all, kept, keptOrg := far, far, uint64(0)
				mixed := false
				for _, v := range pol.Providers(w) {
					if ln.routed[v]&bit == 0 {
						continue
					}
					d, org := ln.dist(int(v), uint(i)), ln.att[v]&bit
					all = min(all, d)
					if validates && ln.rejLanes&bit != 0 && org != 0 {
						continue
					}
					switch {
					case d < kept:
						kept, keptOrg, mixed = d, org, false
					case d == kept && org != keptOrg:
						mixed = true
					}
				}
				if len(pol.Providers(w)) >= 3 && all < kept && kept < far {
					dropShortest++
				}
				if mixed {
					tie++
				}
			}
		}
	}
	return peerRouted, dropShortest, tie
}

// TestLaneStubOracleEquivalence holds SolveLanes, whose stubs follow their
// providers on read, whose multi-homed stubs' pull writes only their att
// words and whose tally sums single-homed stubs per provider and the rest
// by weight group, to the lane oracle that writes every stub, on the
// seed-42 2,000-AS world with 60 single-homed and 60 multi-homed stubs
// given a peer: every kind, sub-prefix, both tie-break directions and four
// defenses, over batches whose target or attackers are single-homed stubs,
// peered ones, multi-homed ones, their peers and duplicates. Every node's
// route, origin and distance is compared in every lane, and the pollution
// totals under six weightings (none, address, odd, all-odd, some zero and
// multi-bit ones), each solved on the world weighed that way, half of them
// with the count asked for first, so that the batch tallies twice. The test also counts that
// the multi-homed shapes the derivation must get right occur: peer-routed
// stubs, validating three-provider stubs losing their shortest offer to
// the drop, and equal-distance offers of opposite origin, under both
// tie-breaks.
func TestLaneStubOracleEquivalence(t *testing.T) {
	for _, high := range []bool{false, true} {
		opts := []PolicyOption{WithPreferHighNextHop(high)}
		pol := withStubPeers(t, deltaTestPolicy(t, 2000, 42), 120, 40, opts...)
		n := pol.N()
		var sole, peered, twoProv, threeProv, multiPeered, stubPeers []int
		for v := 0; v < n; v++ {
			multi := pol.multiStub[v>>6]>>(v&63)&1 != 0
			switch {
			case pol.solePeer[v>>6]>>(v&63)&1 != 0:
				peered = append(peered, v)
			case pol.sole(int32(v)):
				sole = append(sole, v)
			case multi && len(pol.Peers(v)) > 0:
				multiPeered = append(multiPeered, v)
				for _, p := range pol.Peers(v) {
					stubPeers = append(stubPeers, int(p))
				}
			case multi && len(pol.Providers(v)) == 2:
				twoProv = append(twoProv, v)
			case multi:
				threeProv = append(threeProv, v)
			}
		}
		if len(sole) == 0 || len(peered) == 0 || len(twoProv) == 0 || len(threeProv) == 0 || len(multiPeered) == 0 {
			t.Fatalf("world has %d single-homed stubs, %d peered ones, %d two-provider stubs, %d with more providers, %d peered multi-homed ones; want some of each",
				len(sole), len(peered), len(twoProv), len(threeProv), len(multiPeered))
		}
		rng := rand.New(rand.NewSource(40))
		pick := func(xs []int) int { return xs[rng.Intn(len(xs))] }
		// A random tenth of the world, with single-homed stubs, peered ones
		// and multi-homed stubs among its validators.
		tenth := asn.NewIndexSet(n)
		for k := 0; k < 20; k++ {
			tenth.Add(pick(sole))
			tenth.Add(pick(twoProv))
			tenth.Add(pick(threeProv))
			tenth.Add(pick(multiPeered))
		}
		tenth.Add(pick(peered))
		for tenth.Count() < n/10 {
			tenth.Add(rng.Intn(n))
		}
		defs := []Defense{
			{},
			{Blocked: benchTopDegreeSet(pol, 50)},
			{Blocked: tenth, ASPA: tenth},
			{ASPA: tenth, Peerlock: true},
		}
		batch := func(target, width int, from ...[]int) []int {
			out := make([]int, width)
			for i := range out {
				for out[i] = pick(from[i%len(from)]); out[i] == target; {
					out[i] = rng.Intn(n)
				}
			}
			return out
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		type lanes struct {
			target    int
			attackers []int
		}
		var batches []lanes
		// A single-homed target, attacked from everywhere.
		b := lanes{target: pick(sole)}
		b.attackers = batch(b.target, LaneWidth, all, sole, peered, twoProv, stubPeers, threeProv)
		b.attackers[5], b.attackers[40] = b.attackers[1], b.attackers[1] // a single-homed attacker three times
		batches = append(batches, b)
		// A peered single-homed target, attacked by stubs.
		b = lanes{target: pick(peered)}
		b.attackers = batch(b.target, 24, sole, peered)
		b.attackers[23] = b.attackers[3] // a peered attacker twice
		batches = append(batches, b)
		// A random target; two lanes with the same single-homed attacker.
		b = lanes{target: rng.Intn(n)}
		b.attackers = batch(b.target, 17, all, sole)
		b.attackers[16] = b.attackers[1]
		batches = append(batches, b)
		// A tier-1 target; the two lanes attack from one single-homed stub.
		b = lanes{target: int(pol.tier1List[0])}
		b.attackers = batch(b.target, 2, sole)
		b.attackers[1] = b.attackers[0]
		batches = append(batches, b)
		// A peered multi-homed target, attacked by the peers of multi-homed
		// stubs and by multi-homed stubs.
		b = lanes{target: pick(multiPeered)}
		b.attackers = batch(b.target, 40, stubPeers, multiPeered, threeProv, all)
		batches = append(batches, b)

		addr := pol.Graph().AddrWeights()
		allOdd, someZero := make([]int64, n), slices.Clone(addr)
		for i := range allOdd {
			allOdd[i] = int64(2*(i%37) + 1)
			if i%5 == 0 {
				someZero[i] = 0
			}
		}
		multiBit := oddWeights(n)
		multiBit[7] = -5 // wraps, as the scalar sum does
		weightings := [][]int64{nil, addr, oddWeights(n), allOdd, someZero, multiBit}
		// One solver per weighting, each over the world weighed that way;
		// the address weights are pol's own.
		weighed := make([]*Solver, len(weightings))
		for k, w := range weightings {
			weighed[k] = NewSolver(withWeights(t, pol, w))
		}
		var peerRouted, dropShortest, tie int
		s, oracle := NewSolver(pol), laneOracle{NewSolver(pol)}
		for bi, b := range batches {
			for _, kind := range Kinds() {
				for _, sub := range []bool{false, true} {
					if sub && kind == KindRouteLeak {
						continue
					}
					for d, def := range defs {
						label := fmt.Sprintf("high=%v batch %d kind %v sub=%v defense %d", high, bi, kind, sub, d)
						if err := oracle.solve(b.target, b.attackers, kind, sub, def); err != nil {
							t.Fatalf("%s: oracle: %v", label, err)
						}
						outs, err := s.SolveLanes(b.target, b.attackers, kind, sub, def)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						pr, ds, ti := stubCases(s, b.target, b.attackers)
						peerRouted, dropShortest, tie = peerRouted+pr, dropShortest+ds, tie+ti
						for i := range outs {
							o, lane := &outs[i], uint(i)
							for v := 0; v < n; v++ {
								route, org, dist := oracle.node(v, lane)
								if o.HasRoute(v) != route || o.Origin(v) != org || o.Dist(v) != dist {
									t.Fatalf("%s: lane %d (attacker %d) node %d has (route=%v org=%d dist=%d), the oracle (%v %d %d)",
										label, i, b.attackers[i], v, o.HasRoute(v), o.Origin(v), o.Dist(v), route, org, dist)
								}
							}
						}
						for k, ws := range weighed {
							outs, err := ws.SolveLanes(b.target, b.attackers, kind, sub, def)
							if err != nil {
								t.Fatalf("%s: weighting %d: %v", label, k, err)
							}
							for i := range outs {
								wc, ww := oracle.polluted(uint(i), weightings[k])
								// Every other weighting asks for the count
								// first, so that the batch tallies twice.
								if k%2 == 1 && outs[i].PollutedCount() != wc {
									t.Fatalf("%s: lane %d counts %d polluted, the oracle %d", label, i, outs[i].PollutedCount(), wc)
								}
								if gc, gw := outs[i].PollutedWeight(); gc != wc || gw != ww {
									t.Fatalf("%s: lane %d pollution under weighting %d is (%d, %d), the oracle's (%d, %d)",
										label, i, k, gc, gw, wc, ww)
								}
							}
						}
					}
				}
			}
		}
		if peerRouted == 0 || dropShortest == 0 || tie == 0 {
			t.Fatalf("high=%v: %d peer-routed multi-homed stub lanes, %d validating three-provider stubs losing their shortest offer, %d opposite-origin ties; want some of each",
				high, peerRouted, dropShortest, tie)
		}
		t.Logf("high=%v: %d peer-routed multi-homed stub lanes, %d dropped shortest offers, %d opposite-origin ties", high, peerRouted, dropShortest, tie)
	}
}

// TestLanePlanSharedAcrossSolvers: four solvers over one policy solve and
// tally their batches on goroutines of their own at once. They build the
// policy's tally plan once and share it, and every lane's totals are the
// oracle tally's. The world is weighed by multi-bit weights, one of them
// negative, so the plan's every group is used. Run it with -race.
func TestLanePlanSharedAcrossSolvers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := deltaTestPolicy(t, 2000, 42)
	n := base.N()
	weights := oddWeights(n)
	weights[7] = -5
	pol := withWeights(t, base, weights)
	def := Defense{Blocked: benchTopDegreeSet(pol, 50)}
	const solvers = 4
	rng := rand.New(rand.NewSource(44))
	target := rng.Intn(n)
	batches := make([][]int, solvers)
	for k := range batches {
		batches[k] = make([]int, LaneWidth)
		for i := range batches[k] {
			for batches[k][i] = rng.Intn(n); batches[k][i] == target; {
				batches[k][i] = rng.Intn(n)
			}
		}
	}
	type total struct {
		count  int
		weight int64
	}
	got := make([][LaneWidth]total, solvers)
	plans := make([]*tallyPlan, solvers)
	var wg sync.WaitGroup
	for k := 0; k < solvers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			outs, err := NewSolver(pol).SolveLanes(target, batches[k], KindOrigin, false, def)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range outs {
				got[k][i].count, got[k][i].weight = outs[i].PollutedWeight()
			}
			plans[k] = pol.tallyPlan()
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	oracle := laneOracle{NewSolver(pol)}
	for k, batch := range batches {
		if plans[k] == nil || plans[k] != plans[0] {
			t.Fatalf("solver %d tallied with plan %p, solver 0 with %p", k, plans[k], plans[0])
		}
		if err := oracle.solve(target, batch, KindOrigin, false, def); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if wc, ww := oracle.polluted(uint(i), weights); got[k][i] != (total{wc, ww}) {
				t.Fatalf("solver %d lane %d: pollution (%d, %d), the oracle's (%d, %d)",
					k, i, got[k][i].count, got[k][i].weight, wc, ww)
			}
		}
	}
}

// lane gathers one lane's total, plane by plane, for oracleTally.
func (z *laneSum) lane(i int) int64 {
	var total uint64
	for k, p := range z.planes {
		total |= (p >> i & 1) << k
	}
	return int64(total)
}
