// Delta solve: answer one attack query against a cached baseline
// Snapshot by repairing only the region of the converged state the
// attacker's announcement can reach, instead of re-running the full
// three-stage solve from scratch.
//
// The key observation is that each solver stage computes the unique
// fixpoint of a closed-form per-node equation over fixed seeds:
//
//	stage 1:  d(v) = 1 + min{d(c) : c customer of v, routed, not rejected}
//	stage 2:  tier-1 SPF over stage-1 values, then a one-shot peer fill
//	stage 3:  d(v) = 1 + min{d(p) : p provider of v, routed, not rejected}
//
// with ties broken by the policy's deterministic lowest-next-hop order
// and the winner's origin carried along. Unit edge weights make
// self-sustaining cycles impossible (a route's distance would have to
// increase around the cycle), so any fixpoint reached by local repair
// equals the from-scratch stage result. The delta solver therefore seeds
// the attacker's announcement as the only difference against the
// baseline, and runs a change-notification worklist per stage: recompute
// a node's equation from its neighbors' current values, settle, and
// notify dependents only when the value changed. Untouched nodes read
// their values straight from the Snapshot.
//
// Correctness hinges on the baseline being defense-independent: every
// Defense mechanism filters only attacker-origin routes
// (scenario.rejects is false for any other origin), so the cached
// no-attack baseline is the correct starting state under any Defense.
//
// # Which kernel answers
//
// Repair is not always the cheaper kernel: one worklist examination costs
// about 90 ns where the full solve costs about 19 ns per node, so repair
// wins only while it examines fewer than roughly N/5 nodes, and an attack
// that nothing stops rewrites far more than that. SolveDelta therefore
// chooses, from what the resolved scenario already says:
//
//   - If no deployment filters this attack (scenario.unfiltered: no
//     defense; ROV against a forged origin or a leak; ASPA against a forged
//     origin whose attacker is a registered provider), or the attack is a
//     sub-prefix hijack, it runs the full solver — on the scenario resolved
//     from the snapshot. The snapshot is the defense-free no-attack state,
//     which is exactly what a leak's baselineDist solve computes, so a
//     leak's seed distance is read from it and the leak costs one solve
//     where a bare Solver pays two.
//   - Anything else is repaired under a budget of repairBudget(N) = N/32+64
//     examinations. A repair that spends it drains its worklist and falls
//     back to the same full solve.
//
// The budget is calibrated, not guessed. 300 uniform (target, attacker)
// pairs on the 42,680-node paper-scale world, warm solvers, mean µs per
// query on a 2-vCPU 2.10 GHz Xeon (repaired queries of 300 in brackets):
//
//	class                 repair   full   as served with budget
//	                    unbounded  warm   N/32+64     N/64+64     N/128+64
//	origin, no defense      2467    824    823          796         791
//	origin, ROV top 50       348    754    342 [218]    378 [206]   336 [197]
//	origin, ROV top 10      1935    823   1070 [31]     999 [29]    978 [27]
//	forged, ROV top 50      1465    805    795          794         782
//	leak, no defense         932   1762    810          780         786
//
// The rows without brackets never enter the repair: the chooser sends them
// to the full solver, and "as served" equals "full" (half of it for the
// leak, whose bare-Solver cost includes the baseline solve). Examined
// counts are bimodal — under ROV at the top 50, 207 of 300 unbounded
// repairs examine at most 1,000 nodes and 49 more than 8,000 — so the
// budget's job is to cut the long mode early, and any of the three does.
// They differ in what a bail wastes — about 15%, 8% and 4% of a full
// solve — and in how many repairs they let finish: the worst class (ROV at
// the top 10, which confines almost nothing) reads +30%, +21% and +19%
// over a warm full solve, while the class where repair wins finishes 218,
// 206 and 197 repairs of 300 and times the same within noise. N/32 is the
// most generous of the three that keeps the worst class within a third of
// a full solve; a mix dominated by deployments that confine nothing would
// prefer N/128.
package core

import (
	"fmt"
	"math"
	"slices"
)

// deltaDistCap bounds route distances considered by the repair worklist;
// anything longer is treated as unreachable. Converged distances are
// bounded by the topology diameter, far below this; the cap exists so a
// transiently self-feeding cycle in an adversarial graph decays to
// unrouted instead of climbing forever.
const deltaDistCap = 1 << 13

// t1sel is one tier-1 node with its customer-route distance, the sort key
// of the repair's tier-1 shortest-path-first pass.
type t1sel struct {
	node int32
	d    int16
}

// rv is one node's route value during delta repair; class ClassNone
// means no route (the other fields are then meaningless).
type rv struct {
	class RouteClass
	dist  int16
	nh    int32
	org   int8
}

func (a rv) eq(b rv) bool {
	if a.class != b.class {
		return false
	}
	if a.class == ClassNone {
		return true
	}
	return a.dist == b.dist && a.nh == b.nh && a.org == b.org
}

var rvNone = rv{class: ClassNone, nh: -1, org: OriginNone}

// DeltaStats counts what the delta path did, for observability and for
// tests asserting the fast path actually ran.
type DeltaStats struct {
	// DeltaSolves counts queries answered by delta repair.
	DeltaSolves int64
	// EmptyDeltas counts queries whose attack is a no-op (a route leak
	// with nothing to leak): the outcome is the baseline itself.
	EmptyDeltas int64
	// FullFallbacks counts queries answered by a full solve: sub-prefix
	// hijacks, attacks nothing deployed filters, and repairs that spent
	// the examination budget.
	FullFallbacks int64
	// Bailed counts the FullFallbacks that spent the examination budget
	// on a repair first.
	Bailed int64
	// Examined is the cumulative number of worklist node examinations,
	// those of bailed repairs included.
	Examined int64
}

// DeltaSolver answers attack queries against baseline Snapshots of one
// Policy. Like Solver, it is single-goroutine: the DeltaOutcome returned
// by SolveDelta is only valid until the next call on the same solver.
type DeltaSolver struct {
	pol  *Policy
	full *Solver      // answers whatever the repair does not
	out  DeltaOutcome // the view SolveDelta returns, rebound every query

	t1Slot  []int32 // node → index into the snapshot's tier-1 store, -1 otherwise
	t1Touch []bool  // node is a tier-1 or peers with one

	snap *Snapshot // snapshot bound for the current query
	sc   scenario  // resolved scenario for the current query

	qe      int32 // query epoch for overlay stamps
	tStamp  []int32
	tStage  []int8
	oClass  []RouteClass
	oDist   []int16
	oNH     []int32
	oOrg    []int8
	touched []int32
	s3fixed []bool

	d1, d2           []int32 // per-stage dirty lists (overlay differs from baseline)
	d1Stamp, d2Stamp []int32

	we      int32 // worklist epoch (bumped per stage run) for enqueue dedup
	qStamp  []int32
	qDist   []int16
	buckets [][]int32

	fStamp []int32 // stage-2 fill-candidate dedup
	fill   []int32

	// tier-1 scratch for the stage-2 SPF pass, indexed by t1 slot.
	t1Work []rv
	t1Sel  []t1sel

	changed  []int32
	polluted int
	exam     int64

	stats DeltaStats
}

// NewDeltaSolver returns a delta solver over the policy. The one-time
// setup scans the peer adjacency to precompute which nodes can influence
// the tier-1 SPF pass.
func NewDeltaSolver(pol *Policy) *DeltaSolver {
	n := pol.N()
	ds := &DeltaSolver{
		pol:     pol,
		full:    NewSolver(pol),
		t1Slot:  make([]int32, n),
		t1Touch: make([]bool, n),
		tStamp:  make([]int32, n),
		tStage:  make([]int8, n),
		oClass:  make([]RouteClass, n),
		oDist:   make([]int16, n),
		oNH:     make([]int32, n),
		oOrg:    make([]int8, n),
		s3fixed: make([]bool, n),
		d1Stamp: make([]int32, n),
		d2Stamp: make([]int32, n),
		qStamp:  make([]int32, n),
		qDist:   make([]int16, n),
		fStamp:  make([]int32, n),
	}
	for i := range ds.t1Slot {
		ds.t1Slot[i] = -1
	}
	var club []int32
	if pol.tier1SPF {
		club = pol.tier1List
	}
	for slot, i := range club {
		ds.t1Slot[i] = int32(slot)
		ds.t1Touch[i] = true
		for _, p := range pol.Peers(int(i)) {
			ds.t1Touch[p] = true
		}
	}
	ds.t1Work = make([]rv, len(club))
	ds.t1Sel = make([]t1sel, 0, len(club))
	return ds
}

// Stats returns cumulative counters for this solver.
func (ds *DeltaSolver) Stats() DeltaStats { return ds.stats }

// Solver returns the full solver this delta solver falls back to, for
// callers that answer snapshot-less queries or build snapshots on the same
// goroutine: one record array per lane instead of two. A run on it
// invalidates the last DeltaOutcome if that was a full-solve answer.
func (ds *DeltaSolver) Solver() *Solver { return ds.full }

// DeltaOutcome is the converged outcome of one attack query, represented
// as the baseline Snapshot plus the set of nodes whose route changed.
// It satisfies the same read contract as Outcome and is valid until the
// next SolveDelta on the owning solver.
type DeltaOutcome struct {
	Target   int
	Attacker int

	snap *Snapshot
	ds   *DeltaSolver
	qe   int32
	full *Outcome // non-nil when the query was answered by a full solve

	changed  []int32
	sorted   bool
	polluted int
	examined int64
}

// UsedDelta reports whether the query was answered by delta repair
// (false: full solve).
func (o *DeltaOutcome) UsedDelta() bool { return o.full == nil }

// Examined returns the worklist node examinations this query spent. A
// full-solve answer that examined anything is a repair that ran out of
// budget; one the chooser sent straight to the full solver examined none.
func (o *DeltaOutcome) Examined() int64 { return o.examined }

// N returns the node count.
func (o *DeltaOutcome) N() int {
	if o.full != nil {
		return o.full.N()
	}
	return o.snap.N()
}

// Changed returns the nodes whose converged route differs from the
// baseline, ascending. Nil for full-solve fallbacks (the whole state was
// recomputed; no differential is tracked). The sort happens lazily on
// first call: queries that only need counts never pay for it.
func (o *DeltaOutcome) Changed() []int32 {
	if o.full != nil {
		return nil
	}
	if !o.sorted {
		slices.Sort(o.changed)
		o.sorted = true
	}
	return o.changed
}

func (o *DeltaOutcome) read(i int) rv {
	if o.ds.tStamp[i] == o.qe && o.ds.tStage[i] == 3 {
		return rv{o.ds.oClass[i], o.ds.oDist[i], o.ds.oNH[i], o.ds.oOrg[i]}
	}
	if o.snap.class[i] == ClassNone {
		return rvNone
	}
	return rv{o.snap.class[i], o.snap.dist[i], o.snap.nexthop[i], OriginTarget}
}

// HasRoute reports whether node i selected any route.
func (o *DeltaOutcome) HasRoute(i int) bool {
	if o.full != nil {
		return o.full.HasRoute(i)
	}
	return o.read(i).class != ClassNone
}

// Origin returns which origin node i routes to.
func (o *DeltaOutcome) Origin(i int) int8 {
	if o.full != nil {
		return o.full.Origin(i)
	}
	v := o.read(i)
	if v.class == ClassNone {
		return OriginNone
	}
	return v.org
}

// Class returns the route class node i selected.
func (o *DeltaOutcome) Class(i int) RouteClass {
	if o.full != nil {
		return o.full.Class(i)
	}
	return o.read(i).class
}

// Dist returns node i's AS-path length, or -1 without a route.
func (o *DeltaOutcome) Dist(i int) int16 {
	if o.full != nil {
		return o.full.Dist(i)
	}
	v := o.read(i)
	if v.class == ClassNone {
		return -1
	}
	return v.dist
}

// NextHop returns the neighbor node i forwards through, or -1 at an
// origin or unrouted node.
func (o *DeltaOutcome) NextHop(i int) int32 {
	if o.full != nil {
		return o.full.NextHop(i)
	}
	v := o.read(i)
	if v.class == ClassNone || v.class == ClassOrigin {
		return -1
	}
	return v.nh
}

// Polluted reports whether node i selected a route to the attacker.
func (o *DeltaOutcome) Polluted(i int) bool {
	if o.full != nil {
		return o.full.Polluted(i)
	}
	return i != o.Attacker && o.Origin(i) == OriginAttacker
}

// PollutedCount returns the number of polluted ASes. On the delta path
// this is O(1): the baseline contributes no attacker-origin routes, so
// pollution lives entirely in the changed set.
func (o *DeltaOutcome) PollutedCount() int {
	if o.full != nil {
		return o.full.PollutedCount()
	}
	return o.polluted
}

// PollutedWeight returns the number of polluted ASes and the sum of their
// address weights, as Outcome.PollutedWeight does. Pollution lives
// entirely in the changed set, and integer sums are order-free, so the
// delta path walks that set unsorted and Changed's lazy sort is not paid.
func (o *DeltaOutcome) PollutedWeight() (count int, weight int64) {
	if o.full != nil {
		return o.full.PollutedWeight()
	}
	weights := o.snap.pol.g.AddrWeights()
	if weights == nil {
		return o.polluted, int64(o.polluted)
	}
	for _, v := range o.changed {
		if o.Polluted(int(v)) {
			weight += weights[v]
		}
	}
	return o.polluted, weight
}

// PollutedNodes appends all polluted node indices to dst, ascending.
func (o *DeltaOutcome) PollutedNodes(dst []int) []int {
	if o.full != nil {
		return o.full.PollutedNodes(dst)
	}
	for _, i := range o.Changed() {
		if o.Polluted(int(i)) {
			dst = append(dst, int(i))
		}
	}
	return dst
}

// repairBudget is the number of worklist examinations a repair may spend
// before SolveDelta gives up on it and solves in full: N/32 + 64. See the
// calibration table in the file header.
func repairBudget(n int) int64 { return int64(n/32 + 64) }

// SolveDelta computes the converged outcome of the attack under the
// defense, against the snapshot's baseline. The snapshot must have been
// built for at.Target over the same Policy. It answers with the cheaper
// kernel: an attack that nothing deployed filters, and a sub-prefix attack
// (which converges on a separate routing plane that does not decompose
// against the baseline), go to the full solver; anything else is repaired
// under repairBudget and solved in full only if the budget runs out.
func (ds *DeltaSolver) SolveDelta(snap *Snapshot, at Attack, def Defense) (*DeltaOutcome, error) {
	if err := ds.resolve(snap, at, def); err != nil {
		return nil, err
	}
	if at.SubPrefix || ds.sc.seedAttacker && ds.sc.unfiltered() {
		return ds.solveFull(at, 0), nil
	}
	return ds.repair(at, repairBudget(ds.pol.N())), nil
}

// resolve validates the query and binds the snapshot and the resolved
// scenario for it. The scenario comes from the snapshot, not from a solve:
// the snapshot is exactly the defense-free no-attack state a route leak's
// baseline solve would compute, so whichever kernel answers, a leak costs
// no second solve.
func (ds *DeltaSolver) resolve(snap *Snapshot, at Attack, def Defense) error {
	if err := validateAttack(ds.pol, at); err != nil {
		return fmt.Errorf("delta solve: %w", err)
	}
	if snap == nil || snap.pol != ds.pol {
		return fmt.Errorf("delta solve: snapshot policy mismatch")
	}
	if snap.target != at.Target {
		return fmt.Errorf("delta solve: snapshot is for target %d, attack targets %d", snap.target, at.Target)
	}
	sc, err := buildScenario(ds.pol, at, def, func() (int16, bool) {
		if snap.class[at.Attacker] == ClassNone {
			return 0, false
		}
		return snap.dist[at.Attacker], true
	})
	if err != nil {
		return err
	}
	ds.snap, ds.sc = snap, sc
	return nil
}

// solveFull answers the resolved query with the full solver, after a
// repair that examined that many nodes (none: the repair was not tried).
func (ds *DeltaSolver) solveFull(at Attack, examined int64) *DeltaOutcome {
	o := ds.full.solveScenario(at, &ds.sc)
	ds.stats.FullFallbacks++
	ds.out = DeltaOutcome{Target: at.Target, Attacker: at.Attacker, full: o, examined: examined}
	return &ds.out
}

// repair answers the resolved exact-prefix query by repairing the bound
// snapshot, examining at most budget nodes; past that it drops the
// half-done repair and solves in full.
func (ds *DeltaSolver) repair(at Attack, budget int64) *DeltaOutcome {
	ds.qe = nextStamp(ds.qe, ds.tStamp, ds.d1Stamp, ds.d2Stamp, ds.fStamp)
	ds.touched = ds.touched[:0]
	ds.d1 = ds.d1[:0]
	ds.d2 = ds.d2[:0]
	ds.changed = ds.changed[:0]
	ds.polluted = 0
	ds.exam = 0

	ds.out = DeltaOutcome{Target: at.Target, Attacker: at.Attacker, snap: ds.snap, ds: ds, qe: ds.qe}
	if !ds.sc.seedAttacker {
		// A leak with no route to leak: the converged state is the
		// baseline itself.
		ds.stats.EmptyDeltas++
		return &ds.out
	}

	ok := ds.stage1Delta(at, budget)
	if ok {
		ds.stage2Delta(at)
		ok = ds.stage3Delta(at, budget)
	}
	ds.stats.Examined += ds.exam
	if !ok {
		ds.drainWorklist()
		ds.stats.Bailed++
		return ds.solveFull(at, ds.exam)
	}
	ds.collectChanged(at)
	ds.stats.DeltaSolves++
	ds.out.changed, ds.out.polluted, ds.out.examined = ds.changed, ds.polluted, ds.exam
	return &ds.out
}

// ---- baseline readers -------------------------------------------------

// base1 is node v's baseline value after stage 1.
func (ds *DeltaSolver) base1(v int32) rv {
	if s := ds.t1Slot[v]; s >= 0 {
		sn := ds.snap
		if sn.t1Class[s] == ClassNone {
			return rvNone
		}
		return rv{sn.t1Class[s], sn.t1Dist[s], sn.t1NH[s], OriginTarget}
	}
	sn := ds.snap
	if sn.class[v] == ClassOrigin || sn.class[v] == ClassCustomer {
		return rv{sn.class[v], sn.dist[v], sn.nexthop[v], OriginTarget}
	}
	return rvNone
}

// base2 is node v's baseline value after stage 2: the final value unless
// the node was only reached by the stage-3 provider flood.
func (ds *DeltaSolver) base2(v int32) rv {
	sn := ds.snap
	if sn.class[v] == ClassNone || sn.class[v] == ClassProvider {
		return rvNone
	}
	return rv{sn.class[v], sn.dist[v], sn.nexthop[v], OriginTarget}
}

// base3 is node v's final baseline value.
func (ds *DeltaSolver) base3(v int32) rv {
	sn := ds.snap
	if sn.class[v] == ClassNone {
		return rvNone
	}
	return rv{sn.class[v], sn.dist[v], sn.nexthop[v], OriginTarget}
}

func (ds *DeltaSolver) overlay(v int32) rv {
	return rv{ds.oClass[v], ds.oDist[v], ds.oNH[v], ds.oOrg[v]}
}

// read1 is node v's current value during stage-1 repair.
func (ds *DeltaSolver) read1(v int32) rv {
	if ds.tStamp[v] == ds.qe {
		return ds.overlay(v)
	}
	return ds.base1(v)
}

// read3 is node v's current value during stage-3 repair. Overlays from
// earlier stages that ended clean are ignored: the node evolves with the
// baseline.
func (ds *DeltaSolver) read3(v int32) rv {
	if ds.tStamp[v] == ds.qe && ds.tStage[v] == 3 {
		return ds.overlay(v)
	}
	return ds.base3(v)
}

func (ds *DeltaSolver) setOverlay(v int32, stage int8, val rv) {
	if ds.tStamp[v] != ds.qe {
		ds.tStamp[v] = ds.qe
		ds.touched = append(ds.touched, v)
	}
	ds.tStage[v] = stage
	ds.oClass[v] = val.class
	ds.oDist[v] = val.dist
	ds.oNH[v] = val.nh
	ds.oOrg[v] = val.org
}

// ---- worklist ----------------------------------------------------------

func (ds *DeltaSolver) resetWorklist() {
	ds.we = nextStamp(ds.we, ds.qStamp)
	// A stage that runs to completion drains every bucket and one that
	// bails calls drainWorklist, so only capacity management remains.
	if ds.buckets == nil {
		ds.buckets = make([][]int32, 0, 64)
	}
}

// drainWorklist empties the buckets a stage left behind when it ran out of
// budget; the next query's worklist must start from its own seeds only.
func (ds *DeltaSolver) drainWorklist() {
	for d := range ds.buckets {
		ds.buckets[d] = ds.buckets[d][:0]
	}
}

// nextStamp advances an epoch counter whose values mark entries of the
// given stamp arrays. At the top of the int32 range the arrays are cleared
// and counting restarts at 1 (0 stays the "unmarked" value), so a stale
// mark can never alias a live epoch in a long-lived solver.
func nextStamp(e int32, stamps ...[]int32) int32 {
	if e < math.MaxInt32 {
		return e + 1
	}
	for _, s := range stamps {
		clear(s)
	}
	return 1
}

func (ds *DeltaSolver) enqueue(v int32, d int) {
	if d < 0 {
		d = 0
	}
	if d > deltaDistCap {
		d = deltaDistCap
	}
	if ds.qStamp[v] == ds.we && int(ds.qDist[v]) == d {
		return
	}
	ds.qStamp[v] = ds.we
	ds.qDist[v] = int16(d)
	for len(ds.buckets) <= d {
		ds.buckets = append(ds.buckets, nil)
	}
	ds.buckets[d] = append(ds.buckets[d], v)
}

// popped clears v's enqueue-dedup mark after it leaves bucket d, so a
// later change notification can re-queue it.
func (ds *DeltaSolver) popped(v int32, d int) {
	if ds.qStamp[v] == ds.we && int(ds.qDist[v]) == d {
		ds.qStamp[v] = 0
	}
}

// notifyBucket is the bucket at which dependents of a changed node are
// re-examined: one past the smaller of the old and new distances.
func notifyBucket(old, val rv) int {
	d := -1
	if old.class != ClassNone {
		d = int(old.dist)
	}
	if val.class != ClassNone && (d < 0 || int(val.dist) < d) {
		d = int(val.dist)
	}
	return d + 1
}

// ---- stage 1: customer-route repair ------------------------------------

// stage1Delta repairs the customer-learned flood: the attacker's seed is
// the only change against the baseline, so repair starts at its
// providers and follows change notifications. Returns false when the
// examination budget is exhausted (caller falls back to a full solve).
func (ds *DeltaSolver) stage1Delta(at Attack, budget int64) bool {
	pol := ds.pol
	sc := &ds.sc
	ds.resetWorklist()

	seedVal := rv{ClassOrigin, sc.seedDist, -1, OriginAttacker}
	a := int32(at.Attacker)
	old := ds.base1(a)
	ds.setOverlay(a, 1, seedVal)
	ds.mark1(a)
	for _, p := range pol.Providers(at.Attacker) {
		ds.enqueue(p, notifyBucket(old, seedVal))
	}

	lo := 0
	for lo < len(ds.buckets) {
		b := ds.buckets[lo]
		if len(b) == 0 {
			lo++
			continue
		}
		v := b[len(b)-1]
		ds.buckets[lo] = b[:len(b)-1]
		ds.popped(v, lo)
		if int(v) == at.Target || int(v) == at.Attacker {
			continue // seeds are fixed
		}
		ds.exam++
		if ds.exam > budget {
			return false
		}

		best := rvNone
		for _, c := range pol.Customers(int(v)) {
			cv := ds.read1(c)
			if cv.class == ClassNone || sc.rejects(pol, v, cv.org) {
				continue
			}
			cd := cv.dist + 1
			if best.class == ClassNone || cd < best.dist || cd == best.dist && pol.betterNH(c, best.nh) {
				best = rv{ClassCustomer, cd, c, cv.org}
			}
		}
		if best.class != ClassNone && int(best.dist) >= deltaDistCap {
			best = rvNone
		}
		if best.class != ClassNone && int(best.dist) > lo {
			// Not yet reachable at this level; re-examine at its distance
			// with fresher neighbor state.
			ds.enqueue(v, int(best.dist))
			continue
		}
		cur := ds.read1(v)
		if best.eq(cur) {
			continue
		}
		ds.setOverlay(v, 1, best)
		ds.mark1(v)
		nb := notifyBucket(cur, best)
		for _, p := range pol.Providers(int(v)) {
			ds.enqueue(p, nb)
		}
		if nb <= lo {
			lo = nb
		}
	}
	return true
}

// mark1 updates v's membership in the stage-1 dirty list to match
// whether its overlay differs from the stage-1 baseline.
func (ds *DeltaSolver) mark1(v int32) {
	dirty := !ds.overlay(v).eq(ds.base1(v))
	listed := ds.d1Stamp[v] == ds.qe
	if dirty && !listed {
		ds.d1Stamp[v] = ds.qe
		ds.d1 = append(ds.d1, v)
	} else if !dirty && listed {
		ds.d1Stamp[v] = 0 // lazily skipped when the list is walked
	}
}

func (ds *DeltaSolver) mark2(v int32) {
	if !ds.overlay(v).eq(ds.base2(v)) && ds.d2Stamp[v] != ds.qe {
		ds.d2Stamp[v] = ds.qe
		ds.d2 = append(ds.d2, v)
	}
}

// ---- stage 2: tier-1 SPF + peer-fill repair ----------------------------

// stage2Delta recomputes the tier-1 shortest-path pass (only when a
// stage-1 change can influence it) and repairs the one-shot peer fill
// for nodes adjacent to changes. Returns the number of stage-2 dirty
// nodes recorded (informational; the d2 list itself drives stage 3).
func (ds *DeltaSolver) stage2Delta(at Attack) int {
	pol := ds.pol
	sc := &ds.sc

	runT1 := false
	if pol.tier1SPF {
		for _, v := range ds.d1 {
			if ds.d1Stamp[v] == ds.qe && ds.t1Touch[v] {
				runT1 = true
				break
			}
		}
	}

	if runT1 {
		// Mirror stagePeer's tier-1 pass exactly, over current stage-1
		// values, in a scratch working set. The pass is tiny (the tier-1
		// club), so it runs whole once any input to it changed.
		sn := ds.snap
		ds.t1Sel = ds.t1Sel[:0]
		for s, node := range sn.t1Nodes {
			w := ds.read1(node)
			ds.t1Work[s] = w
			d := int16(1) << 14
			if w.class != ClassNone {
				d = w.dist
			}
			ds.t1Sel = append(ds.t1Sel, t1sel{node, d})
		}
		sel := ds.t1Sel
		for i := 1; i < len(sel); i++ {
			for j := i; j > 0 && (sel[j].d < sel[j-1].d ||
				sel[j].d == sel[j-1].d && sel[j].node < sel[j-1].node); j-- {
				sel[j], sel[j-1] = sel[j-1], sel[j]
			}
		}
		for _, t := range sel {
			w := t.node
			slot := ds.t1Slot[w]
			best := rvNone
			for _, v := range pol.Peers(int(w)) {
				var dv rv
				if s := ds.t1Slot[v]; s >= 0 {
					dv = ds.t1Work[s]
				} else {
					dv = ds.read1(v)
				}
				if dv.class != ClassOrigin && dv.class != ClassCustomer {
					continue
				}
				if sc.rejects(pol, w, dv.org) {
					continue
				}
				cd := dv.dist + 1
				if best.class == ClassNone || cd < best.dist || cd == best.dist && pol.betterNH(v, best.nh) {
					best = rv{ClassPeer, cd, v, dv.org}
				}
			}
			if best.class == ClassNone {
				continue
			}
			cur := ds.t1Work[slot]
			if cur.class == ClassNone ||
				pol.better(int(w), ClassPeer, best.dist, best.nh, cur.class, cur.dist, cur.nh) {
				ds.t1Work[slot] = best
			}
		}
		// Commit every tier-1's post-pass value so later stages read a
		// consistent stage-2 state for the whole club.
		for s, node := range sn.t1Nodes {
			ds.setOverlay(node, 2, ds.t1Work[s])
			ds.mark2(node)
		}
	}

	// Peer-fill repair: recompute the fill for unassigned nodes whose
	// donor neighborhood changed, and carry every stage-1 change forward
	// into the stage-2 state.
	ds.fill = ds.fill[:0]
	for _, v := range ds.d1 {
		if ds.d1Stamp[v] != ds.qe {
			continue
		}
		if ds.t1Slot[v] >= 0 {
			continue // committed by the tier-1 pass above
		}
		if ds.overlay(v).class != ClassNone {
			ds.setOverlay(v, 2, ds.overlay(v))
			ds.mark2(v)
		} else {
			ds.addFill(v)
		}
		for _, w := range pol.Peers(int(v)) {
			ds.addFill(w)
		}
	}
	if runT1 {
		for _, node := range ds.snap.t1Nodes {
			if ds.d2Stamp[node] == ds.qe {
				for _, w := range pol.Peers(int(node)) {
					ds.addFill(w)
				}
			}
		}
	}
	for _, w := range ds.fill {
		best := rvNone
		for _, v := range pol.Peers(int(w)) {
			dv := ds.fillDonor(v)
			if dv.class != ClassOrigin && dv.class != ClassCustomer {
				continue
			}
			if sc.rejects(pol, w, dv.org) {
				continue
			}
			cd := dv.dist + 1
			if best.class == ClassNone || cd < best.dist || cd == best.dist && pol.betterNH(v, best.nh) {
				best = rv{ClassPeer, cd, v, dv.org}
			}
		}
		if ds.tStamp[w] == ds.qe || !best.eq(ds.base2(w)) {
			ds.setOverlay(w, 2, best)
			ds.mark2(w)
		}
	}
	return len(ds.d2)
}

// addFill queues w for peer-fill recomputation if it is fill-eligible:
// not handled by the tier-1 pass and unassigned after stage 1.
func (ds *DeltaSolver) addFill(w int32) {
	if ds.fStamp[w] == ds.qe {
		return
	}
	if ds.pol.tier1SPF && ds.pol.tier1[w] {
		return
	}
	if ds.read1(w).class != ClassNone {
		return
	}
	ds.fStamp[w] = ds.qe
	ds.fill = append(ds.fill, w)
}

// fillDonor is peer v's value as seen by the fill pass: the post-tier-1
// stage-2 state. Stage-1 overlays count only if the node actually
// changed; clean nodes evolve with the baseline.
func (ds *DeltaSolver) fillDonor(v int32) rv {
	if ds.tStamp[v] == ds.qe {
		if ds.tStage[v] == 2 || ds.tStage[v] == 1 && ds.d1Stamp[v] == ds.qe {
			return ds.overlay(v)
		}
	}
	return ds.base2(v)
}

// ---- stage 3: provider-flood repair ------------------------------------

// stage3Delta repairs the downward provider flood with the same
// change-notification worklist as stage 1, seeded from the stage-2 dirty
// set. Returns false when the examination budget is exhausted.
func (ds *DeltaSolver) stage3Delta(at Attack, budget int64) bool {
	pol := ds.pol
	sc := &ds.sc
	ds.resetWorklist()

	// Carry stage-2 changes into the stage-3 state and seed the
	// worklist: assigned nodes are fixed, unassigned ones become
	// provider-fillable, and customers of anything that changed must
	// re-examine their provider candidates.
	for _, v := range ds.d2 {
		if ds.d2Stamp[v] != ds.qe {
			continue
		}
		val := ds.overlay(v)
		old := ds.base3(v)
		ds.setOverlay(v, 3, val)
		ds.s3fixed[v] = val.class != ClassNone
		if val.class == ClassNone {
			ds.enqueue(v, 0)
		}
		if !val.eq(old) {
			nb := notifyBucket(old, val)
			for _, c := range pol.Customers(int(v)) {
				ds.enqueue(c, nb)
			}
		}
	}

	lo := 0
	for lo < len(ds.buckets) {
		b := ds.buckets[lo]
		if len(b) == 0 {
			lo++
			continue
		}
		v := b[len(b)-1]
		ds.buckets[lo] = b[:len(b)-1]
		ds.popped(v, lo)
		if ds.fixed3(v) {
			continue
		}
		ds.exam++
		if ds.exam > budget {
			return false
		}

		best := rvNone
		for _, p := range pol.Providers(int(v)) {
			dv := ds.read3(p)
			if dv.class == ClassNone || sc.rejects(pol, v, dv.org) {
				continue
			}
			cd := dv.dist + 1
			if best.class == ClassNone || cd < best.dist || cd == best.dist && pol.betterNH(p, best.nh) {
				best = rv{ClassProvider, cd, p, dv.org}
			}
		}
		if best.class != ClassNone && int(best.dist) >= deltaDistCap {
			best = rvNone
		}
		if best.class != ClassNone && int(best.dist) > lo {
			ds.enqueue(v, int(best.dist))
			continue
		}
		cur := ds.read3(v)
		if best.eq(cur) {
			continue
		}
		ds.setOverlay(v, 3, best)
		ds.s3fixed[v] = false
		nb := notifyBucket(cur, best)
		for _, c := range pol.Customers(int(v)) {
			ds.enqueue(c, nb)
		}
		if nb <= lo {
			lo = nb
		}
	}
	return true
}

// fixed3 reports whether v's value is settled for stage 3: it was
// assigned by stage 1 or 2 (in the overlay or in the baseline), so the
// provider flood cannot change it.
func (ds *DeltaSolver) fixed3(v int32) bool {
	if ds.tStamp[v] == ds.qe && ds.tStage[v] == 3 {
		return ds.s3fixed[v]
	}
	c := ds.snap.class[v]
	return c == ClassOrigin || c == ClassCustomer || c == ClassPeer
}

// collectChanged gathers the final differential: every touched node
// whose stage-3 value differs from the final baseline, ascending.
func (ds *DeltaSolver) collectChanged(at Attack) {
	for _, v := range ds.touched {
		if ds.tStage[v] != 3 {
			continue
		}
		if ds.overlay(v).eq(ds.base3(v)) {
			continue
		}
		ds.changed = append(ds.changed, v)
		if ds.oClass[v] != ClassNone && ds.oOrg[v] == OriginAttacker && int(v) != at.Attacker {
			ds.polluted++
		}
	}
}
