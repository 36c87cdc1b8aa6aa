package core

import "fmt"

// Snapshot is the immutable converged baseline for one (Policy, target):
// the routing state with the target announcing alone and no attacker in
// the plane. Because every defense mechanism only ever filters
// attacker-origin routes (scenario.rejects returns false for any other
// origin), the no-attack baseline is identical under every Defense — one
// Snapshot per target serves queries under arbitrary defense configs.
//
// A Snapshot is plain data: safe for concurrent reads, shared across any
// number of DeltaSolvers, and valid as long as the Policy it was built
// from. Memory is ~7 bytes per node plus a small tier-1 side store.
type Snapshot struct {
	pol    *Policy
	target int

	// Final converged baseline per node. class ClassNone ⇒ no route.
	// Origin is implicitly OriginTarget for every routed node. Kept as
	// three compact arrays rather than the solver's 12-byte record: a
	// query service holds many snapshots resident, so their footprint
	// (7 bytes per node) matters more than their read locality.
	class   []RouteClass
	dist    []int16
	nexthop []int32

	// Post-stage-1 values of the tier-1 nodes, in ascending node order
	// (only meaningful when the policy runs tier-1 SPF): stage 2 may
	// replace a tier-1's customer route with a peer route, so its stage-1
	// value is not derivable from the final state. For every other node
	// the stage-1 value is derivable: final class origin/customer means
	// the stage-1 value is the final value, anything else means the node
	// was unassigned after stage 1.
	t1Nodes []int32
	t1Class []RouteClass
	t1Dist  []int16
	t1NH    []int32
}

// BuildSnapshot computes the converged baseline for target on a scratch
// solver. Use (*Solver).BuildSnapshot to reuse an existing solver's
// buffers on the build path.
func BuildSnapshot(pol *Policy, target int) (*Snapshot, error) {
	return NewSolver(pol).BuildSnapshot(target)
}

// BuildSnapshot computes the converged baseline for target, reusing this
// solver's buffers for the solve. The returned Snapshot is detached: it
// stays valid across further solver runs.
func (s *Solver) BuildSnapshot(target int) (*Snapshot, error) {
	n := s.pol.N()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("snapshot: target %d out of range (n %d)", target, n)
	}
	sc := &scenario{}
	s.begin()
	s.place(int32(target), ClassOrigin, 0, -1, OriginTarget)
	s.stageCustomer(sc)

	snap := &Snapshot{pol: s.pol, target: target}
	if t1 := s.pol.tier1List; s.pol.tier1SPF {
		snap.t1Nodes = t1
		snap.t1Class = make([]RouteClass, len(t1))
		snap.t1Dist = make([]int16, len(t1))
		snap.t1NH = make([]int32, len(t1))
		// The records as stage 1 left them: nothing is derived before stage 3.
		raw := Outcome{epoch: s.epoch, nodes: s.nodes}
		for k, i := range t1 {
			r := detached(&raw, int(i))
			snap.t1Class[k], snap.t1Dist[k], snap.t1NH[k] = r.class, r.dist, r.nexthop
		}
	}

	s.stagePeer(sc)
	s.stageProvider(sc)

	snap.class = make([]RouteClass, n)
	snap.dist = make([]int16, n)
	snap.nexthop = make([]int32, n)
	// The baseline's scenario filters nothing, so a single-homed stub the
	// solve left stale follows its provider wherever that is routed.
	final := Outcome{epoch: s.epoch, nodes: s.nodes, pol: s.pol}
	for i := 0; i < n; i++ {
		r := detached(&final, i)
		snap.class[i], snap.dist[i], snap.nexthop[i] = r.class, r.dist, r.nexthop
	}
	return snap, nil
}

// detached returns node i's route in o as a Snapshot stores it: an
// unrouted node normalised to (ClassNone, dist 0, nexthop -1).
func detached(o *Outcome, i int) nodeRec {
	if r, ok := o.route(i); ok {
		return r
	}
	return nodeRec{class: ClassNone, nexthop: -1}
}

// Target returns the node whose announcement the baseline converged on.
func (sn *Snapshot) Target() int { return sn.target }

// N returns the node count.
func (sn *Snapshot) N() int { return len(sn.class) }

// Policy returns the policy the snapshot was built over.
func (sn *Snapshot) Policy() *Policy { return sn.pol }

// HasRoute reports whether node i selected a route to the target in the
// baseline.
func (sn *Snapshot) HasRoute(i int) bool { return sn.class[i] != ClassNone }

// Class returns node i's baseline route class.
func (sn *Snapshot) Class(i int) RouteClass { return sn.class[i] }

// Dist returns node i's baseline AS-path length, or -1 without a route.
func (sn *Snapshot) Dist(i int) int16 {
	if sn.class[i] == ClassNone {
		return -1
	}
	return sn.dist[i]
}

// NextHop returns node i's baseline next hop, or -1 at the origin or an
// unrouted node.
func (sn *Snapshot) NextHop(i int) int32 {
	if sn.class[i] == ClassNone || sn.class[i] == ClassOrigin {
		return -1
	}
	return sn.nexthop[i]
}
