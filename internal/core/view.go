package core

// OutcomeView is the read-only surface shared by a full *Outcome and a
// *DeltaOutcome: everything measurement code (pollution accounting,
// probe triggering, path export reconstruction) reads from a converged
// state. Extractors written against the view run unchanged on either
// solve path, which is what lets the query service answer with a delta
// repair while staying result-identical to the batch tools.
type OutcomeView interface {
	// N returns the node count of the solved plane.
	N() int
	// HasRoute reports whether node i selected any route.
	HasRoute(i int) bool
	// Class returns node i's selected route class (ClassNone without a
	// route).
	Class(i int) RouteClass
	// Dist returns node i's AS-path length, or -1 without a route.
	Dist(i int) int16
	// NextHop returns the neighbor node i forwards through, or -1 at an
	// origin or unrouted node.
	NextHop(i int) int32
	// Origin returns which origin node i routes to.
	Origin(i int) int8
	// Polluted reports whether node i selected a route to the attacker.
	Polluted(i int) bool
	// PollutedCount returns the number of polluted ASes.
	PollutedCount() int
	// PollutedWeight returns the number of polluted ASes and the sum of
	// their address weights, those of the policy's graph
	// (topology.Graph.AddrWeights; a graph without them weighs every node
	// 1), in one bulk pass (no per-node calls through the interface).
	PollutedWeight() (count int, weight int64)
}

// Both solve paths expose the measurement surface.
var (
	_ OutcomeView = (*Outcome)(nil)
	_ OutcomeView = (*DeltaOutcome)(nil)
)
