// Package experiments contains one runner per figure and table of the
// paper's evaluation, built on the substrate packages. The cmd/ tools and
// the repository benchmarks both call into these runners, so the printed
// rows always come from the same code.
package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// World bundles the generated (or loaded) internet with its classification
// and routing policy — the fixed context every experiment runs against.
type World struct {
	Graph  *topology.Graph
	Class  *topology.Classification
	Policy *core.Policy
	Params topology.GenParams
}

// NewWorld generates a synthetic internet of approximately n ASes,
// contracts sibling groups, classifies tiers, and builds the routing
// policy.
func NewWorld(n int, seed int64, opts ...core.PolicyOption) (*World, error) {
	p := topology.DefaultParams(n)
	p.Seed = seed
	return NewWorldWithParams(p, opts...)
}

// NewWorldWithParams is NewWorld with explicit generator parameters.
func NewWorldWithParams(p topology.GenParams, opts ...core.PolicyOption) (*World, error) {
	g, err := topology.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	w, err := WorldFromGraph(g, opts...)
	if err != nil {
		return nil, err
	}
	w.Params = p
	return w, nil
}

// WorldFromGraph wraps an existing topology (e.g. parsed from a CAIDA
// file). Sibling groups are contracted automatically.
func WorldFromGraph(g *topology.Graph, opts ...core.PolicyOption) (*World, error) {
	con, err := topology.ContractSiblings(g)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	cg := con.Graph
	c := topology.Classify(cg, topology.ClassifyOptions{})
	pol, err := core.NewPolicy(cg, c.Tier1, opts...)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	return &World{Graph: cg, Class: c, Policy: pol}, nil
}

// Target is a named scenario role (the paper's AS98, AS55857, …).
type Target struct {
	Name  string
	Node  int
	Depth int
}

// ScenarioTargets resolves the paper's target roles against this world:
// a tier-1 AS, single- and multi-homed depth-1 stubs, a depth-2 stub, and
// the deepest stub available (the AS55857 analog). hierarchy selects
// whether depth-1/2 targets must sit under a tier-1 (Figure 2) or tier-2
// (Figure 3).
func (w *World) ScenarioTargets(hierarchy topology.Hierarchy) ([]Target, error) {
	var out []Target
	if len(w.Class.Tier1) > 0 {
		out = append(out, Target{Name: "tier-1 AS", Node: w.Class.Tier1[0], Depth: 0})
	}
	type query struct {
		name string
		q    topology.TargetQuery
	}
	queries := []query{
		{"depth-1 stub (multi-homed)", topology.TargetQuery{Depth: 1, Stub: true, MultiHomed: topology.Bool(true), Hierarchy: hierarchy}},
		{"depth-1 stub (single-homed)", topology.TargetQuery{Depth: 1, Stub: true, MultiHomed: topology.Bool(false), Hierarchy: hierarchy}},
		{"depth-2 stub", topology.TargetQuery{Depth: 2, Stub: true}},
	}
	for _, q := range queries {
		node, err := topology.FindTarget(w.Graph, w.Class, q.q)
		if err != nil {
			// Fall back to the same depth in any hierarchy rather than fail
			// the whole scenario set.
			alt := q.q
			alt.Hierarchy = topology.AnyHierarchy
			node, err = topology.FindTarget(w.Graph, w.Class, alt)
			if err != nil {
				continue
			}
		}
		out = append(out, Target{Name: q.name, Node: node, Depth: q.q.Depth})
	}
	if deep, ok := w.DeepTarget(); ok {
		out = append(out, Target{Name: fmt.Sprintf("depth-%d stub (very vulnerable)", w.Class.Depth[deep]), Node: deep, Depth: w.Class.Depth[deep]})
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("scenario targets: topology too degenerate (found %d roles)", len(out))
	}
	return out, nil
}

// DeepTarget returns the deepest stub in the world (depth capped at 5,
// matching the paper's most vulnerable studied AS).
func (w *World) DeepTarget() (int, bool) {
	for d := min(5, w.Class.MaxDepth()); d >= 3; d-- {
		if node, err := topology.FindTarget(w.Graph, w.Class, topology.TargetQuery{Depth: d, Stub: true}); err == nil {
			return node, true
		}
	}
	// Fall back to depth 2 on shallow topologies.
	node, err := topology.FindTarget(w.Graph, w.Class, topology.TargetQuery{Depth: 2, Stub: true})
	return node, err == nil
}

// ScaledCoreK scales the paper's 62-AS high-degree core (62 of 42697
// ASes) to this world's size, floored just above the tier-1 count so the
// "core" stays meaningful on small generated topologies.
func (w *World) ScaledCoreK() int {
	k := 62 * w.Graph.N() / 42697
	if k < len(w.Class.Tier1)+3 {
		k = len(w.Class.Tier1) + 3
	}
	return k
}

// Depth1Target returns the paper's AS98 analog: a multi-homed depth-1
// stub (single-homed or transit fallbacks keep small worlds working).
func (w *World) Depth1Target() (int, bool) {
	for _, q := range []topology.TargetQuery{
		{Depth: 1, Stub: true, MultiHomed: topology.Bool(true)},
		{Depth: 1, Stub: true},
		{Depth: 1},
	} {
		if node, err := topology.FindTarget(w.Graph, w.Class, q); err == nil {
			return node, true
		}
	}
	return -1, false
}

// SampleAttackers returns attackers for a sweep: the full population when
// sample ≤ 0 or ≥ len(pool), otherwise a random subset drawn from rng.
// Callers own the generator (see rngFor), so every sample is replayable
// from a configured seed.
func SampleAttackers(pool []int, sample int, rng *rand.Rand) []int {
	if sample <= 0 || sample >= len(pool) {
		return pool
	}
	cp := append([]int(nil), pool...)
	rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
	return cp[:sample]
}

// rngFor returns the deterministic generator for one sampled quantity,
// derived from the configured seed plus the quantity's name. Every purpose
// gets its own independent stream, so two generators built from one seed
// never alias — a runner that draws its attack workload and its probe set
// from the same raw seed would otherwise make the two selections
// correlated copies of each other. Adding a new purpose never shifts the
// streams — and therefore the published rows — of existing ones, and
// deliberately repeating a purpose string replays the identical stream
// (Fig4's paired attacker pools document that on purpose).
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])            //nolint:errcheck // hash.Hash cannot fail
	h.Write([]byte(purpose)) //nolint:errcheck
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
