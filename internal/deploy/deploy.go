// Package deploy models incremental rollout of BGP origin-hijack
// prevention (Section V of the paper): strategies for choosing which ASes
// deploy route-origin validation, and the machinery to evaluate how much
// each deployment set reduces a target's vulnerability.
package deploy

import (
	"fmt"
	"math/rand"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// Strategy is a named set of ASes deploying origin validation.
type Strategy struct {
	Name  string
	Nodes []int
}

// Blocked materializes the strategy as an IndexSet for the solver.
func (s Strategy) Blocked(n int) *asn.IndexSet {
	if len(s.Nodes) == 0 {
		return nil
	}
	set := asn.NewIndexSet(n)
	for _, i := range s.Nodes {
		set.Add(i)
	}
	return set
}

// None is the undefended baseline.
func None() Strategy { return Strategy{Name: "baseline (no filters)"} }

// Random deploys at k transit ASes chosen uniformly at random — the
// paper's model of uncoordinated voluntary adoption ("various random ASes
// are motivated to deploy BGP security on their own"). The caller supplies
// the generator, so one seed replays one exact deployment set.
func Random(g *topology.Graph, k int, rng *rand.Rand) Strategy {
	transit := g.TransitNodes()
	rng.Shuffle(len(transit), func(i, j int) { transit[i], transit[j] = transit[j], transit[i] })
	if k > len(transit) {
		k = len(transit)
	}
	return Strategy{Name: fmt.Sprintf("random %d transit ASes", k), Nodes: transit[:k]}
}

// Tier1 deploys at exactly the tier-1 ASes ("this scenario was run under
// the assumption that the tier-1 ASes can act on their own, to everyone's
// benefit").
func Tier1(c *topology.Classification) Strategy {
	return Strategy{
		Name:  fmt.Sprintf("%d tier-1 ASes", len(c.Tier1)),
		Nodes: append([]int(nil), c.Tier1...),
	}
}

// DegreeAtLeast deploys at every AS with degree ≥ min — the paper's
// methodical core-outward strategy ("filter 62 ASes with degree ≥ 500",
// 124 @ ≥300, 166 @ ≥200, 299 @ ≥100).
func DegreeAtLeast(g *topology.Graph, min int) Strategy {
	nodes := topology.NodesWithDegreeAtLeast(g, min)
	return Strategy{
		Name:  fmt.Sprintf("%d ASes with degree ≥ %d", len(nodes), min),
		Nodes: nodes,
	}
}

// TopDegree deploys at the k highest-degree ASes. At reduced topology
// scale this is the shape-preserving equivalent of the paper's absolute
// degree thresholds.
func TopDegree(g *topology.Graph, k int) Strategy {
	return topOf(topology.NodesByDegree(g), k)
}

// topOf is TopDegree over a precomputed NodesByDegree order, so a ladder
// of rungs ranks the graph once.
func topOf(order []int, k int) Strategy {
	if k > len(order) {
		k = len(order)
	}
	return Strategy{
		Name:  fmt.Sprintf("top %d ASes by degree", k),
		Nodes: append([]int(nil), order[:k]...),
	}
}

// DepthRanked deploys at the k shallowest transit ASes — depth being the
// provider-hop distance from the tier-1 clique — breaking ties by degree
// (descending) then node index. The shallow core carries most valley-free
// paths, so depth ranking is the path-coverage counterpart of the paper's
// degree ranking; the scenario study contrasts the two per attack kind.
func DepthRanked(g *topology.Graph, c *topology.Classification, k int) Strategy {
	// NodesByDegree lists nodes by (-degree, index); one stable counting
	// pass by depth over its transit nodes makes the order (depth,
	// -degree, index), in linear time.
	var transit []int
	maxDepth := 0
	for _, v := range topology.NodesByDegree(g) {
		if g.IsTransit(v) {
			transit = append(transit, v)
			maxDepth = max(maxDepth, c.Depth[v])
		}
	}
	// Unreachable (depth -1) sorts after every finite depth.
	bucket := func(v int) int {
		if d := c.Depth[v]; d != topology.DepthUnreachable {
			return d
		}
		return maxDepth + 1
	}
	start := make([]int, maxDepth+3)
	for _, v := range transit {
		start[bucket(v)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	nodes := make([]int, len(transit))
	for _, v := range transit {
		b := bucket(v)
		nodes[start[b]] = v
		start[b]++
	}
	if k > len(nodes) {
		k = len(nodes)
	}
	return Strategy{
		Name:  fmt.Sprintf("%d shallowest transit ASes", k),
		Nodes: nodes[:k],
	}
}

// Custom wraps an explicit deployment set.
func Custom(name string, nodes []int) Strategy {
	return Strategy{Name: name, Nodes: append([]int(nil), nodes...)}
}

// Evaluation is the outcome of one strategy against one target.
type Evaluation struct {
	Strategy Strategy
	Result   *hijack.SweepResult
}

// Evaluate sweeps the target with every strategy, using the same attacker
// population, so the resulting curves are directly comparable (the paper's
// Figures 5 and 6). All (strategy × attack) pairs are flattened into one
// parallel run on the shared sweep kernel; workers bounds solve parallelism
// (0 = GOMAXPROCS) and results are bit-identical at any worker count.
func Evaluate(pol *core.Policy, target int, attackers []int, strategies []Strategy, workers int) ([]Evaluation, error) {
	results, err := hijack.SweepAll(pol,
		ConfigsScenario(pol, target, attackers, strategies, core.KindOrigin, core.MechROV),
		sweep.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("evaluate deployment ladder: %w", err)
	}
	return Evaluations(strategies, results), nil
}

// ConfigsScenario flattens a strategy ladder into the hijack
// sweep-configuration list the matrix runtime runs: same target, same
// attacker population, one deployment set per rung. Every rung deploys
// mechs at its strategy's node set and is swept with kind attacks;
// KindOrigin + MechROV is the paper's model.
func ConfigsScenario(pol *core.Policy, target int, attackers []int, strategies []Strategy, kind core.AttackKind, mechs core.DefenseMech) []hijack.SweepConfig {
	cfgs := make([]hijack.SweepConfig, len(strategies))
	for i, st := range strategies {
		def := mechs.Deploy(st.Blocked(pol.N()))
		cfgs[i] = hijack.SweepConfig{
			Target:    target,
			Attackers: attackers,
			Blocked:   def.Blocked,
			Defense:   def,
			Kind:      kind,
		}
	}
	return cfgs
}

// Evaluations pairs each ladder rung with its sweep result — the assembly
// step shared by Evaluate and the Figure 5/6 studies.
func Evaluations(strategies []Strategy, results []*hijack.SweepResult) []Evaluation {
	out := make([]Evaluation, len(strategies))
	for i, st := range strategies {
		out[i] = Evaluation{Strategy: st, Result: results[i]}
	}
	return out
}

// ResidualAttacks returns the k most potent attacks that still succeed
// under the strategy — the paper's "which attacks are capable of slipping
// by these defenses?" tables (ASN, pollution, degree, depth). Attackers
// that are themselves deployers are flagged.
func (e Evaluation) ResidualAttacks(k int, g *topology.Graph, c *topology.Classification) []hijack.AttackerStat {
	stats := e.Result.TopAttackers(k, g, c)
	deployed := make(map[int]bool, len(e.Strategy.Nodes))
	for _, n := range e.Strategy.Nodes {
		deployed[n] = true
	}
	for i := range stats {
		stats[i].Deployed = deployed[stats[i].Attacker]
	}
	return stats
}

// PaperLadder returns the paper's full Figure 5/6 strategy ladder scaled
// to the given topology: baseline, two random sizes, tier-1, and four
// core-outward rungs. Fractions follow the paper's population (100 and 500
// of 6318 transit ASes; 62/124/166/299 of 42697 total).
func PaperLadder(g *topology.Graph, c *topology.Classification, seed int64) []Strategy {
	nTransit := len(g.TransitNodes())
	scaleT := func(paper int) int {
		v := paper * nTransit / 6318
		if v < 1 {
			v = 1
		}
		return v
	}
	scaleAll := func(paper int) int {
		v := paper * g.N() / 42697
		if v < 1 {
			v = 1
		}
		return v
	}
	order := topology.NodesByDegree(g)
	// Each rung gets its own generator (seed, seed+1) so the two random
	// deployment sets stay independent draws, exactly as published runs
	// produced them.
	return []Strategy{
		None(),
		Random(g, scaleT(100), rand.New(rand.NewSource(seed))),
		Random(g, scaleT(500), rand.New(rand.NewSource(seed+1))),
		Tier1(c),
		topOf(order, scaleAll(62)),
		topOf(order, scaleAll(124)),
		topOf(order, scaleAll(166)),
		topOf(order, scaleAll(299)),
	}
}
