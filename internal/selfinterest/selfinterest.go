// Package selfinterest implements the paper's Section VII "pragmatic
// self-interest" toolkit: measuring a region's exposure to hijacks of one
// of its ASes, reducing vulnerability by re-homing the AS to a
// shallower provider, and placing a single targeted filter at the
// regional transit hub — the New Zealand / AS55857 / VOCUS case study,
// generalized.
package selfinterest

import (
	"fmt"
	"math/rand"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// RegionalResult measures how badly hijacks of one target pollute the
// target's own region, split by where the attack originates.
type RegionalResult struct {
	Region     int
	RegionSize int

	InsideAttacks int     // number of attacks launched from region members
	InsideMean    float64 // mean polluted region ASes per inside attack
	InsideFrac    float64 // InsideMean / RegionSize

	OutsideAttacks int // random sample of attacks from outside the region
	OutsideMean    float64
	OutsideFrac    float64
}

// MeasureRegional attacks the target from every AS inside the region and
// from a random sample of outsideSample ASes elsewhere, counting how many
// region ASes each attack pollutes. The outside sample is drawn from rng;
// callers comparing two policies must hand each call a generator built
// from the same seed so both measure the identical sample. Blocked is the
// active filter set (nil = none).
func MeasureRegional(pol *core.Policy, target, region, outsideSample int, rng *rand.Rand, blocked *asn.IndexSet) (*RegionalResult, error) {
	g := pol.Graph()
	regionNodes := g.RegionNodes(region)
	if len(regionNodes) == 0 {
		return nil, fmt.Errorf("regional measure: region %d is empty", region)
	}
	if target < 0 || target >= g.N() || g.Region(target) != region {
		return nil, fmt.Errorf("regional measure: target %d not in region %d", target, region)
	}

	// Every region member but the target attacks, then the outside
	// sample, deterministic for the generator's state.
	attackers := make([]int, 0, len(regionNodes))
	for _, a := range regionNodes {
		if a != target {
			attackers = append(attackers, a)
		}
	}
	inside := len(attackers)
	var outside []int
	for i := 0; i < g.N(); i++ {
		if g.Region(i) != region {
			outside = append(outside, i)
		}
	}
	rng.Shuffle(len(outside), func(i, j int) { outside[i], outside[j] = outside[j], outside[i] })
	attackers = append(attackers, outside[:min(outsideSample, len(outside))]...)

	// One run over both samples: the attacks share the target and the
	// blocked set, so the runtime solves them as lane batches.
	var sums [2]int // polluted region members, inside and outside
	job := func(i int) (core.Attack, core.Defense) {
		return core.Attack{Target: target, Attacker: attackers[i]}, core.Defense{Blocked: blocked}
	}
	regionalPollution := func(_ int, o *core.Outcome) int {
		c := 0
		for _, i := range regionNodes {
			if o.Polluted(i) {
				c++
			}
		}
		return c
	}
	sum := sweep.ReduceFunc[int]{EmitFn: func(i, p int) {
		if i < inside {
			sums[0] += p
		} else {
			sums[1] += p
		}
	}}
	if err := sweep.RunReduce(pol, len(attackers), job, sweep.Options{}, regionalPollution, sum); err != nil {
		return nil, fmt.Errorf("regional measure: %w", err)
	}

	res := &RegionalResult{Region: region, RegionSize: len(regionNodes), InsideAttacks: inside, OutsideAttacks: len(attackers) - inside}
	if res.InsideAttacks > 0 {
		res.InsideMean = float64(sums[0]) / float64(res.InsideAttacks)
		res.InsideFrac = res.InsideMean / float64(res.RegionSize)
	}
	if res.OutsideAttacks > 0 {
		res.OutsideMean = float64(sums[1]) / float64(res.OutsideAttacks)
		res.OutsideFrac = res.OutsideMean / float64(res.RegionSize)
	}
	return res, nil
}

// RegionHub returns the region's dominant transit AS — the VOCUS analog
// where one targeted filter gives regional leverage. Dominance is measured
// by how much of the region sits in the AS's customer cone (the routes a
// filter there actually guards), with degree and ASN as tie-breaks.
func RegionHub(g *topology.Graph, region int) (int, error) {
	nodes := g.RegionNodes(region)
	inRegion := make(map[int]bool, len(nodes))
	for _, i := range nodes {
		inRegion[i] = true
	}
	best, bestCone := -1, -1
	for _, i := range nodes {
		if !g.IsTransit(i) {
			continue
		}
		cone := regionalCone(g, i, inRegion)
		better := cone > bestCone
		if cone == bestCone && best >= 0 {
			if d1, d2 := g.Degree(i), g.Degree(best); d1 != d2 {
				better = d1 > d2
			} else {
				better = g.ASN(i) < g.ASN(best)
			}
		}
		if better {
			best, bestCone = i, cone
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("region %d has no transit AS", region)
	}
	return best, nil
}

// regionalCone counts region members inside node i's customer cone.
func regionalCone(g *topology.Graph, i int, inRegion map[int]bool) int {
	visited := map[int]bool{i: true}
	queue := []int{i}
	count := 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if inRegion[v] {
			count++
		}
		nbrs, rels := g.Neighbors(v)
		for k, nb := range nbrs {
			if rels[k] == topology.RelCustomer && !visited[int(nb)] {
				visited[int(nb)] = true
				queue = append(queue, int(nb))
			}
		}
	}
	return count
}

// RehomeUp re-homes the target "up N levels", reducing its depth by up to
// `levels`: it makes the ancestor levels+1 hops up the shortest provider
// chain the target's (sole) new provider (homing to an AS at depth d
// yields depth d+1), returning the modified graph and the new provider.
// This is the paper's first Section VII experiment ("re-homed AS55857 up
// two levels").
func RehomeUp(g *topology.Graph, c *topology.Classification, target, levels int) (*topology.Graph, int, error) {
	if levels < 1 {
		return nil, 0, fmt.Errorf("rehome: levels must be ≥ 1, got %d", levels)
	}
	if c.Depth[target] == topology.DepthUnreachable {
		return nil, 0, fmt.Errorf("rehome: target %d has no provider chain", target)
	}
	cur := target
	for step := 0; step < levels+1; step++ {
		if c.Depth[cur] == 0 {
			break // cannot go above the anchor
		}
		nbrs, rels := g.Neighbors(cur)
		next := -1
		for k, nb := range nbrs {
			if rels[k] == topology.RelProvider && c.Depth[nb] == c.Depth[cur]-1 {
				if next == -1 || g.ASN(int(nb)) < g.ASN(next) {
					next = int(nb)
				}
			}
		}
		if next == -1 {
			break
		}
		cur = next
	}
	if cur == target {
		return nil, 0, fmt.Errorf("rehome: no shallower provider found for %d", target)
	}
	ng, err := topology.Rehome(g, target, []int{cur})
	if err != nil {
		return nil, 0, err
	}
	return ng, cur, nil
}

// RehomeResult holds the before/after comparison of a re-homing
// experiment.
type RehomeResult struct {
	Before      *RegionalResult
	After       *RegionalResult
	OldDepth    int
	NewDepth    int
	NewProvider int // node index in the ORIGINAL graph
}

// RehomeExperiment measures regional exposure, re-homes the target up
// `levels`, and measures again on the modified internet (same node
// indexing: re-homing preserves the AS set).
func RehomeExperiment(g *topology.Graph, c *topology.Classification, target, levels, region, outsideSample int, seed int64, opts ...core.PolicyOption) (*RehomeResult, error) {
	pol, err := core.NewPolicy(g, c.Tier1, opts...)
	if err != nil {
		return nil, err
	}
	// Both measurements get a fresh generator from the same seed on
	// purpose: the before/after comparison must attack from the identical
	// outside sample, or sampling noise would masquerade as a re-homing
	// effect.
	before, err := MeasureRegional(pol, target, region, outsideSample, rand.New(rand.NewSource(seed)), nil)
	if err != nil {
		return nil, fmt.Errorf("rehome experiment (before): %w", err)
	}
	ng, newProv, err := RehomeUp(g, c, target, levels)
	if err != nil {
		return nil, err
	}
	nc := topology.Classify(ng, topology.ClassifyOptions{})
	npol, err := core.NewPolicy(ng, nc.Tier1, opts...)
	if err != nil {
		return nil, err
	}
	after, err := MeasureRegional(npol, target, region, outsideSample, rand.New(rand.NewSource(seed)), nil)
	if err != nil {
		return nil, fmt.Errorf("rehome experiment (after): %w", err)
	}
	return &RehomeResult{
		Before:      before,
		After:       after,
		OldDepth:    c.Depth[target],
		NewDepth:    nc.Depth[target],
		NewProvider: newProv,
	}, nil
}

// FilterResult holds the before/after comparison of placing one targeted
// filter at a regional hub.
type FilterResult struct {
	Base     *RegionalResult
	Filtered *RegionalResult
	FilterAS int
}

// FilterExperiment measures regional exposure with and without a single
// origin-validation filter at the region's transit hub — the paper's
// "added a single prefix filter to VOCUS at AS4826" experiment.
func FilterExperiment(pol *core.Policy, target, region, outsideSample int, seed int64) (*FilterResult, error) {
	g := pol.Graph()
	hub, err := RegionHub(g, region)
	if err != nil {
		return nil, err
	}
	// Same seed for both runs, deliberately: with and without the filter
	// must face the identical outside attack sample for the delta to be
	// attributable to the filter alone.
	base, err := MeasureRegional(pol, target, region, outsideSample, rand.New(rand.NewSource(seed)), nil)
	if err != nil {
		return nil, fmt.Errorf("filter experiment (base): %w", err)
	}
	blocked := asn.NewIndexSet(g.N())
	blocked.Add(hub)
	filtered, err := MeasureRegional(pol, target, region, outsideSample, rand.New(rand.NewSource(seed)), blocked)
	if err != nil {
		return nil, fmt.Errorf("filter experiment (filtered): %w", err)
	}
	return &FilterResult{Base: base, Filtered: filtered, FilterAS: hub}, nil
}
