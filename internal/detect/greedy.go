package detect

import (
	"fmt"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/sweep"
)

// GreedyProbes chooses up to k probe ASes by greedy set cover over a
// training workload: each round adds the candidate AS that detects the
// most still-undetected attacks. This operationalizes the paper's
// Section VI recommendation that "BGP detectors peer with as many
// high-degree, NON-OVERLAPPING ASes as possible" — degree ranks raw
// visibility, while the greedy criterion maximizes marginal (i.e.
// non-overlapping) coverage directly, with the usual (1−1/e)
// approximation guarantee of submodular maximization.
//
// candidates defaults to all transit ASes when nil. The returned set is
// deterministic for a given workload and candidate order.
func GreedyProbes(pol *core.Policy, attacks []core.Attack, candidates []int, k int) (ProbeSet, error) {
	if k <= 0 {
		return ProbeSet{}, fmt.Errorf("greedy probes: k must be positive, got %d", k)
	}
	if len(attacks) == 0 {
		return ProbeSet{}, fmt.Errorf("greedy probes: empty training workload")
	}
	if candidates == nil {
		candidates = pol.Graph().TransitNodes()
	}
	if len(candidates) == 0 {
		return ProbeSet{}, fmt.Errorf("greedy probes: no candidates")
	}

	// coverage[c] = bitset of attack indices candidate c would detect,
	// filled in attack order from the runtime's in-order stream.
	coverage := make(map[int]*asn.IndexSet, len(candidates))
	for _, c := range candidates {
		coverage[c] = asn.NewIndexSet(len(attacks))
	}
	detectors := func(_, _ int, o *core.Outcome) []int {
		var hit []int
		for _, c := range candidates {
			if o.Polluted(c) {
				hit = append(hit, c)
			}
		}
		return hit
	}
	fill := sweep.ReduceFunc[[]int]{EmitFn: func(i int, hit []int) {
		for _, c := range hit {
			coverage[c].Add(i)
		}
	}}
	if err := sweep.RunMatrixReduce(MatrixFor(pol, attacks, core.Defense{}), sweep.MatrixOptions{}, detectors, fill); err != nil {
		return ProbeSet{}, fmt.Errorf("greedy probes: %w", err)
	}

	undetected := asn.NewIndexSet(len(attacks))
	for i := range attacks {
		undetected.Add(i)
	}
	var chosen []int
	used := make(map[int]bool, k)
	scratch := make([]int, 0, len(attacks))
	for len(chosen) < k && undetected.Count() > 0 {
		best, bestGain := -1, 0
		for _, c := range candidates {
			if used[c] {
				continue
			}
			gain := 0
			scratch = coverage[c].Members(scratch[:0])
			for _, i := range scratch {
				if undetected.Contains(i) {
					gain++
				}
			}
			if gain > bestGain || gain == bestGain && gain > 0 && best >= 0 &&
				pol.Graph().ASN(c) < pol.Graph().ASN(best) {
				best, bestGain = c, gain
			}
		}
		if best < 0 || bestGain == 0 {
			break // nothing left to gain
		}
		used[best] = true
		chosen = append(chosen, best)
		scratch = coverage[best].Members(scratch[:0])
		for _, i := range scratch {
			undetected.Remove(i)
		}
	}
	return ProbeSet{
		Name:   fmt.Sprintf("%d greedy set-cover probes", len(chosen)),
		Probes: chosen,
	}, nil
}
