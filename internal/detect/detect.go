// Package detect models IP-hijack detection (Section VI of the paper):
// probe sets (BGP data feeds at chosen vantage ASes), random attack
// workloads, and the evaluation of how many attacks each probe
// configuration sees or misses.
package detect

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/recio"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// ProbeSet is a named collection of vantage ASes feeding a hijack
// detector.
type ProbeSet struct {
	Name   string
	Probes []int
}

// Tier1Probes peers the detector with every tier-1 AS (the paper's
// case 1, which surprisingly misses 34 % of attacks).
func Tier1Probes(c *topology.Classification) ProbeSet {
	return ProbeSet{
		Name:   fmt.Sprintf("%d tier-1 probes", len(c.Tier1)),
		Probes: append([]int(nil), c.Tier1...),
	}
}

// TopDegreeProbes peers with the k highest-degree ASes (the paper's
// case 3: "all 62 AS routers with degree ≥ 500").
func TopDegreeProbes(g *topology.Graph, k int) ProbeSet {
	order := topology.NodesByDegree(g)
	if k > len(order) {
		k = len(order)
	}
	return ProbeSet{
		Name:   fmt.Sprintf("top %d degree probes", k),
		Probes: append([]int(nil), order[:k]...),
	}
}

// BGPmonLikeProbes reproduces the paper's case 2 configuration class: a
// modest number (24 in the paper) of medium-degree transit ASes with a
// regional clustering bias, like the volunteer peers of a university
// monitoring service. Selection draws from the caller's generator, so the
// same seeded *rand.Rand always yields the same probe set.
func BGPmonLikeProbes(g *topology.Graph, c *topology.Classification, k int, rng *rand.Rand) ProbeSet {
	// Candidates: transit ASes that are neither tier-1 nor in the very top
	// of the degree distribution.
	order := topology.NodesByDegree(g)
	skip := len(order) / 50 // skip the top 2%
	var candidates []int
	for _, i := range order[skip:] {
		if g.IsTransit(i) && !c.IsTier1(i) {
			candidates = append(candidates, i)
		}
	}
	// Regional clustering: favor candidates from a couple of regions.
	var pick []int
	if len(candidates) > 0 {
		homeA := g.Region(candidates[rng.Intn(len(candidates))])
		homeB := g.Region(candidates[rng.Intn(len(candidates))])
		var clustered, rest []int
		for _, i := range candidates {
			if r := g.Region(i); r >= 0 && (r == homeA || r == homeB) {
				clustered = append(clustered, i)
			} else {
				rest = append(rest, i)
			}
		}
		rng.Shuffle(len(clustered), func(i, j int) { clustered[i], clustered[j] = clustered[j], clustered[i] })
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		// About two thirds from the home regions, the rest scattered.
		want := 2 * k / 3
		if want > len(clustered) {
			want = len(clustered)
		}
		pick = append(pick, clustered[:want]...)
		for _, i := range rest {
			if len(pick) >= k {
				break
			}
			pick = append(pick, i)
		}
	}
	sort.Ints(pick)
	return ProbeSet{Name: fmt.Sprintf("%d BGPmon-like probes", len(pick)), Probes: pick}
}

// CustomProbes wraps an explicit probe list.
func CustomProbes(name string, probes []int) ProbeSet {
	return ProbeSet{Name: name, Probes: append([]int(nil), probes...)}
}

// Semantics selects what counts as a probe "seeing" an attack.
type Semantics int

const (
	// SelectedRoute (paper semantics): a probe triggers when its AS
	// selects — and therefore re-exports — the bogus route. BGP feeds only
	// carry the routes the peer router itself chose.
	SelectedRoute Semantics = iota
	// AnyReceived (ablation): a probe triggers when any neighbor offered
	// it the bogus route, even if policy rejected it.
	AnyReceived
)

// GenerateAttacks draws n random attacker/target pairs (attacker ≠
// target) from the pool — the paper draws both from the 6318 transit ASes.
// Using one attack list across probe configurations makes the resulting
// miss rates directly comparable, as in Figure 7. The workload is a pure
// function of the supplied generator's state.
func GenerateAttacks(pool []int, n int, rng *rand.Rand) ([]core.Attack, error) {
	return GenerateAttacksOfKind(pool, n, core.KindOrigin, rng)
}

// GenerateAttacksOfKind is GenerateAttacks with an explicit attack
// scenario. The pair stream is identical across kinds for the same
// generator state, so per-scenario workloads stay directly comparable.
func GenerateAttacksOfKind(pool []int, n int, kind core.AttackKind, rng *rand.Rand) ([]core.Attack, error) {
	if len(pool) < 2 {
		return nil, fmt.Errorf("generate attacks: pool needs ≥ 2 ASes, has %d", len(pool))
	}
	out := make([]core.Attack, 0, n)
	for len(out) < n {
		a := pool[rng.Intn(len(pool))]
		t := pool[rng.Intn(len(pool))]
		if a == t {
			continue
		}
		out = append(out, core.Attack{Target: t, Attacker: a, Kind: kind})
	}
	return out, nil
}

// MissedAttack records one attack that no probe saw.
type MissedAttack struct {
	Attacker  int
	Target    int
	Pollution int
}

// Result summarizes one probe configuration against an attack workload
// (one bar group + line of Figure 7).
type Result struct {
	ProbeSet ProbeSet
	// TriggerHist[k] = number of attacks seen by exactly k probes
	// (k ranges 0..len(Probes)).
	TriggerHist []int
	// MeanPollutionByTriggers[k] = average polluted-AS count over attacks
	// seen by exactly k probes (NaN-free: 0 when the bucket is empty).
	MeanPollutionByTriggers []float64
	// Misses lists every attack with zero triggered probes, in workload
	// order.
	Misses []MissedAttack
	// TotalAttacks is the workload size.
	TotalAttacks int
}

// MissCount returns the number of completely undetected attacks.
func (r *Result) MissCount() int { return len(r.Misses) }

// MissRate returns the fraction of attacks that escaped detection.
func (r *Result) MissRate() float64 {
	if r.TotalAttacks == 0 {
		return 0
	}
	return float64(len(r.Misses)) / float64(r.TotalAttacks)
}

// MissSummary returns (mean, max) pollution over undetected attacks — the
// paper's "undetected attacks had an average AS pollution count of 2,344
// and a maximum of 20,306" numbers.
func (r *Result) MissSummary() (mean float64, max int) {
	if len(r.Misses) == 0 {
		return 0, 0
	}
	sum := 0
	for _, m := range r.Misses {
		sum += m.Pollution
		if m.Pollution > max {
			max = m.Pollution
		}
	}
	return float64(sum) / float64(len(r.Misses)), max
}

// TopMisses returns the k largest undetected attacks (the paper's "top 5
// undetected attacks" tables).
func (r *Result) TopMisses(k int) []MissedAttack {
	ms := append([]MissedAttack(nil), r.Misses...)
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Pollution != ms[j].Pollution {
			return ms[i].Pollution > ms[j].Pollution
		}
		if ms[i].Attacker != ms[j].Attacker {
			return ms[i].Attacker < ms[j].Attacker
		}
		return ms[i].Target < ms[j].Target
	})
	if k > len(ms) {
		k = len(ms)
	}
	return ms[:k]
}

// Evaluate runs the attack workload against one probe configuration.
// def is the deployed prevention the detection runs under (the zero
// Defense = none; the paper evaluates detection without prevention).
func Evaluate(pol *core.Policy, ps ProbeSet, attacks []core.Attack, sem Semantics, def core.Defense) (*Result, error) {
	res, err := EvaluateAll(pol, []ProbeSet{ps}, attacks, sem, def, 0)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Record is one attack's detection measurement: its pollution and, for
// every evaluated probe set, how many of that set's probes saw it. It is
// the matrix runtime's stream element and the shard-file payload.
type Record struct {
	Pollution int   `json:"pollution"`
	Triggers  []int `json:"triggers"`
}

// ColumnFields implements sweep.ColumnarRecord: the pollution count,
// then one "triggers.<j>" count per probe set, all small integers
// (delta-encoded). The width follows the record's own set count, so one
// shard — one list of sets — maps every record to the same columns.
func (r Record) ColumnFields() []recio.Field {
	fields := []recio.Field{{Name: "pollution", Kind: recio.KindDelta}}
	for j := range r.Triggers {
		fields = append(fields, recio.Field{Name: fmt.Sprintf("triggers.%d", j), Kind: recio.KindDelta})
	}
	return fields
}

// ColumnValues implements sweep.ColumnarRecord.
func (r Record) ColumnValues() []uint64 {
	vals := make([]uint64, 1+len(r.Triggers))
	vals[0] = uint64(r.Pollution)
	for j, n := range r.Triggers {
		vals[1+j] = uint64(n)
	}
	return vals
}

// SetColumnValues implements sweep.ColumnarRecord.
func (r *Record) SetColumnValues(vals []uint64) {
	r.Pollution = int(vals[0])
	r.Triggers = make([]int, len(vals)-1)
	for j := range r.Triggers {
		r.Triggers[j] = int(vals[1+j])
	}
}

var _ sweep.ColumnarRecord = (*Record)(nil)

// MatrixFor flattens a detection workload into a single-group matrix:
// one cell per attack, all under one policy. Sharding splits by cells,
// so the one big group still divides evenly across `-shard i/n` runs.
func MatrixFor(pol *core.Policy, attacks []core.Attack, def core.Defense) sweep.Matrix {
	return sweep.Matrix{
		Groups: 1,
		Size:   func(int) int { return len(attacks) },
		Policy: func(int) *core.Policy { return pol },
		Job:    func(_, k int) (core.Attack, core.Defense) { return attacks[k], def },
	}
}

// Extractor returns the per-attack measurement extractor: one solve
// serves every probe set (N× fewer solves than evaluating the sets one
// by one — Figure 7's three configurations share one 8000-attack solve
// pass). It runs concurrently on the workers.
func Extractor(pol *core.Policy, sets []ProbeSet, sem Semantics) func(g, k int, o *core.Outcome) Record {
	return func(_, _ int, o *core.Outcome) Record {
		return MeasureRecord(pol, sets, sem, o)
	}
}

// MeasureRecord measures one converged attack against every probe set —
// the query-shaped form of Extractor: it accepts any outcome view, so a
// delta-repaired solve from the query service produces the exact Record
// a batch solve of the same cell would.
func MeasureRecord(pol *core.Policy, sets []ProbeSet, sem Semantics, o core.OutcomeView) Record {
	var received []bool
	if sem == AnyReceived {
		received = core.ReceivedAttackerRoute(pol, o)
	}
	rec := Record{Pollution: o.PollutedCount(), Triggers: make([]int, len(sets))}
	for j := range sets {
		triggered := 0
		for _, p := range sets[j].Probes {
			switch sem {
			case SelectedRoute:
				if o.Polluted(p) {
					triggered++
				}
			case AnyReceived:
				if o.Polluted(p) || received[p] {
					triggered++
				}
			}
		}
		rec.Triggers[j] = triggered
	}
	return rec
}

// Results returns per-set result skeletons plus the streaming reducer
// that builds them incrementally from the in-order record stream —
// histograms, bucket means, and workload-ordered miss lists come out
// identical to the pre-kernel serial evaluation, without the per-attack
// pollution and trigger matrices the buffered path retained.
func Results(sets []ProbeSet, attacks []core.Attack) ([]*Result, sweep.Reducer[Record]) {
	out := make([]*Result, len(sets))
	sums := make([][]int, len(sets))
	for j, ps := range sets {
		out[j] = &Result{
			ProbeSet:                ps,
			TriggerHist:             make([]int, len(ps.Probes)+1),
			MeanPollutionByTriggers: make([]float64, len(ps.Probes)+1),
			TotalAttacks:            len(attacks),
		}
		sums[j] = make([]int, len(ps.Probes)+1)
	}
	return out, sweep.ReduceFunc[Record]{
		EmitFn: func(i int, rec Record) {
			for j := range sets {
				triggered := rec.Triggers[j]
				out[j].TriggerHist[triggered]++
				sums[j][triggered] += rec.Pollution
				if triggered == 0 {
					out[j].Misses = append(out[j].Misses, MissedAttack{
						Attacker: attacks[i].Attacker, Target: attacks[i].Target, Pollution: rec.Pollution,
					})
				}
			}
		},
		FinishFn: func() {
			for j := range out {
				for k := range out[j].MeanPollutionByTriggers {
					if out[j].TriggerHist[k] > 0 {
						out[j].MeanPollutionByTriggers[k] = float64(sums[j][k]) / float64(out[j].TriggerHist[k])
					}
				}
			}
		},
	}
}

// ValidateSets rejects empty workload descriptions before solving starts.
func ValidateSets(sets []ProbeSet) error {
	if len(sets) == 0 {
		return fmt.Errorf("evaluate detection: no probe sets")
	}
	for _, ps := range sets {
		if len(ps.Probes) == 0 {
			return fmt.Errorf("evaluate detection: probe set %q is empty", ps.Name)
		}
	}
	return nil
}

// EvaluateAll scores every probe configuration against the workload in
// one streaming matrix pass: each attack is solved exactly once, its
// Record extracted on the worker, and the in-order record stream reduced
// incrementally. workers bounds solve parallelism (0 = GOMAXPROCS);
// results are bit-identical at any worker count.
func EvaluateAll(pol *core.Policy, sets []ProbeSet, attacks []core.Attack, sem Semantics, def core.Defense, workers int) ([]*Result, error) {
	if err := ValidateSets(sets); err != nil {
		return nil, err
	}
	out, red := Results(sets, attacks)
	if err := sweep.RunMatrixReduce(MatrixFor(pol, attacks, def), sweep.MatrixOptions{Workers: workers}, Extractor(pol, sets, sem), red); err != nil {
		return nil, fmt.Errorf("evaluate detection: %w", err)
	}
	return out, nil
}
