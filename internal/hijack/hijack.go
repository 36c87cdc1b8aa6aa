// Package hijack implements the paper's attack-measurement machinery:
// sweeping a target with attacks from many attacker ASes (the Section IV
// vulnerability analysis), per-attack pollution accounting in AS count and
// address-space weight, top-attacker ranking, and the vulnerability/depth
// correlation measurements.
package hijack

import (
	"fmt"
	"math"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/recio"
	"github.com/bgpsim/bgpsim/internal/stats"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// SweepConfig configures a vulnerability sweep against one target.
type SweepConfig struct {
	// Target is the victim node whose address space is hijacked.
	Target int
	// Attackers are the nodes to originate the hijack from, one attack
	// each; the target itself is skipped if present. Use every other AS
	// for the paper's worst case, or the transit ASes for its "optimistic"
	// stub-filtered case.
	Attackers []int
	// Blocked is the origin-validation (ROV) deployment set (nil = none);
	// it is Defense.Blocked kept as a top-level field for the paper's
	// original single-mechanism runs.
	Blocked *asn.IndexSet
	// Defense carries the full deployed-defense model (ASPA validators,
	// Peerlock) for scenario sweeps. When Blocked is also set it takes
	// the ROV slot unless Defense.Blocked is set too.
	Defense core.Defense
	// Kind selects the attack scenario swept (zero = exact/sub-prefix
	// type-0 origin hijack).
	Kind core.AttackKind
	// SubPrefix switches every attack to a sub-prefix hijack.
	SubPrefix bool
}

// defense resolves the configuration's effective Defense value.
func (c *SweepConfig) defense() core.Defense {
	d := c.Defense
	if d.Blocked == nil {
		d.Blocked = c.Blocked
	}
	return d
}

// SweepResult holds per-attack pollution measurements, parallel slices
// indexed by attack number.
type SweepResult struct {
	Target     int
	Attackers  []int     // attacker node per attack
	Pollution  []int     // polluted AS count per attack
	WeightFrac []float64 // polluted address-space fraction per attack
}

// Record is one attack's self-contained measurement: the two numbers
// every downstream curve and table is built from. It is the matrix
// runtime's stream element and the shard-file payload — JSON and
// columnar round trips preserve it exactly (Go prints float64 at
// shortest-exact precision; columns carry its bits).
type Record struct {
	Pollution  int     `json:"pollution"`
	WeightFrac float64 `json:"weight_frac"`
}

// ColumnFields implements sweep.ColumnarRecord: pollution counts are
// small and slowly-moving (delta-encoded), weight fractions are raw
// float64 bits. The names are the JSON tags.
func (Record) ColumnFields() []recio.Field {
	return []recio.Field{
		{Name: "pollution", Kind: recio.KindDelta},
		{Name: "weight_frac", Kind: recio.KindFloat},
	}
}

// ColumnValues implements sweep.ColumnarRecord.
func (r Record) ColumnValues() []uint64 {
	return []uint64{uint64(r.Pollution), math.Float64bits(r.WeightFrac)}
}

// SetColumnValues implements sweep.ColumnarRecord.
func (r *Record) SetColumnValues(vals []uint64) {
	r.Pollution = int(vals[0])
	r.WeightFrac = math.Float64frombits(vals[1])
}

// Record's column mapping must keep satisfying the codec seam it rides.
var _ sweep.ColumnarRecord = (*Record)(nil)

// Measure compresses a transient outcome into a Record. totalWeight is
// the solved graph's TotalAddrWeight(), hoisted by the caller so
// per-attack extraction stays allocation-free. The outcome weighs its
// polluted ASes by its own policy's graph, so Measure reads nothing of g,
// which it keeps for the callers that pass it. It accepts any converged
// view — a batch solve and a delta repair of the same attack measure
// identically (the weight accumulator is an integer, so the sum is
// order-free).
func Measure(g *topology.Graph, totalWeight int64, o core.OutcomeView) Record {
	count, weight := o.PollutedWeight()
	rec := Record{Pollution: count}
	if totalWeight > 0 {
		rec.WeightFrac = float64(weight) / float64(totalWeight)
	}
	return rec
}

// Workload is the validated matrix form of a configuration list: one
// matrix group per configuration, one cell per surviving attacker (the
// target itself is filtered out), all under one policy.
type Workload struct {
	Matrix sweep.Matrix
	// Attackers[c] is configuration c's validated attacker list — the
	// Attackers slice of the c-th SweepResult.
	Attackers [][]int
	cfgs      []SweepConfig
	pol       *core.Policy
}

// NewWorkload validates cfgs against the policy and flattens them into a
// matrix.
func NewWorkload(pol *core.Policy, cfgs []SweepConfig) (*Workload, error) {
	n := pol.N()
	w := &Workload{Attackers: make([][]int, len(cfgs)), cfgs: cfgs, pol: pol}
	for ci, cfg := range cfgs {
		if cfg.Target < 0 || cfg.Target >= n {
			return nil, fmt.Errorf("sweep: target %d out of range", cfg.Target)
		}
		if cfg.Kind == core.KindRouteLeak && cfg.SubPrefix {
			return nil, fmt.Errorf("sweep: config %d: a route leak re-announces the real prefix; sub-prefix route leaks are invalid", ci)
		}
		attackers := make([]int, 0, len(cfg.Attackers))
		for _, a := range cfg.Attackers {
			if a == cfg.Target {
				continue
			}
			if a < 0 || a >= n {
				return nil, fmt.Errorf("sweep: attacker %d out of range", a)
			}
			attackers = append(attackers, a)
		}
		w.Attackers[ci] = attackers
	}
	w.Matrix = sweep.Matrix{
		Groups: len(cfgs),
		Size:   func(c int) int { return len(w.Attackers[c]) },
		Policy: func(int) *core.Policy { return pol },
		Job: func(c, k int) (core.Attack, core.Defense) {
			cfg := &w.cfgs[c]
			return core.Attack{
				Target:    cfg.Target,
				Attacker:  w.Attackers[c][k],
				SubPrefix: cfg.SubPrefix,
				Kind:      cfg.Kind,
			}, cfg.defense()
		},
	}
	return w, nil
}

// Extract returns the per-cell measurement extractor for the matrix
// runtime; it runs concurrently on the workers.
func (w *Workload) Extract() func(c, k int, o *core.Outcome) Record {
	g := w.pol.Graph()
	totalWeight := g.TotalAddrWeight()
	return func(_, _ int, o *core.Outcome) Record { return Measure(g, totalWeight, o) }
}

// Results returns per-configuration result skeletons plus the streaming
// reducer that fills them from the workload's in-order record stream;
// results are complete once the stream finishes.
func (w *Workload) Results() ([]*SweepResult, sweep.Reducer[Record]) {
	results := make([]*SweepResult, len(w.cfgs))
	sizes := make([]int, len(w.cfgs))
	for ci := range w.cfgs {
		sizes[ci] = len(w.Attackers[ci])
		results[ci] = &SweepResult{
			Target:     w.cfgs[ci].Target,
			Attackers:  w.Attackers[ci],
			Pollution:  make([]int, 0, sizes[ci]),
			WeightFrac: make([]float64, 0, sizes[ci]),
		}
	}
	// Cursor over the group-major stream: records for configuration c
	// arrive contiguously, in attack order.
	ci := 0
	advance := func() {
		for ci < len(results) && len(results[ci].Pollution) == sizes[ci] {
			ci++
		}
	}
	advance()
	return results, sweep.ReduceFunc[Record]{EmitFn: func(_ int, rec Record) {
		r := results[ci]
		r.Pollution = append(r.Pollution, rec.Pollution)
		r.WeightFrac = append(r.WeightFrac, rec.WeightFrac)
		advance()
	}}
}

// Sweep attacks the target from every configured attacker and records the
// pollution each attack achieves. It is a thin wrapper over SweepAll's
// shared matrix runtime.
func Sweep(pol *core.Policy, cfg SweepConfig, opts sweep.Options) (*SweepResult, error) {
	res, err := SweepAll(pol, []SweepConfig{cfg}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SweepAll runs several sweep configurations as one flattened matrix run
// over every (configuration, attack) pair, so a deployment ladder's
// strategies load-balance across one worker pool instead of running rung
// by rung. Results are index-ordered per configuration and bit-identical
// at any worker count (DESIGN.md §5, §7).
func SweepAll(pol *core.Policy, cfgs []SweepConfig, opts sweep.Options) ([]*SweepResult, error) {
	w, err := NewWorkload(pol, cfgs)
	if err != nil {
		return nil, err
	}
	results, red := w.Results()
	if err := sweep.RunMatrixReduce(w.Matrix, sweep.MatrixOptions{Workers: opts.Workers}, w.Extract(), red); err != nil {
		return nil, err
	}
	return results, nil
}

// CCDF returns the vulnerability-analysis curve (Figures 2–6): how many
// attacks achieved at least X polluted ASes.
func (r *SweepResult) CCDF() []stats.CCDFPoint { return stats.CCDF(r.Pollution) }

// Summary returns distribution statistics over per-attack pollution.
func (r *SweepResult) Summary() stats.Summary { return stats.Summarize(r.Pollution) }

// CountAttacksAtLeast returns how many attacks polluted ≥ threshold ASes —
// the paper's "only N attackers can pollute more than X ASes" statements.
func (r *SweepResult) CountAttacksAtLeast(threshold int) int {
	return stats.CountAtLeast(r.Pollution, threshold)
}

// AttackerStat describes one attack for ranking tables.
type AttackerStat struct {
	Attacker  int
	ASN       asn.ASN
	Pollution int
	Degree    int
	Depth     int
	// Deployed marks attackers that are themselves part of the evaluated
	// filter deployment (a deployer-turned-attacker still originates its
	// own announcement; only its *import* filtering is bypassed).
	Deployed bool
}

// TopAttackers returns the k most potent attacks, ranked by pollution
// (ties by ascending ASN), annotated with the attacker's degree and depth —
// the Section V "top 5 still-potent attacks" tables.
func (r *SweepResult) TopAttackers(k int, g *topology.Graph, c *topology.Classification) []AttackerStat {
	idx := make([]int, len(r.Attackers))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: k is small (tables show 5).
	if k > len(idx) {
		k = len(idx)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			pi, pj := r.Pollution[idx[j]], r.Pollution[idx[best]]
			if pi > pj || pi == pj && g.ASN(r.Attackers[idx[j]]) < g.ASN(r.Attackers[idx[best]]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	out := make([]AttackerStat, 0, k)
	for _, i := range idx[:k] {
		a := r.Attackers[i]
		out = append(out, AttackerStat{
			Attacker:  a,
			ASN:       g.ASN(a),
			Pollution: r.Pollution[i],
			Degree:    g.Degree(a),
			Depth:     c.Depth[a],
		})
	}
	return out
}

// AggressivenessDepthCorrelation measures the paper's Section IV claim
// that "attacker aggressiveness has a strong negative correlation with
// attacker depth": it correlates per-attack pollution against attacker
// depth and returns the Spearman rank coefficient.
func (r *SweepResult) AggressivenessDepthCorrelation(c *topology.Classification) (float64, error) {
	return DepthCorrelation(r.Attackers, r.Pollution, c)
}

// DepthCorrelation is AggressivenessDepthCorrelation over parallel
// attacker/pollution slices, for streaming consumers that reduce a
// record stream without materializing a SweepResult.
func DepthCorrelation(attackers []int, pollution []int, c *topology.Classification) (float64, error) {
	xs := make([]float64, 0, len(attackers))
	ys := make([]float64, 0, len(attackers))
	for i, a := range attackers {
		if c.Depth[a] == topology.DepthUnreachable {
			continue
		}
		xs = append(xs, float64(c.Depth[a]))
		ys = append(ys, float64(pollution[i]))
	}
	return stats.Spearman(xs, ys)
}

// AllNodes returns 0..n-1, the paper's worst-case attacker population.
func AllNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
