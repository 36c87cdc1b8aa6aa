package bgpsim

import (
	"fmt"
	"io"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/internal/stats"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// Re-exported building blocks. These aliases are the public names of the
// library's core types; the internal packages are implementation layout.
type (
	// ASN is an autonomous system number.
	ASN = asn.ASN
	// Prefix is an IPv4 CIDR block.
	Prefix = prefix.Prefix
	// Graph is an immutable AS-level topology.
	Graph = topology.Graph
	// GenParams configures the synthetic Internet generator.
	GenParams = topology.GenParams
	// Classification holds tier sets and depth metrics.
	Classification = topology.Classification
	// TargetQuery selects ASes by topological role.
	TargetQuery = topology.TargetQuery
	// Policy is the compiled routing-policy context.
	Policy = core.Policy
	// Outcome is one converged routing state.
	Outcome = core.Outcome
	// Trace is a generation-by-generation propagation record.
	Trace = core.Trace
	// Strategy is a named filter-deployment set.
	Strategy = deploy.Strategy
	// ProbeSet is a named detector vantage configuration.
	ProbeSet = detect.ProbeSet
	// SweepResult holds per-attack pollution measurements for one target.
	SweepResult = hijack.SweepResult
	// CCDFPoint is one point of a vulnerability curve.
	CCDFPoint = stats.CCDFPoint
	// World bundles graph, classification and policy for the experiment
	// runners in internal/experiments.
	World = experiments.World
	// OriginValidator is the RPKI/ROVER origin-authorization oracle.
	OriginValidator = rpki.OriginValidator
	// ROA is a Route Origin Authorization.
	ROA = rpki.ROA
)

// ParsePrefix parses CIDR notation ("129.82.0.0/16").
func ParsePrefix(s string) (Prefix, error) { return prefix.Parse(s) }

// ParseASN parses an AS number with or without the "AS" prefix.
func ParseASN(s string) (ASN, error) { return asn.Parse(s) }

// Simulator is the high-level entry point: a generated or loaded internet
// plus its routing policy, addressed by ASN. Its methods are safe for
// concurrent use, except that PublishROA must not run alongside a method
// that reads the ROA store.
type Simulator struct {
	world *experiments.World
	roas  rpki.Store
}

// Option configures New and Load.
type Option func(*options)

type options struct {
	scale      int
	seed       int64
	genParams  *topology.GenParams
	policyOpts []core.PolicyOption
}

// WithScale sets the approximate AS count of the generated internet
// (default 5000; pass 42697 for paper scale).
func WithScale(n int) Option { return func(o *options) { o.scale = n } }

// WithSeed fixes the generator seed (default 1); identical seeds produce
// identical internets.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithGenParams overrides the generator parameters entirely.
func WithGenParams(p GenParams) Option { return func(o *options) { o.genParams = &p } }

// WithTier1ShortestPath toggles the paper's tier-1 shortest-path import
// override (default on).
func WithTier1ShortestPath(on bool) Option {
	return func(o *options) {
		o.policyOpts = append(o.policyOpts, core.WithTier1ShortestPath(on))
	}
}

func gather(opts []Option) options {
	o := options{scale: 5000, seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// New builds a Simulator over a synthetic internet.
func New(opts ...Option) (*Simulator, error) {
	o := gather(opts)
	p := topology.DefaultParams(o.scale)
	p.Seed = o.seed
	if o.genParams != nil {
		p = *o.genParams
	}
	w, err := experiments.NewWorldWithParams(p, o.policyOpts...)
	if err != nil {
		return nil, err
	}
	return &Simulator{world: w}, nil
}

// Load builds a Simulator from CAIDA AS-relationship data.
func Load(r io.Reader, opts ...Option) (*Simulator, error) {
	o := gather(opts)
	g, err := topology.Parse(r)
	if err != nil {
		return nil, err
	}
	w, err := experiments.WorldFromGraph(g, o.policyOpts...)
	if err != nil {
		return nil, err
	}
	return &Simulator{world: w}, nil
}

// World exposes the underlying experiment context for direct use with the
// runners in internal/experiments (Fig1…Fig7, SectionVII, …).
func (s *Simulator) World() *World { return s.world }

// Graph returns the (sibling-contracted) topology.
func (s *Simulator) Graph() *Graph { return s.world.Graph }

// Classification returns tier sets and depth metrics.
func (s *Simulator) Classification() *Classification { return s.world.Class }

// NumASes returns the AS count.
func (s *Simulator) NumASes() int { return s.world.Graph.N() }

// NumLinks returns the relationship-link count.
func (s *Simulator) NumLinks() int { return s.world.Graph.Edges() }

// MustASNAt returns the ASN of dense node index i (handy for examples and
// tests that just need "some AS").
func (s *Simulator) MustASNAt(i int) ASN { return s.world.Graph.ASN(i) }

// nodeOf resolves an ASN to its node index.
func (s *Simulator) nodeOf(a ASN) (int, error) {
	i, ok := s.world.Graph.Index(a)
	if !ok {
		return 0, fmt.Errorf("unknown AS %v", a)
	}
	return i, nil
}

// nodesOf resolves ASNs to node indices, in order.
func (s *Simulator) nodesOf(asns []ASN) ([]int, error) {
	nodes := make([]int, 0, len(asns))
	for _, a := range asns {
		i, err := s.nodeOf(a)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, i)
	}
	return nodes, nil
}

// DepthOf returns the AS's depth (hops to the nearest tier-1 or tier-2).
func (s *Simulator) DepthOf(a ASN) (int, error) {
	i, err := s.nodeOf(a)
	if err != nil {
		return 0, err
	}
	return s.world.Class.Depth[i], nil
}

// DegreeOf returns the AS's neighbor count.
func (s *Simulator) DegreeOf(a ASN) (int, error) {
	i, err := s.nodeOf(a)
	if err != nil {
		return 0, err
	}
	return s.world.Graph.Degree(i), nil
}

// ReachOf returns the paper's reach metric (ASes reachable without peer
// links).
func (s *Simulator) ReachOf(a ASN) (int, error) {
	i, err := s.nodeOf(a)
	if err != nil {
		return 0, err
	}
	return topology.Reach(s.world.Graph, i), nil
}

// Tier1ASNs returns the classified tier-1 ASes.
func (s *Simulator) Tier1ASNs() []ASN {
	out := make([]ASN, 0, len(s.world.Class.Tier1))
	for _, i := range s.world.Class.Tier1 {
		out = append(out, s.world.Graph.ASN(i))
	}
	return out
}

// FindAS returns an AS matching the topological role query.
func (s *Simulator) FindAS(q TargetQuery) (ASN, error) {
	i, err := topology.FindTarget(s.world.Graph, s.world.Class, q)
	if err != nil {
		return 0, err
	}
	return s.world.Graph.ASN(i), nil
}

// HijackSpec describes one hijack simulation.
type HijackSpec struct {
	// Attacker originates address space owned by Target.
	Attacker ASN
	Target   ASN
	// SubPrefix makes the attacker announce a more-specific prefix.
	SubPrefix bool
	// Filters lists ASes performing route-origin validation. They drop
	// the bogus announcement — but only when the validation data proves it
	// bogus: if ValidateAgainst is set and the target has not published
	// its origin (NotFound), the filters have nothing to act on and the
	// attack sails through, which is exactly the paper's argument for
	// publishing route origins early.
	Filters []ASN
	// ValidateAgainst, when non-nil, is consulted with the hijacked
	// prefix and the attacker ASN before arming Filters.
	ValidateAgainst OriginValidator
	// HijackedPrefix is the prefix used with ValidateAgainst.
	HijackedPrefix Prefix
}

// HijackReport summarizes one simulated attack.
type HijackReport struct {
	Attacker ASN
	Target   ASN
	// PollutedASes is the number of ASes routing to the attacker.
	PollutedASes int
	// PollutedFrac is PollutedASes over the AS population.
	PollutedFrac float64
	// AddrSpaceFrac is the fraction of announced address space whose
	// traffic no longer reaches the target.
	AddrSpaceFrac float64
	// FiltersArmed reports whether origin validation actually blocked the
	// announcement (false when the target never published its origin).
	FiltersArmed bool
	// Outcome is the full converged routing state for deeper inspection.
	Outcome *Outcome
}

// Hijack simulates one origin (or sub-prefix) hijack.
func (s *Simulator) Hijack(spec HijackSpec) (*HijackReport, error) {
	att, err := s.nodeOf(spec.Attacker)
	if err != nil {
		return nil, err
	}
	tgt, err := s.nodeOf(spec.Target)
	if err != nil {
		return nil, err
	}
	var blocked *asn.IndexSet
	armed := false
	if len(spec.Filters) > 0 {
		arm := true
		if spec.ValidateAgainst != nil {
			arm = spec.ValidateAgainst.Validate(spec.HijackedPrefix, spec.Attacker) == rpki.Invalid
		}
		if arm {
			armed = true
			blocked = asn.NewIndexSet(s.world.Graph.N())
			for _, f := range spec.Filters {
				i, err := s.nodeOf(f)
				if err != nil {
					return nil, err
				}
				blocked.Add(i)
			}
		}
	}
	solver := s.world.Policy.AcquireSolver()
	defer s.world.Policy.ReleaseSolver(solver)
	o, err := solver.Solve(core.Attack{Target: tgt, Attacker: att, SubPrefix: spec.SubPrefix}, blocked)
	if err != nil {
		return nil, err
	}
	g := s.world.Graph
	m := hijack.Measure(g, g.TotalAddrWeight(), o)
	return &HijackReport{
		Attacker:      spec.Attacker,
		Target:        spec.Target,
		PollutedASes:  m.Pollution,
		PollutedFrac:  float64(m.Pollution) / float64(g.N()),
		AddrSpaceFrac: m.WeightFrac,
		FiltersArmed:  armed,
		Outcome:       o.Clone(),
	}, nil
}

// TraceHijack runs the attack on the generation-stepped message engine and
// returns the outcome with its full propagation trace (Figure-1 style).
func (s *Simulator) TraceHijack(attacker, target ASN) (*Outcome, *Trace, error) {
	att, err := s.nodeOf(attacker)
	if err != nil {
		return nil, nil, err
	}
	tgt, err := s.nodeOf(target)
	if err != nil {
		return nil, nil, err
	}
	return core.NewEngine(s.world.Policy).Run(core.Attack{Target: tgt, Attacker: att}, nil, true)
}

// VulnerabilitySweep attacks the target from every other AS (or from
// `sample` random ones if sample > 0) and returns the pollution
// distribution.
func (s *Simulator) VulnerabilitySweep(target ASN, sample int) (*SweepResult, error) {
	tgt, err := s.nodeOf(target)
	if err != nil {
		return nil, err
	}
	attackers := experiments.SampleAttackers(hijack.AllNodes(s.world.Graph.N()), sample, seedRNG(1))
	return hijack.Sweep(s.world.Policy, hijack.SweepConfig{Target: tgt, Attackers: attackers}, sweep.Options{})
}

// PublishROA records a Route Origin Authorization in the simulator's
// built-in RPKI store (see HijackSpec.ValidateAgainst and ROAStore).
func (s *Simulator) PublishROA(r ROA) error { return s.roas.Add(r) }

// ROAStore returns the simulator's built-in RPKI validator for use as
// HijackSpec.ValidateAgainst.
func (s *Simulator) ROAStore() OriginValidator { return &s.roas }

// DeploymentLadder returns the paper's Figure 5/6 strategy ladder scaled
// to this internet.
func (s *Simulator) DeploymentLadder(seed int64) []Strategy {
	return deploy.PaperLadder(s.world.Graph, s.world.Class, seed)
}

// FiltersOf converts a Strategy's node set to ASNs.
func (s *Simulator) FiltersOf(st Strategy) []ASN {
	out := make([]ASN, 0, len(st.Nodes))
	for _, i := range st.Nodes {
		out = append(out, s.world.Graph.ASN(i))
	}
	return out
}
