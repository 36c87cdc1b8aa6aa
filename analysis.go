package bgpsim

import (
	"fmt"
	"math/rand"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/pgbgp"
	"github.com/bgpsim/bgpsim/internal/selfinterest"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// Additional re-exports for the analysis APIs.
type (
	// DetectionResult summarizes one probe configuration against an
	// attack workload.
	DetectionResult = detect.Result
	// MissedAttack is one attack no probe saw.
	MissedAttack = detect.MissedAttack
	// DeploymentEval is one strategy's sweep outcome.
	DeploymentEval = deploy.Evaluation
	// RegionalReport measures a region's exposure to hijacks of one of
	// its members.
	RegionalReport = selfinterest.RegionalResult
	// PGBGPResult is a PGBGP-defense sweep outcome.
	PGBGPResult = pgbgp.Result
)

// --- Detection --------------------------------------------------------------

// Tier1Probes peers a detector with every tier-1 AS (the paper's case 1).
func (s *Simulator) Tier1Probes() ProbeSet {
	return detect.Tier1Probes(s.world.Class)
}

// TopDegreeProbes peers with the k highest-degree ASes (the paper's
// case 3).
func (s *Simulator) TopDegreeProbes(k int) ProbeSet {
	return detect.TopDegreeProbes(s.world.Graph, k)
}

// BGPmonLikeProbes builds the paper's case-2 configuration: k
// medium-degree transit ASes with regional clustering.
func (s *Simulator) BGPmonLikeProbes(k int, seed int64) ProbeSet {
	return detect.BGPmonLikeProbes(s.world.Graph, s.world.Class, k, seedRNG(seed))
}

// seedRNG is the facade's seed→generator boundary: the public API speaks
// plain int64 seeds, the internal packages consume explicit *rand.Rand.
func seedRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ProbesAt builds a probe set from explicit ASNs.
func (s *Simulator) ProbesAt(name string, probes []ASN) (ProbeSet, error) {
	nodes, err := s.nodesOf(probes)
	if err != nil {
		return ProbeSet{}, err
	}
	return detect.CustomProbes(name, nodes), nil
}

// ProbeASNs converts a probe set's nodes back to ASNs.
func (s *Simulator) ProbeASNs(ps ProbeSet) []ASN {
	out := make([]ASN, 0, len(ps.Probes))
	for _, i := range ps.Probes {
		out = append(out, s.world.Graph.ASN(i))
	}
	return out
}

// GreedyProbes trains a probe set of up to k ASes by greedy set cover on
// a random workload of `attacks` transit-pair hijacks: each round adds the
// AS that catches the most still-undetected attacks — the constructive
// form of the paper's "high-degree, non-overlapping ASes" recommendation.
func (s *Simulator) GreedyProbes(k, attacks int, seed int64) (ProbeSet, error) {
	workload, err := detect.GenerateAttacks(s.world.Graph.TransitNodes(), attacks, seedRNG(seed))
	if err != nil {
		return ProbeSet{}, err
	}
	return detect.GreedyProbes(s.world.Policy, workload, nil, k)
}

// EvaluateDetection runs `attacks` random transit-pair hijacks against the
// probe configuration and reports trigger histograms and misses. The same
// (attacks, seed) pair yields the same workload across configurations, so
// results are directly comparable.
func (s *Simulator) EvaluateDetection(ps ProbeSet, attacks int, seed int64) (*DetectionResult, error) {
	workload, err := detect.GenerateAttacks(s.world.Graph.TransitNodes(), attacks, seedRNG(seed))
	if err != nil {
		return nil, err
	}
	return detect.Evaluate(s.world.Policy, ps, workload, detect.SelectedRoute, core.Defense{})
}

// --- Deployment -------------------------------------------------------------

// EvaluateDeployment sweeps the target from every transit AS (or a seeded
// sample of `sample` of them) under each strategy in turn.
func (s *Simulator) EvaluateDeployment(target ASN, strategies []Strategy, sample int, seed int64) ([]DeploymentEval, error) {
	tgt, err := s.nodeOf(target)
	if err != nil {
		return nil, err
	}
	attackers := experiments.SampleAttackers(s.world.Graph.TransitNodes(), sample, seedRNG(seed))
	return deploy.Evaluate(s.world.Policy, tgt, attackers, strategies, 0)
}

// RandomDeployment deploys filters at k random transit ASes.
func (s *Simulator) RandomDeployment(k int, seed int64) Strategy {
	return deploy.Random(s.world.Graph, k, seedRNG(seed))
}

// Tier1Deployment deploys filters at every tier-1 AS.
func (s *Simulator) Tier1Deployment() Strategy {
	return deploy.Tier1(s.world.Class)
}

// TopDegreeDeployment deploys filters at the k highest-degree ASes.
func (s *Simulator) TopDegreeDeployment(k int) Strategy {
	return deploy.TopDegree(s.world.Graph, k)
}

// DeploymentAt builds a strategy from explicit ASNs.
func (s *Simulator) DeploymentAt(name string, filters []ASN) (Strategy, error) {
	nodes, err := s.nodesOf(filters)
	if err != nil {
		return Strategy{}, err
	}
	return deploy.Custom(name, nodes), nil
}

// EvaluatePGBGP sweeps the target with PGBGP history-based depref active
// at the deployed ASes (instead of drop-style filtering): deployers treat
// the hijack's novel origin as suspicious and avoid it whenever any
// historically normal route exists, falling back rather than
// disconnecting.
func (s *Simulator) EvaluatePGBGP(target ASN, deployed []ASN, sample int, seed int64) (*PGBGPResult, error) {
	tgt, err := s.nodeOf(target)
	if err != nil {
		return nil, err
	}
	nodes, err := s.nodesOf(deployed)
	if err != nil {
		return nil, err
	}
	attackers := experiments.SampleAttackers(s.world.Graph.TransitNodes(), sample, seedRNG(seed))
	return pgbgp.Evaluate(s.world.Policy, tgt, attackers, nodes)
}

// --- Regions and Section VII tooling ----------------------------------------

// RegionOf returns the region label of an AS (-1 when unassigned).
func (s *Simulator) RegionOf(a ASN) (int, error) {
	i, err := s.nodeOf(a)
	if err != nil {
		return 0, err
	}
	return s.world.Graph.Region(i), nil
}

// RegionASNs lists the ASes labeled with a region.
func (s *Simulator) RegionASNs(region int) []ASN {
	nodes := s.world.Graph.RegionNodes(region)
	out := make([]ASN, 0, len(nodes))
	for _, i := range nodes {
		out = append(out, s.world.Graph.ASN(i))
	}
	return out
}

// IslandRegion returns the generated topology's island region label (the
// New Zealand analog) — the highest region id in use — or -1 when the
// topology has no regions.
func (s *Simulator) IslandRegion() int {
	best := -1
	for i := 0; i < s.world.Graph.N(); i++ {
		if r := s.world.Graph.Region(i); r > best {
			best = r
		}
	}
	return best
}

// RegionHub returns the highest-degree transit AS of a region.
func (s *Simulator) RegionHub(region int) (ASN, error) {
	hub, err := selfinterest.RegionHub(s.world.Graph, region)
	if err != nil {
		return 0, err
	}
	return s.world.Graph.ASN(hub), nil
}

// MeasureRegional attacks the target from every AS in its region plus
// outsideSample random outsiders, reporting how much of the region each
// attack class pollutes. filters (optional) is an active deployment.
func (s *Simulator) MeasureRegional(target ASN, outsideSample int, seed int64, filters []ASN) (*RegionalReport, error) {
	tgt, err := s.nodeOf(target)
	if err != nil {
		return nil, err
	}
	region := s.world.Graph.Region(tgt)
	if region < 0 {
		return nil, fmt.Errorf("AS %v has no region label", target)
	}
	var blocked *asn.IndexSet
	if len(filters) > 0 {
		blocked = asn.NewIndexSet(s.world.Graph.N())
		for _, f := range filters {
			i, err := s.nodeOf(f)
			if err != nil {
				return nil, err
			}
			blocked.Add(i)
		}
	}
	return selfinterest.MeasureRegional(s.world.Policy, tgt, region, outsideSample, seedRNG(seed), blocked)
}

// Rehome returns a new Simulator in which the target has been re-homed
// `levels` steps up its provider chain (the paper's vulnerability-reduction
// step). The original Simulator is unchanged.
func (s *Simulator) Rehome(target ASN, levels int) (*Simulator, error) {
	tgt, err := s.nodeOf(target)
	if err != nil {
		return nil, err
	}
	ng, _, err := selfinterest.RehomeUp(s.world.Graph, s.world.Class, tgt, levels)
	if err != nil {
		return nil, err
	}
	w, err := experiments.WorldFromGraph(ng)
	if err != nil {
		return nil, err
	}
	return &Simulator{world: w}, nil
}

// PollutedASNs lists the ASes that selected a route to the attacker in an
// outcome (e.g. HijackReport.Outcome).
func (s *Simulator) PollutedASNs(o *Outcome) []ASN {
	var out []ASN
	for i := 0; i < o.N(); i++ {
		if o.Polluted(i) {
			out = append(out, s.world.Graph.ASN(i))
		}
	}
	return out
}

// ASesAtDepth returns up to max stub ASes at the given depth.
func (s *Simulator) ASesAtDepth(depth, max int) []ASN {
	nodes := topology.FindTargets(s.world.Graph, s.world.Class, topology.TargetQuery{Depth: depth, Stub: true}, max)
	out := make([]ASN, 0, len(nodes))
	for _, i := range nodes {
		out = append(out, s.world.Graph.ASN(i))
	}
	return out
}
