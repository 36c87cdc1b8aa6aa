package bgpsim

import (
	"testing"
)

func TestDetectionFacade(t *testing.T) {
	sim := newSim(t)
	ps := sim.Tier1Probes()
	if len(ps.Probes) != len(sim.Tier1ASNs()) {
		t.Error("Tier1Probes size mismatch")
	}
	res, err := sim.EvaluateDetection(ps, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAttacks != 200 {
		t.Errorf("TotalAttacks = %d", res.TotalAttacks)
	}
	// Same workload seed must be reproducible.
	res2, err := sim.EvaluateDetection(ps, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissCount() != res2.MissCount() {
		t.Error("detection evaluation not deterministic")
	}
	// Probe ASN round trip.
	asns := sim.ProbeASNs(ps)
	back, err := sim.ProbesAt("copy", asns)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Probes) != len(ps.Probes) {
		t.Error("ProbesAt round trip size mismatch")
	}
	if _, err := sim.ProbesAt("bad", []ASN{4_000_000_000}); err == nil {
		t.Error("unknown probe ASN accepted")
	}
}

func TestDeploymentFacade(t *testing.T) {
	sim := newSim(t)
	target, err := sim.FindAS(TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{
		sim.RandomDeployment(5, 1),
		sim.Tier1Deployment(),
		sim.TopDegreeDeployment(10),
	}
	evals, err := sim.EvaluateDeployment(target, strategies, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 3 {
		t.Fatalf("evals = %d", len(evals))
	}
	custom, err := sim.DeploymentAt("mine", sim.Tier1ASNs())
	if err != nil {
		t.Fatal(err)
	}
	if len(custom.Nodes) != len(sim.Tier1ASNs()) {
		t.Error("DeploymentAt size mismatch")
	}
	if _, err := sim.DeploymentAt("bad", []ASN{4_000_000_000}); err == nil {
		t.Error("unknown filter ASN accepted")
	}
}

func TestRegionalFacade(t *testing.T) {
	sim := newSim(t)
	island := sim.IslandRegion()
	if island < 0 {
		t.Fatal("no island region")
	}
	members := sim.RegionASNs(island)
	if len(members) == 0 {
		t.Fatal("island empty")
	}
	if r, err := sim.RegionOf(members[0]); err != nil || r != island {
		t.Errorf("RegionOf = %d (%v)", r, err)
	}
	hub, err := sim.RegionHub(island)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := sim.RegionOf(hub); r != island {
		t.Error("hub outside island")
	}
	// Deepest island stub.
	var target ASN
	depth := -1
	for _, a := range members {
		if d, _ := sim.DepthOf(a); d > depth {
			if deg, _ := sim.DegreeOf(a); deg <= 2 {
				target, depth = a, d
			}
		}
	}
	if depth < 1 {
		t.Skip("no island stub")
	}
	rep, err := sim.MeasureRegional(target, 40, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RegionSize != len(members) {
		t.Errorf("RegionSize = %d, want %d", rep.RegionSize, len(members))
	}
	filtered, err := sim.MeasureRegional(target, 40, 5, []ASN{hub})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.InsideMean > rep.InsideMean {
		t.Error("hub filter increased regional pollution")
	}
	// Re-homing keeps the facade usable and reduces depth.
	if depth >= 2 {
		re, err := sim.Rehome(target, 1)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := re.DepthOf(target)
		if err != nil {
			t.Fatal(err)
		}
		if nd >= depth {
			t.Errorf("rehome did not reduce depth: %d → %d", depth, nd)
		}
		// Original unchanged.
		if od, _ := sim.DepthOf(target); od != depth {
			t.Error("Rehome mutated the original simulator")
		}
	}
}

func TestPGBGPFacade(t *testing.T) {
	sim := newSim(t)
	target, err := sim.FindAS(TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	core := sim.FiltersOf(sim.TopDegreeDeployment(10))
	res, err := sim.EvaluatePGBGP(target, core, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pollution) == 0 {
		t.Fatal("no PGBGP sweep results")
	}
	baseline, err := sim.EvaluatePGBGP(target, nil, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary().Mean >= baseline.Summary().Mean {
		t.Errorf("PGBGP at core (%.1f) did not beat baseline (%.1f)",
			res.Summary().Mean, baseline.Summary().Mean)
	}
}

func TestMonitoringFacade(t *testing.T) {
	sim := newSim(t)
	target, err := sim.FindAS(TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	victimPrefix, err := ParsePrefix("129.82.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.PublishROA(ROA{Prefix: victimPrefix, MaxLength: 24, Origin: target}); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Hijack(HijackSpec{Attacker: sim.Tier1ASNs()[0], Target: target})
	if err != nil {
		t.Fatal(err)
	}
	probes := sim.TopDegreeProbes(12)
	updates, err := sim.FeedFromHijack(rep, victimPrefix, probes)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(sim.ROAStore(), nil)
	det.NotePublished(victimPrefix)
	for _, tu := range updates {
		det.Process(tu)
	}
	// Whether an alert fires depends on probe placement; what must hold:
	// every alert names the attacker, never the victim.
	for _, a := range det.Alerts() {
		if a.Origin == target {
			t.Error("alert raised against the legitimate origin")
		}
		if a.Reason != ReasonInvalidOrigin && a.Reason != ReasonSubPrefix {
			t.Errorf("unexpected alert reason %q", a.Reason)
		}
	}
}
