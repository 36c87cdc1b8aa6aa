package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/bgpsim/bgpsim/internal/stats"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// world is a shared medium test world; experiments only read from it.
func world(t testing.TB) *World {
	t.Helper()
	w, err := NewWorld(1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorld(t *testing.T) {
	w := world(t)
	if w.Graph.N() == 0 || len(w.Class.Tier1) == 0 || w.Policy == nil {
		t.Fatal("world incomplete")
	}
	// Sibling-free (policy construction would have failed otherwise).
	for i := 0; i < w.Graph.N(); i++ {
		_, rels := w.Graph.Neighbors(i)
		for _, r := range rels {
			if r == topology.RelSibling {
				t.Fatal("world contains sibling links")
			}
		}
	}
}

// TestNewWorldAllocs guards the paper-scale world build's allocation
// count, a machine-independent proxy for its cost: the build draws every
// attachment from Fenwick trees and assembles the generated and the
// contracted graph straight into CSR slices, so its objects are per-stage
// arrays, not per-link map entries.
func TestNewWorldAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale world build")
	}
	const measured = 1192 // NewWorld(42697, 1) when the guard was set
	got := testing.AllocsPerRun(1, func() {
		if _, err := NewWorld(42697, 1); err != nil {
			t.Fatal(err)
		}
	})
	if max := measured * 1.25; got > max {
		t.Errorf("NewWorld(42697) allocates %.0f times, want at most %.0f", got, max)
	}
	t.Logf("NewWorld(42697) allocates %.0f times", got)
}

func TestScenarioTargets(t *testing.T) {
	w := world(t)
	targets, err := w.ScenarioTargets(topology.UnderTier1)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) < 3 {
		t.Fatalf("only %d scenario targets", len(targets))
	}
	seen := map[int]bool{}
	for _, tgt := range targets {
		if tgt.Node < 0 || tgt.Node >= w.Graph.N() {
			t.Fatalf("target %q out of range", tgt.Name)
		}
		if w.Class.Depth[tgt.Node] != tgt.Depth {
			t.Errorf("target %q depth mismatch: %d vs %d", tgt.Name, w.Class.Depth[tgt.Node], tgt.Depth)
		}
		seen[tgt.Node] = true
	}
	if len(seen) < 3 {
		t.Error("scenario targets collapse onto too few nodes")
	}
}

func TestSampleAttackers(t *testing.T) {
	pool := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if got := SampleAttackers(pool, 0, rngFor(1, "attackers")); len(got) != len(pool) {
		t.Error("sample 0 should return all")
	}
	if got := SampleAttackers(pool, 100, rngFor(1, "attackers")); len(got) != len(pool) {
		t.Error("oversized sample should return all")
	}
	got := SampleAttackers(pool, 3, rngFor(1, "attackers"))
	if len(got) != 3 {
		t.Fatalf("sample = %d", len(got))
	}
	again := SampleAttackers(pool, 3, rngFor(1, "attackers"))
	for i := range got {
		if got[i] != again[i] {
			t.Error("sampling not deterministic")
		}
	}
}

func TestFig2AndFig3(t *testing.T) {
	w := world(t)
	cfg := VulnerabilityConfig{AttackerSample: 250, Seed: 3}
	r2, err := Fig2(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Curves) < 3 {
		t.Fatalf("fig2 curves = %d", len(r2.Curves))
	}
	// Vulnerability must broadly increase with depth: compare the
	// shallowest and deepest curves.
	first, last := r2.Curves[0], r2.Curves[len(r2.Curves)-1]
	if first.Target.Depth >= last.Target.Depth {
		t.Fatalf("curves not depth-ordered: %d …%d", first.Target.Depth, last.Target.Depth)
	}
	if last.Summary.Mean <= first.Summary.Mean {
		t.Errorf("deepest target mean %.1f not above shallowest %.1f",
			last.Summary.Mean, first.Summary.Mean)
	}
	var buf bytes.Buffer
	if err := r2.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CCDF") {
		t.Error("WriteText missing CCDF lines")
	}

	r3, err := Fig3(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Curves) < 3 {
		t.Fatalf("fig3 curves = %d", len(r3.Curves))
	}
}

func TestFig4(t *testing.T) {
	w := world(t)
	r, err := Fig4(w, VulnerabilityConfig{AttackerSample: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != 2 {
		t.Fatalf("panels = %d", len(r.Panels))
	}
	for _, p := range r.Panels {
		// Stub filtering removes attackers, so the attack count drops and
		// the mean must not increase dramatically (the paper: "filtering
		// simply scales the graph down").
		if p.Filtered.Summary.N >= p.AllASes.Summary.N {
			t.Errorf("%s: transit-only sweep should be smaller", p.Target.Name)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stub-filtered") {
		t.Error("WriteText missing scenario rows")
	}
}

func TestFig5AndFig6(t *testing.T) {
	w := world(t)
	cfg := DeploymentConfig{AttackerSample: 120, Seed: 7}
	r5, err := Fig5(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r5.Rungs) != 8 {
		t.Fatalf("fig5 rungs = %d", len(r5.Rungs))
	}
	if len(r5.Residual) == 0 {
		t.Error("fig5 residual table empty")
	}
	base := r5.Rungs[0].Result.Summary().Mean
	best := r5.Rungs[len(r5.Rungs)-1].Result.Summary().Mean
	if best >= base {
		t.Errorf("fig5 ladder had no effect: %.1f → %.1f", base, best)
	}
	if idx := r5.CrossoverIndex(2); idx < 0 {
		t.Error("fig5: no rung halves the baseline pollution")
	}

	r6, err := Fig6(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The deep target starts much worse than the depth-1 target (paper's
	// central contrast between Figures 5 and 6).
	if r6.Rungs[0].Result.Summary().Mean <= r5.Rungs[0].Result.Summary().Mean {
		t.Errorf("fig6 baseline (%.1f) should exceed fig5 baseline (%.1f)",
			r6.Rungs[0].Result.Summary().Mean, r5.Rungs[0].Result.Summary().Mean)
	}
	var buf bytes.Buffer
	if err := r6.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "top residual attacks") {
		t.Error("WriteText missing residual table")
	}
}

func TestFig7(t *testing.T) {
	w := world(t)
	r, err := Fig7(w, DetectionConfig{Attacks: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cases) != 3 {
		t.Fatalf("cases = %d", len(r.Cases))
	}
	// Paper ordering: tier-1 misses most, high-degree core misses least.
	t1 := r.Cases[0].Result.MissRate()
	core62 := r.Cases[2].Result.MissRate()
	if core62 > t1 {
		t.Errorf("core probes miss rate %.3f exceeds tier-1 %.3f", core62, t1)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf, func(n int) string { return w.Graph.ASN(n).String() }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "miss rate") {
		t.Error("WriteText missing summary table")
	}
}

func TestSectionVII(t *testing.T) {
	w := world(t)
	r, err := SectionVII(w, SelfInterestConfig{OutsideSample: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rehome.After.InsideMean > r.Rehome.Before.InsideMean {
		t.Errorf("rehoming increased regional pollution: %.1f → %.1f",
			r.Rehome.Before.InsideMean, r.Rehome.After.InsideMean)
	}
	if r.Filter.Filtered.InsideMean > r.Filter.Base.InsideMean {
		t.Errorf("hub filter increased regional pollution")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "re-homing experiment") {
		t.Error("WriteText missing rehoming section")
	}
}

func TestValidationStudy(t *testing.T) {
	w := world(t)
	r, err := ValidationStudy(w, ValidationConfig{Origins: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Reports) != 4 {
		t.Fatalf("reports = %d", len(r.Reports))
	}
	rate := r.Overall.MatchRate()
	if rate < 0.3 || rate > 1 {
		t.Errorf("overall match rate %.2f implausible", rate)
	}
	if r.Overall.Total() != 4*w.Graph.N() {
		t.Errorf("overall total = %d, want %d", r.Overall.Total(), 4*w.Graph.N())
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "overall") {
		t.Error("WriteText missing overall line")
	}
}

func TestFig1(t *testing.T) {
	w := world(t)
	r, err := Fig1(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Polluted <= 0 {
		t.Error("aggressive attack polluted nothing")
	}
	if r.AddrFracLost <= 0 || r.AddrFracLost > 1 {
		t.Errorf("AddrFracLost = %v", r.AddrFracLost)
	}
	if len(r.PerGeneration) != r.Trace.Generations {
		t.Errorf("per-generation stats = %d, generations = %d",
			len(r.PerGeneration), r.Trace.Generations)
	}
	// Messages ramp up then die down: the last generation must carry
	// fewer messages than the peak.
	peak, last := 0, 0
	for _, st := range r.PerGeneration {
		if st.Messages > peak {
			peak = st.Messages
		}
		last = st.Messages
	}
	if last >= peak {
		t.Error("propagation never converged downward")
	}
	frames := 0
	if err := r.RenderFrames(w, 400, func(gen int, svg []byte) error {
		frames++
		if len(svg) == 0 {
			t.Fatal("empty frame")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if frames != r.Trace.Generations {
		t.Errorf("frames = %d, want %d", frames, r.Trace.Generations)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf, func(n int) string { return w.Graph.ASN(n).String() }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "generation") {
		t.Error("WriteText missing generation rows")
	}
}

// TestConcavityFlip asserts the paper's signature Section IV observation
// quantitatively: the normalized CCDF area (resistance → vulnerability
// shape measure) increases monotonically from the shallow to the deep
// target — the "concavity flip" between depth 1 and depth 2 and beyond.
func TestConcavityFlip(t *testing.T) {
	w := world(t)
	res, err := Fig2(w, VulnerabilityConfig{AttackerSample: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the multi-homed depth-1 curve (most resistant stub) against
	// the deepest curve.
	var shallow, deep *VulnerabilityCurve
	for i := range res.Curves {
		c := &res.Curves[i]
		if c.Target.Depth == 1 && (shallow == nil || c.Summary.Mean < shallow.Summary.Mean) {
			shallow = c
		}
		if deep == nil || c.Target.Depth > deep.Target.Depth {
			deep = c
		}
	}
	if shallow == nil || deep == nil || deep.Target.Depth <= 1 {
		t.Skip("world lacks the depth spread for the concavity check")
	}
	aShallow := stats.CCDFArea(shallow.Points)
	aDeep := stats.CCDFArea(deep.Points)
	if aShallow >= aDeep {
		t.Errorf("CCDF area did not grow with depth: depth-1 %.3f vs depth-%d %.3f",
			aShallow, deep.Target.Depth, aDeep)
	}
	// The deep target's curve must be in clearly concave territory.
	if aDeep < 0.5 {
		t.Errorf("deep target CCDF area %.3f, want > 0.5 (concave/vulnerable)", aDeep)
	}
}
