package bgpsim

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/bgpsim/bgpsim/internal/topology"
)

func newSim(t *testing.T) *Simulator {
	t.Helper()
	sim, err := New(WithScale(1000), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewSimulator(t *testing.T) {
	sim := newSim(t)
	if sim.NumASes() < 900 {
		t.Errorf("NumASes = %d", sim.NumASes())
	}
	if sim.NumLinks() <= sim.NumASes() {
		t.Errorf("NumLinks = %d suspiciously low", sim.NumLinks())
	}
	if len(sim.Tier1ASNs()) == 0 {
		t.Error("no tier-1 ASes")
	}
	// Determinism across constructions.
	sim2, err := New(WithScale(1000), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if sim.NumASes() != sim2.NumASes() || sim.MustASNAt(5) != sim2.MustASNAt(5) {
		t.Error("same seed produced different simulators")
	}
}

func TestLoadFromCAIDA(t *testing.T) {
	in := `# tiny
1|2|0
1|10|-1
2|11|-1
10|20|-1
11|21|-1
`
	sim, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sim.NumASes() != 6 {
		t.Errorf("NumASes = %d, want 6", sim.NumASes())
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty topology accepted")
	}
}

func TestMetricsAccessors(t *testing.T) {
	sim := newSim(t)
	t1 := sim.Tier1ASNs()[0]
	d, err := sim.DepthOf(t1)
	if err != nil || d != 0 {
		t.Errorf("tier-1 depth = %d (%v)", d, err)
	}
	deg, err := sim.DegreeOf(t1)
	if err != nil || deg <= 0 {
		t.Errorf("tier-1 degree = %d (%v)", deg, err)
	}
	reach, err := sim.ReachOf(t1)
	if err != nil || reach <= 0 {
		t.Errorf("tier-1 reach = %d (%v)", reach, err)
	}
	if _, err := sim.DepthOf(ASN(4_000_000_000)); err == nil {
		t.Error("unknown ASN accepted")
	}
}

func TestFindAS(t *testing.T) {
	sim := newSim(t)
	a, err := sim.FindAS(TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := sim.DepthOf(a); d != 2 {
		t.Errorf("FindAS returned depth-%d AS", d)
	}
}

func TestHijackBasics(t *testing.T) {
	sim := newSim(t)
	target, err := sim.FindAS(TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	attacker := sim.Tier1ASNs()[0]
	rep, err := sim.Hijack(HijackSpec{Attacker: attacker, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PollutedASes <= 0 {
		t.Error("tier-1 attacker polluted nothing")
	}
	if rep.PollutedFrac <= 0 || rep.PollutedFrac > 1 {
		t.Errorf("PollutedFrac = %v", rep.PollutedFrac)
	}
	if rep.AddrSpaceFrac <= 0 || rep.AddrSpaceFrac > 1 {
		t.Errorf("AddrSpaceFrac = %v", rep.AddrSpaceFrac)
	}
	if rep.FiltersArmed {
		t.Error("no filters specified but armed")
	}
	if rep.Outcome == nil || rep.Outcome.PollutedCount() != rep.PollutedASes {
		t.Error("outcome inconsistent with report")
	}
	// Errors for unknown ASNs.
	if _, err := sim.Hijack(HijackSpec{Attacker: 4_000_000_000, Target: target}); err == nil {
		t.Error("unknown attacker accepted")
	}
}

// TestHijackPublicationLeverage exercises the paper's Section VII
// "publish route origins" step through the facade: identical filters stop
// the attack only once the target's ROA exists.
func TestHijackPublicationLeverage(t *testing.T) {
	sim := newSim(t)
	target, err := sim.FindAS(TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	attacker := sim.Tier1ASNs()[0]
	victimPrefix, err := ParsePrefix("129.82.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	filters := sim.FiltersOf(sim.DeploymentLadder(1)[6]) // a core rung

	spec := HijackSpec{
		Attacker:        attacker,
		Target:          target,
		Filters:         filters,
		ValidateAgainst: sim.ROAStore(),
		HijackedPrefix:  victimPrefix,
	}
	// Before publication: NotFound → filters cannot arm.
	before, err := sim.Hijack(spec)
	if err != nil {
		t.Fatal(err)
	}
	if before.FiltersArmed {
		t.Fatal("filters armed without published origin")
	}
	// Publish the ROA, rerun: filters arm and pollution drops.
	if err := sim.PublishROA(ROA{Prefix: victimPrefix, MaxLength: 24, Origin: target}); err != nil {
		t.Fatal(err)
	}
	after, err := sim.Hijack(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !after.FiltersArmed {
		t.Fatal("filters did not arm after publication")
	}
	if after.PollutedASes > before.PollutedASes {
		t.Errorf("armed filters increased pollution: %d → %d", before.PollutedASes, after.PollutedASes)
	}
	// The attacker announcing its own published space stays unblocked.
	if err := sim.PublishROA(ROA{Prefix: victimPrefix, MaxLength: 24, Origin: attacker}); err != nil {
		t.Fatal(err)
	}
	multi, err := sim.Hijack(spec)
	if err != nil {
		t.Fatal(err)
	}
	if multi.FiltersArmed {
		t.Error("filters armed although the 'attacker' is an authorized origin")
	}
}

func TestTraceHijack(t *testing.T) {
	sim := newSim(t)
	target, err := sim.FindAS(TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	o, tr, err := sim.TraceHijack(sim.Tier1ASNs()[0], target)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Generations < 2 || len(tr.Events) == 0 {
		t.Error("trace empty")
	}
	if o.PollutedCount() <= 0 {
		t.Error("no pollution in traced attack")
	}
}

func TestVulnerabilitySweepFacade(t *testing.T) {
	sim := newSim(t)
	target, err := sim.FindAS(TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.VulnerabilitySweep(target, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pollution) != 150 {
		t.Errorf("sweep size = %d", len(res.Pollution))
	}
	if res.Summary().Mean <= 0 {
		t.Error("zero mean pollution")
	}
}

func TestDeploymentLadderFacade(t *testing.T) {
	sim := newSim(t)
	ladder := sim.DeploymentLadder(7)
	if len(ladder) != 8 {
		t.Fatalf("ladder = %d rungs", len(ladder))
	}
	filters := sim.FiltersOf(ladder[3])
	if len(filters) != len(sim.Tier1ASNs()) {
		t.Errorf("tier-1 rung has %d filters, want %d", len(filters), len(sim.Tier1ASNs()))
	}
}

func TestWorldAccessor(t *testing.T) {
	sim := newSim(t)
	w := sim.World()
	if w == nil || w.Graph != sim.Graph() {
		t.Error("World accessor inconsistent")
	}
	// The classification alias exposes depth metrics.
	if sim.Classification().MaxDepth() < 2 {
		t.Error("MaxDepth too small")
	}
	_ = topology.DepthUnreachable // keep explicit dependency for the alias contract
}

// TestSimulatorConcurrentHijack: eight goroutines call Hijack on one
// Simulator at once, over different attacks, filters and sub-prefix
// flags; each report must equal the serial run's, outcome included. Run
// under -race it also holds Hijack to its concurrency contract.
func TestSimulatorConcurrentHijack(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	sim := newSim(t)
	transit := sim.Graph().TransitNodes()
	filters := sim.FiltersOf(sim.TopDegreeDeployment(10))
	specs := make([]HijackSpec, 8)
	for i := range specs {
		specs[i] = HijackSpec{
			Attacker:  sim.MustASNAt(transit[3*i]),
			Target:    sim.MustASNAt(transit[3*i+1]),
			SubPrefix: i%3 == 2,
		}
		if i%2 == 1 {
			specs[i].Filters = filters
		}
	}
	type result struct {
		polluted int
		addrFrac float64
		asns     []ASN
	}
	run := func(spec HijackSpec) (result, error) {
		rep, err := sim.Hijack(spec)
		if err != nil {
			return result{}, err
		}
		return result{rep.PollutedASes, rep.AddrSpaceFrac, sim.PollutedASNs(rep.Outcome)}, nil
	}
	want := make([]result, len(specs))
	for i, spec := range specs {
		r, err := run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got := make([]result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(spec)
		}()
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("spec %d: %v", i, errs[i])
		}
		if got[i].polluted != want[i].polluted || got[i].addrFrac != want[i].addrFrac || !slices.Equal(got[i].asns, want[i].asns) {
			t.Errorf("spec %d: concurrent Hijack polluted %d (%v of address space), serial %d (%v)",
				i, got[i].polluted, got[i].addrFrac, want[i].polluted, want[i].addrFrac)
		}
	}
}
