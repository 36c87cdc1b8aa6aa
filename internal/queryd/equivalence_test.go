package queryd_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/queryd"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// testWorld builds the shared fixture world once: equivalence runs many
// batch sweeps against it, and world construction dominates otherwise.
var (
	worldOnce sync.Once
	worldVal  *experiments.World
	worldErr  error
)

func testWorld(t testing.TB) *experiments.World {
	t.Helper()
	worldOnce.Do(func() {
		worldVal, worldErr = experiments.NewWorld(300, 9)
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldVal
}

func newTestServer(t testing.TB, cfg queryd.Config) *queryd.Server {
	t.Helper()
	if cfg.World == nil {
		cfg.World = testWorld(t)
	}
	s, err := queryd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postJSON round-trips one request through the full HTTP surface and
// decodes the response body into out (when the status is 200).
func postJSON(t testing.TB, h http.Handler, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK && out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec
}

func getJSON(t testing.TB, h http.Handler, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK && out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return rec
}

// digest canonicalizes any value through JSON and hashes it — float64
// survives the round trip exactly (shortest-exact printing), so two
// digests match iff the measurements are bit-identical.
func digest(t testing.TB, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// sampleAttackers returns a deterministic attacker subset, so the
// matrix stays small enough to sweep per (kind × defense × workers).
func sampleAttackers(n, k, stride int) []int {
	out := make([]int, 0, k)
	for i := 0; len(out) < k; i += stride {
		out = append(out, i%n)
	}
	return out
}

// TestVulnerabilityMatchesBatch pins /v1/vulnerability against
// hijack.SweepAll for every attack kind, defended and not, with the
// batch side run at workers 1 and 8. The wide cases send 140 attackers,
// so one request spans two full lane batches and a partial one, with
// and without sub-prefix hijacks.
func TestVulnerabilityMatchesBatch(t *testing.T) {
	w := testWorld(t)
	n := w.Policy.N()
	target := n / 3
	rov := []int{1, 5, 9, 20, 33, 47, 60}
	set := asn.NewIndexSet(n)
	for _, i := range rov {
		set.Add(i)
	}
	shapes := []struct {
		suffix    string
		attackers []int
		subPrefix bool
	}{
		{"", sampleAttackers(n, 40, 7), false},
		{"/wide", sampleAttackers(n, 140, 1), false},
		{"/wide/sub-prefix", sampleAttackers(n, 140, 1), true},
	}

	for _, serverWorkers := range []int{1, 8} {
		srv := newTestServer(t, queryd.Config{Workers: serverWorkers})
		h := srv.Handler()
		for _, kind := range core.Kinds() {
			for _, defended := range []bool{false, true} {
				for _, sh := range shapes {
					if sh.subPrefix && kind == core.KindRouteLeak {
						continue // no such scenario; TestBadRequests pins the 400
					}
					attackers := sh.attackers
					name := fmt.Sprintf("sw%d/%s/def=%v%s", serverWorkers, kind, defended, sh.suffix)
					t.Run(name, func(t *testing.T) {
						cfg := hijack.SweepConfig{Target: target, Attackers: attackers, Kind: kind, SubPrefix: sh.subPrefix}
						req := queryd.VulnerabilityRequest{Target: target, Attackers: attackers, Kind: kind.String(), SubPrefix: sh.subPrefix}
						if defended {
							cfg.Defense = core.Defense{Blocked: set, ASPA: set, Peerlock: true}
							req.Defense = queryd.DefenseSpec{ROV: rov, ASPA: rov, Peerlock: true}
						}
						var got queryd.VulnerabilityResponse
						if rec := postJSON(t, h, "/v1/vulnerability", req, &got); rec.Code != http.StatusOK {
							t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
						}
						for _, batchWorkers := range []int{1, 8} {
							res, err := hijack.SweepAll(w.Policy, []hijack.SweepConfig{cfg}, sweep.Options{Workers: batchWorkers})
							if err != nil {
								t.Fatal(err)
							}
							want := res[0]
							wantDig := digest(t, struct {
								A []int
								P []int
								W []float64
							}{want.Attackers, want.Pollution, want.WeightFrac})
							gotDig := digest(t, struct {
								A []int
								P []int
								W []float64
							}{got.Attackers, got.Pollution, got.WeightFrac})
							if wantDig != gotDig {
								t.Fatalf("batch workers=%d digest mismatch:\nbatch %s\nquery %s", batchWorkers, wantDig, gotDig)
							}
						}
					})
				}
			}
		}
	}
}

// TestDeploymentMatchesBatch pins /v1/deployment against
// deploy.Evaluate over a mixed strategy ladder, and against
// hijack.SweepAll over deploy.ConfigsScenario for every attack kind and
// mechanism set.
func TestDeploymentMatchesBatch(t *testing.T) {
	w := testWorld(t)
	n := w.Policy.N()
	target := 4
	attackers := sampleAttackers(n, 30, 11)
	custom := []int{2, 8, 14, 77, 120}
	strategies := []deploy.Strategy{
		deploy.None(),
		deploy.Tier1(w.Class),
		deploy.TopDegree(w.Graph, 12),
		deploy.Custom("custom", custom),
	}
	specs := []queryd.StrategySpec{
		{Baseline: true},
		{Tier1: true},
		{TopDegree: 12},
		{Nodes: custom, Name: "custom"},
	}

	srv := newTestServer(t, queryd.Config{Workers: 2})
	var got queryd.DeploymentResponse
	req := queryd.DeploymentRequest{Target: target, Attackers: attackers, Strategies: specs}
	if rec := postJSON(t, srv.Handler(), "/v1/deployment", req, &got); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(got.Strategies) != len(strategies) {
		t.Fatalf("got %d strategy results, want %d", len(got.Strategies), len(strategies))
	}
	for _, batchWorkers := range []int{1, 8} {
		evals, err := deploy.Evaluate(w.Policy, target, attackers, strategies, batchWorkers)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range evals {
			wantDig := digest(t, struct {
				P []int
				W []float64
			}{ev.Result.Pollution, ev.Result.WeightFrac})
			gotDig := digest(t, struct {
				P []int
				W []float64
			}{got.Strategies[i].Pollution, got.Strategies[i].WeightFrac})
			if wantDig != gotDig {
				t.Fatalf("workers=%d rung %q: digest mismatch", batchWorkers, ev.Strategy.Name)
			}
			if got.Strategies[i].Name != ev.Strategy.Name {
				t.Fatalf("rung %d name %q, want %q", i, got.Strategies[i].Name, ev.Strategy.Name)
			}
		}
	}

	// Every kind under both mechanism sets, 140 attackers per rung: each
	// rung spans two full lane batches and a partial one.
	wide := sampleAttackers(n, 140, 1)
	for _, kind := range core.Kinds() {
		for _, mechStr := range []string{"rov", "rov+aspa+peerlock"} {
			t.Run(fmt.Sprintf("%s/%s", kind, mechStr), func(t *testing.T) {
				mechs, err := core.ParseDefenseMech(mechStr)
				if err != nil {
					t.Fatal(err)
				}
				var got queryd.DeploymentResponse
				req := queryd.DeploymentRequest{Target: target, Attackers: wide, Kind: kind.String(), Mechs: mechStr, Strategies: specs}
				if rec := postJSON(t, srv.Handler(), "/v1/deployment", req, &got); rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
				if got.Mechs != mechs.String() || len(got.Strategies) != len(strategies) {
					t.Fatalf("mechs %q with %d rungs, want %q with %d", got.Mechs, len(got.Strategies), mechs.String(), len(strategies))
				}
				for _, batchWorkers := range []int{1, 8} {
					res, err := hijack.SweepAll(w.Policy, deploy.ConfigsScenario(w.Policy, target, wide, strategies, kind, mechs), sweep.Options{Workers: batchWorkers})
					if err != nil {
						t.Fatal(err)
					}
					for i, want := range res {
						wantDig := digest(t, struct {
							A []int
							P []int
							W []float64
						}{want.Attackers, want.Pollution, want.WeightFrac})
						gotDig := digest(t, struct {
							A []int
							P []int
							W []float64
						}{got.Attackers, got.Strategies[i].Pollution, got.Strategies[i].WeightFrac})
						if wantDig != gotDig {
							t.Fatalf("batch workers=%d rung %q: digest mismatch", batchWorkers, strategies[i].Name)
						}
						if g := got.Strategies[i]; g.Name != strategies[i].Name || g.Deployed != len(strategies[i].Nodes) {
							t.Fatalf("rung %d: %q deploying %d, want %q deploying %d", i, g.Name, g.Deployed, strategies[i].Name, len(strategies[i].Nodes))
						}
					}
				}
			})
		}
	}
}

// TestDetectionMatchesBatch pins /v1/detection against
// detect.EvaluateAll across semantics, kinds and a deployed defense.
func TestDetectionMatchesBatch(t *testing.T) {
	w := testWorld(t)
	n := w.Policy.N()
	pool := w.Graph.TransitNodes()
	rng := rand.New(rand.NewSource(41))
	sets := []detect.ProbeSet{
		detect.Tier1Probes(w.Class),
		detect.TopDegreeProbes(w.Graph, 8),
		detect.CustomProbes("pair", []int{3, 200}),
	}
	rovNodes := []int{0, 7, 31, 90}
	rov := asn.NewIndexSet(n)
	for _, i := range rovNodes {
		rov.Add(i)
	}

	srv := newTestServer(t, queryd.Config{Workers: 4})
	h := srv.Handler()
	for _, kind := range core.Kinds() {
		attacks, err := detect.GenerateAttacksOfKind(pool, 60, kind, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, semName := range []string{"selected", "any-received"} {
			t.Run(fmt.Sprintf("%s/%s", kind, semName), func(t *testing.T) {
				sem := detect.SelectedRoute
				if semName != "selected" {
					sem = detect.AnyReceived
				}
				req := queryd.DetectionRequest{
					Kind:      kind.String(),
					Semantics: semName,
					Defense:   queryd.DefenseSpec{ROV: rovNodes},
				}
				for _, ps := range sets {
					req.Probes = append(req.Probes, queryd.ProbeSetSpec{Name: ps.Name, Probes: ps.Probes})
				}
				for _, at := range attacks {
					req.Attacks = append(req.Attacks, queryd.DetectionAttack{Target: at.Target, Attacker: at.Attacker})
				}
				var got queryd.DetectionResponse
				if rec := postJSON(t, h, "/v1/detection", req, &got); rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
				for _, batchWorkers := range []int{1, 8} {
					res, err := detect.EvaluateAll(w.Policy, sets, attacks, sem, core.Defense{Blocked: rov}, batchWorkers)
					if err != nil {
						t.Fatal(err)
					}
					for j, want := range res {
						g := got.Results[j]
						misses := make([]queryd.DetectionMiss, 0, len(want.Misses))
						for _, m := range want.Misses {
							misses = append(misses, queryd.DetectionMiss{Attacker: m.Attacker, Target: m.Target, Pollution: m.Pollution})
						}
						wantDig := digest(t, struct {
							H []int
							M []float64
							X []queryd.DetectionMiss
						}{want.TriggerHist, want.MeanPollutionByTriggers, misses})
						gotDig := digest(t, struct {
							H []int
							M []float64
							X []queryd.DetectionMiss
						}{g.TriggerHist, g.MeanPollutionByTriggers, g.Misses})
						if wantDig != gotDig {
							t.Fatalf("workers=%d set %q: digest mismatch", batchWorkers, want.ProbeSet.Name)
						}
					}
				}
			})
		}
	}
}

// TestAttackMatchesDirectSolve pins the exact tier of /v1/attack
// against a direct solver run, sub-prefix included.
func TestAttackMatchesDirectSolve(t *testing.T) {
	w := testWorld(t)
	n := w.Policy.N()
	srv := newTestServer(t, queryd.Config{Workers: 2})
	h := srv.Handler()
	solver := core.NewSolver(w.Policy)
	total := w.Graph.TotalAddrWeight()
	for _, tc := range []struct {
		kind      core.AttackKind
		subPrefix bool
	}{
		{core.KindOrigin, false},
		{core.KindOrigin, true},
		{core.KindForgedOrigin, false},
		{core.KindRouteLeak, false},
	} {
		at := core.Attack{Target: 10, Attacker: n - 3, Kind: tc.kind, SubPrefix: tc.subPrefix}
		o, err := solver.SolveDefense(at, core.Defense{})
		if err != nil {
			t.Fatal(err)
		}
		want := hijack.Measure(w.Graph, total, o)
		var got queryd.AttackResponse
		req := queryd.AttackRequest{Target: at.Target, Attacker: at.Attacker, Kind: tc.kind.String(), SubPrefix: tc.subPrefix, Exact: true}
		if rec := postJSON(t, h, "/v1/attack", req, &got); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if got.Pollution == nil || *got.Pollution != want.Pollution {
			t.Fatalf("%s sub=%v: pollution %v, want %d", tc.kind, tc.subPrefix, got.Pollution, want.Pollution)
		}
		if got.WeightFrac == nil || *got.WeightFrac != want.WeightFrac {
			t.Fatalf("%s sub=%v: weight frac %v, want %v", tc.kind, tc.subPrefix, got.WeightFrac, want.WeightFrac)
		}
		if got.Path != "delta" && got.Path != "full" {
			t.Fatalf("exact answer path %q", got.Path)
		}
		if tc.subPrefix && got.Path != "full" {
			t.Fatalf("sub-prefix attack answered via %q, want full", got.Path)
		}
	}
}

// TestConcurrentAttackMatchesDirectSolve pins N concurrent exact
// /v1/attack queries to N sequential ones: clients post mixed kinds and
// defenses to a 2,000-AS server with one worker per client, and every
// answer must equal a fresh Solver's SolveDefense plus hijack.Measure of
// that cell. The workers' solvers share one Policy, so anything a solve
// or a measurement kept on it would race here (run under -race).
func TestConcurrentAttackMatchesDirectSolve(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const clients, perClient = 4, 30
	w, err := experiments.NewWorld(2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	n := w.Policy.N()
	srv := newTestServer(t, queryd.Config{World: w, Workers: clients})
	h := srv.Handler()
	total := w.Graph.TotalAddrWeight()

	rng := rand.New(rand.NewSource(36))
	top := topology.NodesByDegree(w.Graph)[:50]
	var tenth []int
	for i := 0; i < n; i += 10 {
		tenth = append(tenth, i)
	}
	specs := []queryd.DefenseSpec{{}, {ROV: top}, {ROV: tenth, ASPA: tenth}, {ASPA: tenth, Peerlock: true}}
	kinds := []struct {
		kind core.AttackKind
		sub  bool
	}{{core.KindOrigin, false}, {core.KindOrigin, true}, {core.KindForgedOrigin, false}, {core.KindRouteLeak, false}}
	type cell struct {
		req  queryd.AttackRequest
		want hijack.Record
	}
	cells := make([]cell, clients*perClient)
	for i := range cells {
		k, spec := kinds[rng.Intn(len(kinds))], specs[rng.Intn(len(specs))]
		at := core.Attack{Target: rng.Intn(n), Attacker: rng.Intn(n - 1), Kind: k.kind, SubPrefix: k.sub}
		if at.Attacker >= at.Target {
			at.Attacker++
		}
		def := core.Defense{Peerlock: spec.Peerlock}
		if len(spec.ROV) > 0 {
			def.Blocked = asn.NewIndexSet(n)
			for _, v := range spec.ROV {
				def.Blocked.Add(v)
			}
		}
		if len(spec.ASPA) > 0 {
			def.ASPA = asn.NewIndexSet(n)
			for _, v := range spec.ASPA {
				def.ASPA.Add(v)
			}
		}
		o, err := core.NewSolver(w.Policy).SolveDefense(at, def)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = cell{
			req:  queryd.AttackRequest{Target: at.Target, Attacker: at.Attacker, Kind: k.kind.String(), SubPrefix: k.sub, Defense: spec, Exact: true},
			want: hijack.Measure(w.Graph, total, o),
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(cells); i += clients {
				raw, err := json.Marshal(cells[i].req)
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/attack", bytes.NewReader(raw)))
				var got queryd.AttackResponse
				if rec.Code != http.StatusOK {
					t.Errorf("cell %d: status %d: %s", i, rec.Code, rec.Body.String())
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Error(err)
					return
				}
				want := cells[i].want
				if got.Pollution == nil || got.WeightFrac == nil || *got.Pollution != want.Pollution || *got.WeightFrac != want.WeightFrac {
					t.Errorf("cell %d (%+v) concurrently: pollution %v, weight frac %v; sequentially: %d, %v",
						i, cells[i].req, got.Pollution, got.WeightFrac, want.Pollution, want.WeightFrac)
					return
				}
			}
		}()
	}
	wg.Wait()
}
