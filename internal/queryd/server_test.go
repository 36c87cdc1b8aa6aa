package queryd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/stats"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// serverWorld is the white-box tests' shared fixture world.
var (
	serverWorldOnce sync.Once
	serverWorldVal  *experiments.World
	serverWorldErr  error
)

func serverWorld(t testing.TB) *experiments.World {
	t.Helper()
	serverWorldOnce.Do(func() {
		serverWorldVal, serverWorldErr = experiments.NewWorld(250, 3)
	})
	if serverWorldErr != nil {
		t.Fatal(serverWorldErr)
	}
	return serverWorldVal
}

func mustServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.World == nil {
		cfg.World = serverWorld(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func do(t testing.TB, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func decodeInto(t testing.TB, rec *httptest.ResponseRecorder, out any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("decode response: %v\n%s", err, rec.Body.String())
	}
}

func TestHealthzAndUptime(t *testing.T) {
	clk := tick.NewFake()
	s := mustServer(t, Config{Workers: 1, Clock: clk})
	var h struct {
		Status   string `json:"status"`
		Epoch    int64  `json:"epoch"`
		UptimeNs int64  `json:"uptime_ns"`
	}
	rec := do(t, s, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	decodeInto(t, rec, &h)
	if h.Status != "ok" || h.Epoch != 1 || h.UptimeNs != 0 {
		t.Fatalf("healthz = %+v, want ok/epoch 1/uptime 0", h)
	}
	clk.Advance(3 * time.Second)
	decodeInto(t, do(t, s, "GET", "/healthz", ""), &h)
	if h.UptimeNs != (3 * time.Second).Nanoseconds() {
		t.Fatalf("uptime after advance = %d", h.UptimeNs)
	}
}

// exactAttack posts one exact /v1/attack query and returns the answer and
// the server's counters after it.
func exactAttack(t testing.TB, s *Server, body string) (AttackResponse, metricsSnapshot) {
	t.Helper()
	rec := do(t, s, "POST", "/v1/attack", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("attack %s: status %d: %s", body, rec.Code, rec.Body.String())
	}
	var a AttackResponse
	decodeInto(t, rec, &a)
	if a.Examined == nil {
		t.Fatalf("attack %s: exact answer carries no \"examined\": %s", body, rec.Body.String())
	}
	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	return a, m
}

func TestReloadBumpsEpochAndDropsCache(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	// Warm the snapshot cache: a target's second sighting builds it.
	const q = `{"target": 5, "attacker": 9, "exact": true}`
	exactAttack(t, s, q)
	_, m := exactAttack(t, s, q)
	if m.Snapshots.Cached != 1 || m.Snapshots.Builds != 1 {
		t.Fatalf("after the warm queries: cached=%d builds=%d, want 1/1", m.Snapshots.Cached, m.Snapshots.Builds)
	}

	var r struct {
		Epoch int64 `json:"epoch"`
	}
	decodeInto(t, do(t, s, "POST", "/reload", ""), &r)
	if r.Epoch != 2 {
		t.Fatalf("reload epoch = %d, want 2", r.Epoch)
	}
	if got := s.Epoch(); got != 2 {
		t.Fatalf("server epoch = %d, want 2", got)
	}
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Epoch != 2 || m.Reloads != 1 || m.Snapshots.Cached != 0 {
		t.Fatalf("after reload: epoch=%d reloads=%d cached=%d, want 2/1/0", m.Epoch, m.Reloads, m.Snapshots.Cached)
	}
	// The new epoch starts a clean admission window too: the target is a
	// first sighting again.
	a, m := exactAttack(t, s, q)
	if a.Snapshot != snapshotMiss || m.Snapshots.Cached != 0 || m.Snapshots.Builds != 1 {
		t.Fatalf("first query after reload: snapshot=%q cached=%d builds=%d, want a miss that builds nothing", a.Snapshot, m.Snapshots.Cached, m.Snapshots.Builds)
	}
}

// TestReloadDrainsInflight pins the drain contract: Reload returns only
// after every query registered on the old epoch has finished, and such
// a query keeps its (old-epoch) state usable throughout.
func TestReloadDrainsInflight(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	st := s.acquireState() // a query in flight on epoch 1

	done := make(chan int64, 1)
	go func() { done <- s.Reload() }()

	// Wait for the swap: new queries land on epoch 2 while the reload
	// blocks in its drain wait.
	deadline := time.Now().Add(5 * time.Second)
	for s.Epoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("epoch swap never happened")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Reload returned while an old-epoch query was still in flight")
	default:
	}
	if st.epoch != 1 {
		t.Fatalf("in-flight query's state epoch = %d, want 1", st.epoch)
	}

	st.inflight.Done() // the old-epoch query finishes
	select {
	case epoch := <-done:
		if epoch != 2 {
			t.Fatalf("Reload returned epoch %d, want 2", epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reload did not return after the last old-epoch query finished")
	}
	s.Drain() // no queries in flight: must not block
}

// TestShedUnderOverload pins the load-shedding contract: with every
// admission slot held, solver-tier requests get a counted 429 with
// Retry-After, while the estimator tier keeps answering 200.
func TestShedUnderOverload(t *testing.T) {
	s := mustServer(t, Config{Workers: 1, Backlog: -1}) // slots capacity exactly 1
	s.slots <- struct{}{}                               // occupy the only admission slot

	rec := do(t, s, "POST", "/v1/attack", `{"target": 5, "attacker": 9, "exact": true}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("exact attack under overload: status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	rec = do(t, s, "POST", "/v1/vulnerability", `{"target": 5}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("vulnerability under overload: status %d, want 429", rec.Code)
	}

	// The estimator tier bypasses the worker pool: still 200.
	rec = do(t, s, "POST", "/v1/attack", `{"target": 5, "attacker": 9}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate under overload: status %d, want 200", rec.Code)
	}
	var est AttackResponse
	decodeInto(t, rec, &est)
	if est.Path != "estimate" || est.Pollution != nil {
		t.Fatalf("estimate answer path=%q pollution=%v", est.Path, est.Pollution)
	}

	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Endpoints["attack"].Shed != 1 || m.Endpoints["vulnerability"].Shed != 1 {
		t.Fatalf("shed counters attack=%d vulnerability=%d, want 1/1",
			m.Endpoints["attack"].Shed, m.Endpoints["vulnerability"].Shed)
	}
	if m.Endpoints["attack"].Served != 1 {
		t.Fatalf("estimate not counted as served: %d", m.Endpoints["attack"].Served)
	}

	<-s.slots // overload over; the solver tier recovers
	rec = do(t, s, "POST", "/v1/attack", `{"target": 5, "attacker": 9, "exact": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("attack after recovery: status %d", rec.Code)
	}
}

func TestMetricsCountSolvePaths(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	// An exact query is one solve, whichever kernel answers it.
	if rec := do(t, s, "POST", "/v1/attack", `{"target": 5, "attacker": 9, "exact": true}`); rec.Code != http.StatusOK {
		t.Fatalf("attack status %d: %s", rec.Code, rec.Body.String())
	}
	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Solves.Delta+m.Solves.Full != 1 {
		t.Fatalf("solve counters delta=%d full=%d, want exactly one solve", m.Solves.Delta, m.Solves.Full)
	}
	if m.Solves.Estimates != 1 {
		t.Fatalf("estimates = %d, want 1 (every attack answer carries one)", m.Solves.Estimates)
	}
	if m.Endpoints["attack"].Served != 1 || m.Endpoints["attack"].Observed != 1 {
		t.Fatalf("attack endpoint served=%d observed=%d", m.Endpoints["attack"].Served, m.Endpoints["attack"].Observed)
	}
	if m.Inflight != 0 {
		t.Fatalf("inflight gauge = %d after quiesce", m.Inflight)
	}
}

func TestBadRequests(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	n := serverWorld(t).Policy.N()
	cases := []struct {
		name, path, body string
		wantErr          string
	}{
		{"bad kind", "/v1/attack", `{"target": 1, "attacker": 2, "kind": "teleport"}`, "attack scenario"},
		{"target range", "/v1/attack", `{"target": 999999, "attacker": 2}`, "out of range"},
		{"self attack", "/v1/attack", `{"target": 3, "attacker": 3}`, "differ"},
		{"unknown field", "/v1/attack", `{"target": 1, "attacker": 2, "bogus": true}`, "bogus"},
		{"defense range", "/v1/attack", `{"target": 1, "attacker": 2, "defense": {"rov": [-4]}}`, "defense.rov"},
		{"leak subprefix", "/v1/vulnerability", `{"target": 1, "kind": "route-leak", "sub_prefix": true}`, "sub-prefix"},
		{"attacker range", "/v1/vulnerability", `{"target": 1, "attackers": [5, 700000]}`, "out of range"},
		{"no strategies", "/v1/deployment", `{"target": 1}`, "at least one strategy"},
		{"two forms", "/v1/deployment", `{"target": 1, "strategies": [{"tier1": true, "top_degree": 5}]}`, "exactly one"},
		{"bad mechs", "/v1/deployment", `{"target": 1, "mechs": "magic", "strategies": [{"tier1": true}]}`, "mechanism"},
		{"no probes", "/v1/detection", `{"attacks": [{"target": 1, "attacker": 2}]}`, "at least one probe set"},
		{"empty probe set", "/v1/detection", `{"probes": [{"name": "x", "probes": []}], "attacks": [{"target": 1, "attacker": 2}]}`, "empty"},
		{"bad semantics", "/v1/detection", `{"semantics": "psychic", "probes": [{"name": "x", "probes": [1]}], "attacks": [{"target": 1, "attacker": 2}]}`, "semantics"},
		{"bad attack pair", "/v1/detection", `{"probes": [{"name": "x", "probes": [1]}], "attacks": [{"target": 2, "attacker": 2}]}`, "bad"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, "POST", tc.path, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", rec.Code, rec.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			decodeInto(t, rec, &e)
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	var errs int64
	for _, ep := range m.Endpoints {
		errs += ep.Errors
	}
	if errs != int64(len(cases)) {
		t.Fatalf("error counter total = %d, want %d", errs, len(cases))
	}
	if n := s.world.Policy.N(); n != serverWorld(t).Policy.N() {
		t.Fatalf("world mutated: n=%d", n)
	}
	_ = n
}

// TestSnapshotCacheEviction pins the bound: the cache never holds more
// than SnapshotCap entries, and evicted targets rebuild on return.
// Multi-cell requests admit their target at once, so each one here is an
// admission.
func TestSnapshotCacheEviction(t *testing.T) {
	s := mustServer(t, Config{Workers: 1, SnapshotCap: 2})
	for _, target := range []int{1, 2, 3, 1} {
		body := fmt.Sprintf(`{"target": %d, "attackers": [9, 10]}`, target)
		if rec := do(t, s, "POST", "/v1/vulnerability", body); rec.Code != http.StatusOK {
			t.Fatalf("target %d: status %d", target, rec.Code)
		}
	}
	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Snapshots.Cached != 2 {
		t.Fatalf("cached = %d, want cap 2", m.Snapshots.Cached)
	}
	// Four requests, four distinct builds: target 1 was evicted by 3 and
	// rebuilt on its second visit, which in turn evicted 2.
	if m.Snapshots.Builds != 4 || m.Snapshots.Evictions != 2 {
		t.Fatalf("builds = %d, evictions = %d, want 4 and 2 (eviction forces a rebuild)", m.Snapshots.Builds, m.Snapshots.Evictions)
	}
}

// TestClockSecondChance pins the eviction order: FIFO drops an entry at
// the cap-th admission after its own, hit or not; CLOCK passes over an
// entry hit since the hand last reached it — once — and drops the un-hit
// ones.
func TestClockSecondChance(t *testing.T) {
	const cap = 3
	st := newEpochState(1, cap, 64)
	// has reads the map directly: a lookup would set the reference bit.
	has := func(target int) bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.snaps[target] != nil
	}
	for target := 1; target <= cap; target++ {
		if _, hit, evicted := st.lookup(target, admitNow); hit || evicted {
			t.Fatalf("filling the cache: target %d hit=%v evicted=%v", target, hit, evicted)
		}
	}
	if _, hit, _ := st.lookup(1, admitNever); !hit { // the oldest entry is hit
		t.Fatal("target 1 not cached after its admission")
	}
	// cap admissions after target 1's own, it is still there; target 2,
	// admitted later but never hit, is not.
	if _, _, evicted := st.lookup(4, admitNow); !evicted {
		t.Fatal("admission into a full cache evicted nothing")
	}
	if !has(1) || has(2) || st.cached() != cap {
		t.Fatalf("after one admission: hit target 1 cached=%v, un-hit target 2 cached=%v, %d cached; want true/false/%d", has(1), has(2), st.cached(), cap)
	}
	// The second chance is one chance: without another hit, target 1 goes
	// when the hand comes round again (after 3, the remaining un-hit entry).
	st.lookup(5, admitNow)
	st.lookup(6, admitNow)
	if has(1) || has(3) || !has(4) || !has(5) || !has(6) {
		t.Fatalf("after the hand came round: cached 1=%v 3=%v 4=%v 5=%v 6=%v, want only the three newest", has(1), has(3), has(4), has(5), has(6))
	}
}

// TestAttackAdmission pins who builds a snapshot: a single-cell query
// builds on its target's second sighting, not its first; a multi-cell
// request builds at once. The query deploys ROV at the attacker alone,
// which stops nothing but is a deployed filter: with a baseline to repair
// the repair is tried, spends its budget, and the answer and /metrics say
// so.
func TestAttackAdmission(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	const q = `{"target": 5, "attacker": 9, "exact": true, "defense": {"rov": [9]}}`
	budget := int64(s.world.Policy.N()/32 + 64)
	for i, want := range []struct {
		snapshot string
		builds   int64
		examined int64
	}{{snapshotMiss, 0, 0}, {snapshotBuilt, 1, budget + 1}, {snapshotHit, 1, budget + 1}} {
		a, m := exactAttack(t, s, q)
		if a.Snapshot != want.snapshot || m.Snapshots.Builds != want.builds {
			t.Fatalf("sighting %d: snapshot=%q builds=%d, want %q/%d", i+1, a.Snapshot, m.Snapshots.Builds, want.snapshot, want.builds)
		}
		if a.Path != "full" || *a.Examined != want.examined {
			t.Fatalf("sighting %d: answered via %q after %d examinations, want a full solve after %d", i+1, a.Path, *a.Examined, want.examined)
		}
		if m.Snapshots.Hits+m.Snapshots.Misses != int64(i+1) {
			t.Fatalf("sighting %d: hits=%d misses=%d do not add up", i+1, m.Snapshots.Hits, m.Snapshots.Misses)
		}
		if m.Solves.Full != int64(i+1) || m.Solves.Bailed != int64(i) || m.Solves.Delta != 0 {
			t.Fatalf("sighting %d: solves full=%d bailed=%d delta=%d, want %d/%d/0", i+1, m.Solves.Full, m.Solves.Bailed, m.Solves.Delta, i+1, i)
		}
	}
	// The estimator tier consults nothing and says nothing about it.
	rec := do(t, s, "POST", "/v1/attack", `{"target": 5, "attacker": 9}`)
	if body := rec.Body.String(); rec.Code != http.StatusOK || strings.Contains(body, `"snapshot"`) || strings.Contains(body, `"examined"`) {
		t.Fatalf("estimate answer: status %d, body %s, want neither \"snapshot\" nor \"examined\"", rec.Code, body)
	}

	if rec := do(t, s, "POST", "/v1/vulnerability", `{"target": 6, "attackers": [9, 10]}`); rec.Code != http.StatusOK {
		t.Fatalf("vulnerability: status %d", rec.Code)
	}
	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Snapshots.Builds != 2 || m.Snapshots.Cached != 2 {
		t.Fatalf("after a multi-cell request on a new target: builds=%d cached=%d, want 2/2", m.Snapshots.Builds, m.Snapshots.Cached)
	}
	if rec := do(t, s, "POST", "/v1/deployment", `{"target": 7, "attackers": [9], "strategies": [{"tier1": true}]}`); rec.Code != http.StatusOK {
		t.Fatalf("deployment: status %d", rec.Code)
	}
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Snapshots.Builds != 3 {
		t.Fatalf("after a deployment request on a new target: builds=%d, want 3", m.Snapshots.Builds)
	}
	// Detection only consults: a new target builds nothing, now or later.
	const det = `{"probes": [{"name": "x", "probes": [1]}], "attacks": [{"target": 8, "attacker": 9}, {"target": 8, "attacker": 10}]}`
	if rec := do(t, s, "POST", "/v1/detection", det); rec.Code != http.StatusOK {
		t.Fatalf("detection: status %d", rec.Code)
	}
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Snapshots.Builds != 3 || m.Snapshots.Cached != 3 {
		t.Fatalf("after a detection request on a new target: builds=%d cached=%d, want 3/3", m.Snapshots.Builds, m.Snapshots.Cached)
	}
}

// TestAdmissionWindowClears pins the window: "sighted before" is forgotten
// after 8·cap first sightings, so a long-running server does not end up
// having seen every target once and admitting them all.
func TestAdmissionWindowClears(t *testing.T) {
	const cap = 2
	s := mustServer(t, Config{Workers: 1, SnapshotCap: cap})
	sight := func(target int) string {
		a, _ := exactAttack(t, s, fmt.Sprintf(`{"target": %d, "attacker": 40, "exact": true}`, target))
		return a.Snapshot
	}
	for target := 1; target < 8*cap; target++ {
		if got := sight(target); got != snapshotMiss {
			t.Fatalf("first sighting of target %d: snapshot=%q", target, got)
		}
	}
	// 8·cap−1 sightings in: the window still remembers the first.
	if got := sight(1); got != snapshotBuilt {
		t.Fatalf("second sighting of target 1 inside the window: snapshot=%q, want built", got)
	}
	// The 8·cap-th first sighting ends the window; target 2, sighted in
	// the old one, is new again.
	if got := sight(8 * cap); got != snapshotMiss {
		t.Fatalf("first sighting of target %d: snapshot=%q", 8*cap, got)
	}
	if got := sight(2); got != snapshotMiss {
		t.Fatalf("target 2 after the window cleared: snapshot=%q, want miss", got)
	}
	if got := sight(2); got != snapshotBuilt {
		t.Fatalf("target 2 sighted twice in the new window: snapshot=%q, want built", got)
	}
}

// TestConcurrentFirstSightingsBuildOnce: of two queries racing on a target
// nobody has seen, the lookup lock makes one the first sighting and the
// other the second, which admits the target — one build, never two, and
// never a solve against a half-built baseline (run under -race).
func TestConcurrentFirstSightingsBuildOnce(t *testing.T) {
	s := mustServer(t, Config{Workers: 2})
	for target := 1; target <= 20; target++ {
		body := fmt.Sprintf(`{"target": %d, "attacker": 40, "exact": true}`, target)
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec := do(t, s, "POST", "/v1/attack", body); rec.Code != http.StatusOK {
					t.Errorf("target %d: status %d: %s", target, rec.Code, rec.Body.String())
				}
			}()
		}
		wg.Wait()
		var m metricsSnapshot
		decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
		if m.Snapshots.Builds != int64(target) || m.Snapshots.Cached != target {
			t.Fatalf("after two concurrent queries on each of %d targets: builds=%d cached=%d, want one build each", target, m.Snapshots.Builds, m.Snapshots.Cached)
		}
	}
}

// TestEstimatorTracksExact pins the cheap tier's usefulness: over a
// random attack sample, the estimator's weight-fraction ranking must
// correlate with the exact solver's (Spearman ρ — the estimator is a
// triage tier, so rank order is what matters).
func TestEstimatorTracksExact(t *testing.T) {
	w := serverWorld(t)
	s := mustServer(t, Config{Workers: 1})
	n := w.Policy.N()
	rng := rand.New(rand.NewSource(17))
	var est, exact []float64
	for len(est) < 120 {
		target, attacker := rng.Intn(n), rng.Intn(n)
		if target == attacker {
			continue
		}
		at := core.Attack{Target: target, Attacker: attacker, Kind: core.KindOrigin}
		e := s.est.estimate(at)
		o, err := core.NewSolver(w.Policy).SolveDefense(at, core.Defense{})
		if err != nil {
			t.Fatal(err)
		}
		rec := hijack.Measure(w.Graph, w.Graph.TotalAddrWeight(), o)
		est = append(est, e.WeightFrac)
		exact = append(exact, rec.WeightFrac)
	}
	rho, err := stats.Spearman(est, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.5 {
		t.Fatalf("estimator Spearman ρ = %.3f vs exact, want ≥ 0.5", rho)
	}
	t.Logf("estimator vs exact: Spearman ρ = %.3f over %d attacks", rho, len(est))
}

// TestEstimateOrdering spot-checks estimator semantics: sub-prefix
// saturates, and a route leak is damped below the same node's origin
// hijack.
func TestEstimateOrdering(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	n := s.world.Policy.N()
	at := core.Attack{Target: 3, Attacker: 40, Kind: core.KindOrigin}
	origin := s.est.estimate(at)

	at.SubPrefix = true
	sub := s.est.estimate(at)
	if sub.Pollution != n-2 || sub.WeightFrac != 1 {
		t.Fatalf("sub-prefix estimate = %+v, want saturation", sub)
	}

	at.SubPrefix = false
	at.Kind = core.KindRouteLeak
	leak := s.est.estimate(at)
	if leak.WeightFrac >= origin.WeightFrac && origin.WeightFrac > 0 {
		t.Fatalf("leak estimate %.4f not damped below origin %.4f", leak.WeightFrac, origin.WeightFrac)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a World must fail")
	}
	s := mustServer(t, Config{}) // all defaults
	if s.workers <= 0 || cap(s.slots) != 3*s.workers || cap(s.pool) != s.workers {
		t.Fatalf("defaults: workers=%d slots=%d pool=%d", s.workers, cap(s.slots), cap(s.pool))
	}
}
