package queryd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
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

func TestReloadBumpsEpoch(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	const q = `{"target": 5, "attacker": 9, "exact": true}`
	if rec := do(t, s, "POST", "/v1/attack", q); rec.Code != http.StatusOK {
		t.Fatalf("attack: status %d: %s", rec.Code, rec.Body.String())
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
	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Epoch != 2 || m.Reloads != 1 {
		t.Fatalf("after reload: epoch=%d reloads=%d, want 2/1", m.Epoch, m.Reloads)
	}
	// Queries after the reload answer on the new epoch.
	rec := do(t, s, "POST", "/v1/attack", q)
	var a AttackResponse
	decodeInto(t, rec, &a)
	if rec.Code != http.StatusOK || a.Epoch != 2 {
		t.Fatalf("first query after reload: status %d epoch %d, want 200 on epoch 2", rec.Code, a.Epoch)
	}
}

// TestConcurrentQueriesAcrossReload drives the concurrent surface the
// server has: clients share a two-worker pool, single-cell and
// multi-cell queries interleave on it, and reloads bump the epoch underneath
// them. Every answer must equal its sequential one (run under -race;
// make stress repeats it).
func TestConcurrentQueriesAcrossReload(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := mustServer(t, Config{Workers: 2}) // 6 slots: the 6 clients are never shed
	queries := []struct{ path, body string }{
		{"/v1/attack", `{"target": 5, "attacker": 9, "exact": true, "defense": {"rov": [1, 2, 3]}}`},
		{"/v1/attack", `{"target": 40, "attacker": 7, "exact": true, "kind": "route-leak"}`},
		{"/v1/vulnerability", `{"target": 5, "attackers": [1, 9, 40, 77, 120]}`},
		{"/v1/deployment", `{"target": 40, "attackers": [5, 9, 77], "strategies": [{"tier1": true}, {"top_degree": 5}]}`},
		{"/v1/detection", `{"probes": [{"name": "x", "probes": [1, 2]}], "attacks": [{"target": 5, "attacker": 9}, {"target": 40, "attacker": 7}]}`},
	}
	// answer is a response body without its epoch, which reloads change.
	answer := func(i int) (string, error) {
		rec := do(t, s, "POST", queries[i].path, queries[i].body)
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("%s: status %d: %s", queries[i].path, rec.Code, rec.Body.String())
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			return "", err
		}
		delete(body, "epoch")
		out, err := json.Marshal(body)
		return string(out), err
	}
	want := make([]string, len(queries))
	for i := range queries {
		var err error
		if want[i], err = answer(i); err != nil {
			t.Fatal(err)
		}
	}

	const clients, rounds, reloads = 6, 20, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (c + k) % len(queries)
				got, err := answer(i)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("%s concurrently: %s, sequentially: %s", queries[i].path, got, want[i])
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < reloads; k++ {
			s.Reload()
		}
	}()
	wg.Wait()
	if got := s.Epoch(); got != 1+reloads {
		t.Fatalf("epoch %d after %d reloads, want %d", got, reloads, 1+reloads)
	}
	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Inflight != 0 {
		t.Fatalf("inflight gauge = %d after quiesce", m.Inflight)
	}
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
	// An exact query is one solve.
	if rec := do(t, s, "POST", "/v1/attack", `{"target": 5, "attacker": 9, "exact": true}`); rec.Code != http.StatusOK {
		t.Fatalf("attack status %d: %s", rec.Code, rec.Body.String())
	}
	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Solves.Full != 1 {
		t.Fatalf("solve counter full=%d, want exactly one solve", m.Solves.Full)
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

// TestCanceledRequestSkipsSolve: an admitted request whose client left
// before a worker was free releases its worker unsolved. On a one-worker
// server a pre-canceled exact attack and a pre-canceled multi-cell query
// solve nothing, are counted as canceled, and leave the slot and the
// worker free for the next request.
func TestCanceledRequestSkipsSolve(t *testing.T) {
	s := mustServer(t, Config{Workers: 1, Backlog: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []struct{ path, body string }{
		{"/v1/attack", `{"target": 5, "attacker": 9, "exact": true}`},
		{"/v1/vulnerability", `{"target": 5}`},
	} {
		req := httptest.NewRequest("POST", q.path, strings.NewReader(q.body)).WithContext(ctx)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}
	var m metricsSnapshot
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Solves.Full != 0 {
		t.Fatalf("canceled requests ran %d solves, want 0", m.Solves.Full)
	}
	for _, name := range []string{"attack", "vulnerability"} {
		if e := m.Endpoints[name]; e.Canceled != 1 || e.Served != 0 {
			t.Fatalf("%s: canceled=%d served=%d, want 1 and 0", name, e.Canceled, e.Served)
		}
	}
	if len(s.slots) != 0 || len(s.pool) != 1 {
		t.Fatalf("after canceled requests: %d slots held, %d idle workers; want 0 and 1", len(s.slots), len(s.pool))
	}
	if rec := do(t, s, "POST", "/v1/attack", `{"target": 5, "attacker": 9, "exact": true}`); rec.Code != http.StatusOK {
		t.Fatalf("attack after canceled requests: status %d: %s", rec.Code, rec.Body.String())
	}
	decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
	if m.Solves.Full != 1 {
		t.Fatalf("a live request after canceled ones ran %d solves, want 1", m.Solves.Full)
	}
}

// TestVulnerabilityWarmAllocs: a multi-cell endpoint solves on the
// policy's idle solvers, so on the 2,000-AS bench world, once one
// 60-attacker /v1/vulnerability has warmed them, the next identical request
// allocates less than one solver's lane words (three per node).
func TestVulnerabilityWarmAllocs(t *testing.T) {
	w := benchWorld(t)
	s := mustServer(t, Config{World: w, Workers: 1})
	n := w.Policy.N()
	target := n / 7
	attackers := make([]string, 0, 60)
	for i := 0; len(attackers) < cap(attackers); i++ {
		if a := (i*31 + 1) % n; a != target {
			attackers = append(attackers, fmt.Sprint(a))
		}
	}
	body := fmt.Sprintf(`{"target": %d, "attackers": [%s]}`, target, strings.Join(attackers, ","))
	if rec := do(t, s, "POST", "/v1/vulnerability", body); rec.Code != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", rec.Code, rec.Body.String())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := do(t, s, "POST", "/v1/vulnerability", body)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got, arena := after.TotalAlloc-before.TotalAlloc, uint64(24*n); got >= arena {
		t.Fatalf("a warm request allocated %d bytes, want less than one lane arena (%d)", got, arena)
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
		{"leak subprefix exact", "/v1/attack", `{"target": 1, "attacker": 2, "kind": "route-leak", "sub_prefix": true, "exact": true}`, "sub-prefix"},
		{"leak subprefix estimate", "/v1/attack", `{"target": 1, "attacker": 2, "kind": "route-leak", "sub_prefix": true}`, "sub-prefix"},
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

// TestOversizedBody pins the body cap: a valid request padded past it
// is refused with 413 before it decodes, on the estimator tier and the
// solver tier alike, and counted as an endpoint error.
func TestOversizedBody(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	pad := strings.Repeat(" ", maxBodyBytes)
	for _, tc := range []struct{ path, endpoint, body string }{
		{"/v1/attack", "attack", `{"target": 5, "attacker": 9}`},
		{"/v1/vulnerability", "vulnerability", `{"target": 5, "attackers": [9]}`},
	} {
		if rec := do(t, s, "POST", tc.path, tc.body); rec.Code != http.StatusOK {
			t.Fatalf("%s unpadded: status %d, want 200", tc.path, rec.Code)
		}
		if rec := do(t, s, "POST", tc.path, pad+tc.body); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s padded past %d bytes: status %d, want 413 (body %s)", tc.path, maxBodyBytes, rec.Code, rec.Body.String())
		}
		var m metricsSnapshot
		decodeInto(t, do(t, s, "GET", "/metrics", ""), &m)
		if ep := m.Endpoints[tc.endpoint]; ep.Errors != 1 || ep.Served != 1 {
			t.Fatalf("%s counters: errors=%d served=%d, want 1/1", tc.path, ep.Errors, ep.Served)
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
