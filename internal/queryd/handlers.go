package queryd

import (
	"net/http"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/sweep"
)

// maxBodyBytes caps every request body. An all-AS attacker list at paper
// scale is ~300 KB, so the cap is far above any honest request.
const maxBodyBytes = 8 << 20

// batch runs a multi-cell query on the sweep runtime's calling
// goroutine: the query already holds one admitted worker, so it solves
// no wider than one.
var batch = sweep.Options{Workers: 1}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/attack", s.handleAttack)
	s.mux.HandleFunc("POST /v1/vulnerability", s.query(&s.met.vulnerab, s.vulnerabilityQuery))
	s.mux.HandleFunc("POST /v1/deployment", s.query(&s.met.deployment, s.deploymentQuery))
	s.mux.HandleFunc("POST /v1/detection", s.query(&s.met.detection, s.detectionQuery))
}

// query wraps a multi-cell endpoint with the body cap and the solver
// tier's serving machinery.
func (s *Server) query(ep *endpointMetrics, fn func(epoch int64, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		s.solve(w, r, ep, func(epoch int64, _ *worker) (any, error) { return fn(epoch, r) })
	}
}

// solve runs fn on the solver tier: bounded admission (shed with 429 +
// Retry-After when full), latency observation and JSON rendering. fn
// answers under the epoch current when it starts and holds its admitted
// worker for its whole run. A request whose client has gone while it
// waited for a worker hands the worker straight back unsolved and is
// counted as canceled.
func (s *Server) solve(w http.ResponseWriter, r *http.Request, ep *endpointMetrics, fn func(epoch int64, wk *worker) (any, error)) {
	wk, ok := s.admit()
	if !ok {
		ep.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "server overloaded, retry later"})
		return
	}
	defer s.release(wk)
	if r.Context().Err() != nil {
		ep.canceled.Add(1)
		return
	}
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	start := s.clock.Now()
	resp, err := fn(s.Epoch(), wk)
	if err != nil {
		fail(w, ep, err)
		return
	}
	ep.lat.observe(s.clock.Now().Sub(start).Nanoseconds())
	ep.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// fail counts and renders an endpoint error: an apiError's own status,
// 500 for anything else.
func fail(w http.ResponseWriter, ep *endpointMetrics, err error) {
	ep.errs.Add(1)
	code := http.StatusInternalServerError
	if ae, ok := err.(*apiError); ok {
		code = ae.code
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"epoch":     s.Epoch(),
		"uptime_ns": s.clock.Now().Sub(s.started).Nanoseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshotMetrics())
}

// handleReload installs a fresh epoch.
func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	epoch := s.Reload()
	writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch})
}

// handleAttack is the two-tier what-if endpoint. The estimator tier is
// O(1) and bypasses the worker pool entirely, so cheap answers survive
// overload; only "exact": true competes for a solver.
func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	ep := &s.met.attack
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	req, at, def, err := s.parseAttack(r)
	if err != nil {
		fail(w, ep, err)
		return
	}
	resp := &AttackResponse{
		Target:   req.Target,
		Attacker: req.Attacker,
		Kind:     at.Kind.String(),
		Exact:    req.Exact,
		Estimate: s.est.estimate(at),
		Path:     "estimate",
	}
	s.met.estimates.Add(1)

	if !req.Exact {
		start := s.clock.Now()
		resp.Epoch = s.Epoch()
		ep.lat.observe(s.clock.Now().Sub(start).Nanoseconds())
		ep.served.Add(1)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.solve(w, r, ep, func(epoch int64, wk *worker) (any, error) {
		o, err := wk.solver.SolveDefense(at, def)
		if err != nil {
			return nil, err
		}
		s.met.solves.Add(1)
		rec := hijack.Measure(s.world.Graph, s.totalWeight, o)
		resp.Epoch, resp.Path = epoch, "full"
		resp.Pollution, resp.WeightFrac = &rec.Pollution, &rec.WeightFrac
		return resp, nil
	})
}

// parseAttack decodes and validates one /v1/attack request.
func (s *Server) parseAttack(r *http.Request) (req AttackRequest, at core.Attack, def core.Defense, err error) {
	if err = decodeBody(r, &req); err != nil {
		return
	}
	n := s.world.Policy.N()
	if at.Kind, err = parseKind(req.Kind, req.SubPrefix); err != nil {
		return
	}
	if req.Target < 0 || req.Target >= n || req.Attacker < 0 || req.Attacker >= n {
		err = badRequest("target or attacker out of range")
		return
	}
	if req.Target == req.Attacker {
		err = badRequest("attacker must differ from target")
		return
	}
	at.Target, at.Attacker, at.SubPrefix = req.Target, req.Attacker, req.SubPrefix
	def, err = req.Defense.resolve(n)
	return
}

// parseKind resolves a request's attack kind, rejecting the one
// combination no scenario defines.
func parseKind(kind string, subPrefix bool) (core.AttackKind, error) {
	k, err := core.ParseAttackKind(kind)
	if err != nil {
		return k, badRequest("%v", err)
	}
	if k == core.KindRouteLeak && subPrefix {
		return k, badRequest("a route leak re-announces the real prefix; sub-prefix route leaks are invalid")
	}
	return k, nil
}

// attackerList resolves a request's attacker list (all ASes when empty),
// checking every index; the sweep runtime drops the target itself.
func (s *Server) attackerList(attackers []int) ([]int, error) {
	n := s.world.Policy.N()
	if len(attackers) == 0 {
		return hijack.AllNodes(n), nil
	}
	for _, a := range attackers {
		if a < 0 || a >= n {
			return nil, badRequest("attacker %d out of range (n=%d)", a, n)
		}
	}
	return attackers, nil
}

func (s *Server) vulnerabilityQuery(epoch int64, r *http.Request) (any, error) {
	var req VulnerabilityRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	n := s.world.Policy.N()
	kind, err := parseKind(req.Kind, req.SubPrefix)
	if err != nil {
		return nil, err
	}
	if req.Target < 0 || req.Target >= n {
		return nil, badRequest("target %d out of range (n=%d)", req.Target, n)
	}
	def, err := req.Defense.resolve(n)
	if err != nil {
		return nil, err
	}
	attackers, err := s.attackerList(req.Attackers)
	if err != nil {
		return nil, err
	}
	cfg := hijack.SweepConfig{Target: req.Target, Attackers: attackers, Kind: kind, SubPrefix: req.SubPrefix, Defense: def}
	res, err := hijack.SweepAll(s.world.Policy, []hijack.SweepConfig{cfg}, batch)
	if err != nil {
		return nil, err
	}
	s.met.solves.Add(int64(len(res[0].Attackers)))
	return &VulnerabilityResponse{
		Epoch:      epoch,
		Target:     req.Target,
		Kind:       kind.String(),
		Attackers:  res[0].Attackers,
		Pollution:  res[0].Pollution,
		WeightFrac: res[0].WeightFrac,
	}, nil
}

func (s *Server) deploymentQuery(epoch int64, r *http.Request) (any, error) {
	var req DeploymentRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	n := s.world.Policy.N()
	kind, err := parseKind(req.Kind, false)
	if err != nil {
		return nil, err
	}
	mechStr := req.Mechs
	if mechStr == "" {
		mechStr = "rov"
	}
	mechs, err := core.ParseDefenseMech(mechStr)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if req.Target < 0 || req.Target >= n {
		return nil, badRequest("target %d out of range (n=%d)", req.Target, n)
	}
	if len(req.Strategies) == 0 {
		return nil, badRequest("deployment query needs at least one strategy")
	}
	attackers, err := s.attackerList(req.Attackers)
	if err != nil {
		return nil, err
	}
	strats := make([]deploy.Strategy, len(req.Strategies))
	for i, spec := range req.Strategies {
		if strats[i], err = spec.resolve(s.world.Graph, s.world.Class); err != nil {
			return nil, err
		}
	}
	res, err := hijack.SweepAll(s.world.Policy, deploy.ConfigsScenario(s.world.Policy, req.Target, attackers, strats, kind, mechs), batch)
	if err != nil {
		return nil, err
	}
	resp := &DeploymentResponse{
		Epoch:     epoch,
		Target:    req.Target,
		Kind:      kind.String(),
		Mechs:     mechs.String(),
		Attackers: res[0].Attackers,
	}
	for i, st := range strats {
		resp.Strategies = append(resp.Strategies, StrategyResult{
			Name:       st.Name,
			Deployed:   len(st.Nodes),
			Pollution:  res[i].Pollution,
			WeightFrac: res[i].WeightFrac,
		})
	}
	s.met.solves.Add(int64(len(strats) * len(resp.Attackers)))
	return resp, nil
}

func (s *Server) detectionQuery(epoch int64, r *http.Request) (any, error) {
	var req DetectionRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	n := s.world.Policy.N()
	kind, err := parseKind(req.Kind, false)
	if err != nil {
		return nil, err
	}
	sem, err := parseSemantics(req.Semantics)
	if err != nil {
		return nil, err
	}
	def, err := req.Defense.resolve(n)
	if err != nil {
		return nil, err
	}
	if len(req.Probes) == 0 {
		return nil, badRequest("detection query needs at least one probe set")
	}
	sets := make([]detect.ProbeSet, len(req.Probes))
	for i, ps := range req.Probes {
		if len(ps.Probes) == 0 {
			return nil, badRequest("probe set %q is empty", ps.Name)
		}
		for _, p := range ps.Probes {
			if p < 0 || p >= n {
				return nil, badRequest("probe set %q: probe %d out of range (n=%d)", ps.Name, p, n)
			}
		}
		sets[i] = detect.CustomProbes(ps.Name, ps.Probes)
	}
	attacks := make([]core.Attack, len(req.Attacks))
	for i, a := range req.Attacks {
		if a.Target < 0 || a.Target >= n || a.Attacker < 0 || a.Attacker >= n || a.Target == a.Attacker {
			return nil, badRequest("attack %d: bad (target=%d, attacker=%d)", i, a.Target, a.Attacker)
		}
		attacks[i] = core.Attack{Target: a.Target, Attacker: a.Attacker, Kind: kind}
	}
	out, err := detect.EvaluateAll(s.world.Policy, sets, attacks, sem, def, batch.Workers)
	if err != nil {
		return nil, err
	}
	s.met.solves.Add(int64(len(attacks)))
	resp := &DetectionResponse{Epoch: epoch, Kind: kind.String()}
	for _, res := range out {
		dr := DetectionResult{
			Name:                    res.ProbeSet.Name,
			TriggerHist:             res.TriggerHist,
			MeanPollutionByTriggers: res.MeanPollutionByTriggers,
			Misses:                  make([]DetectionMiss, 0, len(res.Misses)),
			TotalAttacks:            res.TotalAttacks,
			MissRate:                res.MissRate(),
		}
		for _, m := range res.Misses {
			dr.Misses = append(dr.Misses, DetectionMiss{Attacker: m.Attacker, Target: m.Target, Pollution: m.Pollution})
		}
		resp.Results = append(resp.Results, dr)
	}
	return resp, nil
}
