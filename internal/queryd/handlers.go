package queryd

import (
	"net/http"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/hijack"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/attack", s.handleAttack)
	s.mux.HandleFunc("POST /v1/vulnerability", s.query("vulnerability", s.vulnerabilityQuery))
	s.mux.HandleFunc("POST /v1/deployment", s.query("deployment", s.deploymentQuery))
	s.mux.HandleFunc("POST /v1/detection", s.query("detection", s.detectionQuery))
}

// query wraps a solver-tier endpoint with the serving machinery:
// bounded admission (shed with 429 + Retry-After when full), epoch
// registration, latency observation and JSON rendering.
func (s *Server) query(name string, fn func(st *epochState, wk *worker, r *http.Request) (any, error)) http.HandlerFunc {
	ep := s.met.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		wk, ok := s.admit()
		if !ok {
			ep.shed.Add(1)
			s.shedResponse(w)
			return
		}
		defer s.release(wk)
		st := s.acquireState()
		defer st.inflight.Done()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		start := s.clock.Now()
		resp, err := fn(st, wk, r)
		if err != nil {
			ep.errs.Add(1)
			code := http.StatusInternalServerError
			if ae, ok := err.(*apiError); ok {
				code = ae.code
			}
			writeJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		ep.lat.observe(s.clock.Now().Sub(start).Nanoseconds())
		ep.served.Add(1)
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) shedResponse(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "server overloaded, retry later"})
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

// handleReload installs a fresh snapshot epoch. It deliberately does
// NOT register on the current epoch: the reload waits for old-epoch
// queries to drain, and registering would deadlock it against itself.
func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	epoch := s.Reload()
	writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch})
}

// handleAttack is the two-tier what-if endpoint. The estimator tier is
// O(1) and bypasses the worker pool entirely, so cheap answers survive
// overload; only "exact": true competes for a solver.
func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	ep := &s.met.attack
	var req AttackRequest
	if err := decodeBody(r, &req); err != nil {
		ep.errs.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	n := s.world.Policy.N()
	kind, err := core.ParseAttackKind(req.Kind)
	if err != nil {
		ep.errs.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if req.Target < 0 || req.Target >= n || req.Attacker < 0 || req.Attacker >= n {
		ep.errs.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "target or attacker out of range"})
		return
	}
	if req.Target == req.Attacker {
		ep.errs.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "attacker must differ from target"})
		return
	}
	def, err := req.Defense.resolve(n)
	if err != nil {
		ep.errs.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	at := core.Attack{Target: req.Target, Attacker: req.Attacker, Kind: kind, SubPrefix: req.SubPrefix}
	resp := AttackResponse{
		Target:   req.Target,
		Attacker: req.Attacker,
		Kind:     kind.String(),
		Exact:    req.Exact,
		Estimate: s.est.estimate(at),
		Path:     "estimate",
	}
	s.met.estimates.Add(1)

	if !req.Exact {
		start := s.clock.Now()
		st := s.acquireState()
		resp.Epoch = st.epoch
		st.inflight.Done()
		ep.lat.observe(s.clock.Now().Sub(start).Nanoseconds())
		ep.served.Add(1)
		writeJSON(w, http.StatusOK, resp)
		return
	}

	wk, ok := s.admit()
	if !ok {
		ep.shed.Add(1)
		s.shedResponse(w)
		return
	}
	defer s.release(wk)
	st := s.acquireState()
	defer st.inflight.Done()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	start := s.clock.Now()
	resp.Epoch = st.epoch
	// One cell cannot repay a baseline build; a target that returns can.
	snap, use, err := s.snapshotFor(st, wk, req.Target, admitReturning)
	if err == nil {
		var o core.OutcomeView
		o, err = wk.solveCell(s, snap, at, def)
		if err == nil {
			rec := hijack.Measure(s.world.Graph, s.totalWeight, o)
			resp.Pollution = &rec.Pollution
			resp.WeightFrac = &rec.WeightFrac
			resp.Path, resp.Snapshot, resp.Examined = "full", use, new(int64)
			if d, ok := o.(*core.DeltaOutcome); ok {
				*resp.Examined = d.Examined()
				if d.UsedDelta() {
					resp.Path = "delta"
				}
			}
		}
	}
	if err != nil {
		ep.errs.Add(1)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	ep.lat.observe(s.clock.Now().Sub(start).Nanoseconds())
	ep.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// attackerPopulation resolves a request's attacker list (all ASes when
// empty), dropping the target exactly as the batch workload builder
// does.
func (s *Server) attackerPopulation(target int, attackers []int) ([]int, error) {
	n := s.world.Policy.N()
	if len(attackers) == 0 {
		attackers = hijack.AllNodes(n)
	}
	out := make([]int, 0, len(attackers))
	for _, a := range attackers {
		if a == target {
			continue
		}
		if a < 0 || a >= n {
			return nil, badRequest("attacker %d out of range (n=%d)", a, n)
		}
		out = append(out, a)
	}
	return out, nil
}

func (s *Server) vulnerabilityQuery(st *epochState, wk *worker, r *http.Request) (any, error) {
	var req VulnerabilityRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	n := s.world.Policy.N()
	kind, err := core.ParseAttackKind(req.Kind)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if kind == core.KindRouteLeak && req.SubPrefix {
		return nil, badRequest("a route leak re-announces the real prefix; sub-prefix route leaks are invalid")
	}
	if req.Target < 0 || req.Target >= n {
		return nil, badRequest("target %d out of range (n=%d)", req.Target, n)
	}
	def, err := req.Defense.resolve(n)
	if err != nil {
		return nil, err
	}
	attackers, err := s.attackerPopulation(req.Target, req.Attackers)
	if err != nil {
		return nil, err
	}
	snap, _, err := s.snapshotFor(st, wk, req.Target, admitNow)
	if err != nil {
		return nil, err
	}
	resp := &VulnerabilityResponse{
		Epoch:      st.epoch,
		Target:     req.Target,
		Kind:       kind.String(),
		Attackers:  attackers,
		Pollution:  make([]int, 0, len(attackers)),
		WeightFrac: make([]float64, 0, len(attackers)),
	}
	for _, a := range attackers {
		at := core.Attack{Target: req.Target, Attacker: a, Kind: kind, SubPrefix: req.SubPrefix}
		o, err := wk.solveCell(s, snap, at, def)
		if err != nil {
			return nil, err
		}
		rec := hijack.Measure(s.world.Graph, s.totalWeight, o)
		resp.Pollution = append(resp.Pollution, rec.Pollution)
		resp.WeightFrac = append(resp.WeightFrac, rec.WeightFrac)
	}
	return resp, nil
}

func (s *Server) deploymentQuery(st *epochState, wk *worker, r *http.Request) (any, error) {
	var req DeploymentRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	n := s.world.Policy.N()
	kind, err := core.ParseAttackKind(req.Kind)
	if err != nil {
		return nil, badRequest("%v", err)
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
	attackers, err := s.attackerPopulation(req.Target, req.Attackers)
	if err != nil {
		return nil, err
	}
	// One baseline serves the whole ladder: the snapshot is
	// defense-independent, so every rung's delta runs against it.
	snap, _, err := s.snapshotFor(st, wk, req.Target, admitNow)
	if err != nil {
		return nil, err
	}
	resp := &DeploymentResponse{
		Epoch:     st.epoch,
		Target:    req.Target,
		Kind:      kind.String(),
		Mechs:     mechs.String(),
		Attackers: attackers,
	}
	for _, spec := range req.Strategies {
		strat, err := spec.resolve(s.world.Graph, s.world.Class)
		if err != nil {
			return nil, err
		}
		def := strat.Defense(n, mechs)
		sr := StrategyResult{
			Name:       strat.Name,
			Deployed:   len(strat.Nodes),
			Pollution:  make([]int, 0, len(attackers)),
			WeightFrac: make([]float64, 0, len(attackers)),
		}
		for _, a := range attackers {
			at := core.Attack{Target: req.Target, Attacker: a, Kind: kind}
			o, err := wk.solveCell(s, snap, at, def)
			if err != nil {
				return nil, err
			}
			rec := hijack.Measure(s.world.Graph, s.totalWeight, o)
			sr.Pollution = append(sr.Pollution, rec.Pollution)
			sr.WeightFrac = append(sr.WeightFrac, rec.WeightFrac)
		}
		resp.Strategies = append(resp.Strategies, sr)
	}
	return resp, nil
}

func (s *Server) detectionQuery(st *epochState, wk *worker, r *http.Request) (any, error) {
	var req DetectionRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	n := s.world.Policy.N()
	kind, err := core.ParseAttackKind(req.Kind)
	if err != nil {
		return nil, badRequest("%v", err)
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
	// Reuse the batch reducers verbatim so histograms, bucket means and
	// miss lists assemble exactly as detectscan's do. Detection targets
	// scatter, so the snapshot cache is consulted read-only: a hit rides
	// the delta path, a miss answers with a full solve without evicting
	// the point-query entries.
	out, red := detect.Results(sets, attacks)
	for i, at := range attacks {
		snap, _, err := s.snapshotFor(st, wk, at.Target, admitNever)
		if err != nil {
			return nil, err
		}
		o, err := wk.solveCell(s, snap, at, def)
		if err != nil {
			return nil, err
		}
		red.Emit(i, detect.MeasureRecord(s.world.Policy, sets, sem, o))
	}
	red.Finish()
	resp := &DetectionResponse{Epoch: st.epoch, Kind: kind.String()}
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
