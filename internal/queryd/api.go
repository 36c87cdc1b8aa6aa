package queryd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// apiError carries an HTTP status through the handler plumbing.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// DefenseSpec is the wire form of a deployed defense: node indices per
// mechanism. Indices are the contracted topology's node ids — the same
// ids every batch tool reads and prints.
type DefenseSpec struct {
	ROV      []int `json:"rov,omitempty"`
	ASPA     []int `json:"aspa,omitempty"`
	Peerlock bool  `json:"peerlock,omitempty"`
}

func (d DefenseSpec) resolve(n int) (core.Defense, error) {
	var def core.Defense
	set := func(name string, nodes []int) (*asn.IndexSet, error) {
		if len(nodes) == 0 {
			return nil, nil
		}
		s := asn.NewIndexSet(n)
		for _, i := range nodes {
			if i < 0 || i >= n {
				return nil, badRequest("defense.%s node %d out of range (n=%d)", name, i, n)
			}
			s.Add(i)
		}
		return s, nil
	}
	var err error
	if def.Blocked, err = set("rov", d.ROV); err != nil {
		return def, err
	}
	if def.ASPA, err = set("aspa", d.ASPA); err != nil {
		return def, err
	}
	def.Peerlock = d.Peerlock
	return def, nil
}

// AttackRequest asks one what-if question: if attacker hijacks target
// under this defense, who is polluted? exact=false stops at the
// estimator tier; exact=true escalates to the solver.
type AttackRequest struct {
	Target    int         `json:"target"`
	Attacker  int         `json:"attacker"`
	Kind      string      `json:"kind,omitempty"`
	SubPrefix bool        `json:"sub_prefix,omitempty"`
	Defense   DefenseSpec `json:"defense,omitempty"`
	Exact     bool        `json:"exact,omitempty"`
}

// AttackResponse answers it. Estimate is always present; Pollution and
// WeightFrac only on the exact tier. Path records which tier produced
// the answer: "estimate", or "full" (one solve).
type AttackResponse struct {
	Epoch      int64    `json:"epoch"`
	Target     int      `json:"target"`
	Attacker   int      `json:"attacker"`
	Kind       string   `json:"kind"`
	Exact      bool     `json:"exact"`
	Path       string   `json:"path"`
	Estimate   Estimate `json:"estimate"`
	Pollution  *int     `json:"pollution,omitempty"`
	WeightFrac *float64 `json:"weight_frac,omitempty"`
}

// VulnerabilityRequest sweeps one target from a set of attackers (all
// ASes when empty) — the query form of vulnscan's per-target sweep.
type VulnerabilityRequest struct {
	Target    int         `json:"target"`
	Attackers []int       `json:"attackers,omitempty"`
	Kind      string      `json:"kind,omitempty"`
	SubPrefix bool        `json:"sub_prefix,omitempty"`
	Defense   DefenseSpec `json:"defense,omitempty"`
}

// VulnerabilityResponse carries the per-attack measurements in attacker
// order — field-for-field the batch sweep's result arrays.
type VulnerabilityResponse struct {
	Epoch      int64     `json:"epoch"`
	Target     int       `json:"target"`
	Kind       string    `json:"kind"`
	Attackers  []int     `json:"attackers"`
	Pollution  []int     `json:"pollution"`
	WeightFrac []float64 `json:"weight_frac"`
}

// StrategySpec names one deployment rung: exactly one of baseline,
// tier1, top_degree or an explicit node list.
type StrategySpec struct {
	Name      string `json:"name,omitempty"`
	Baseline  bool   `json:"baseline,omitempty"`
	Tier1     bool   `json:"tier1,omitempty"`
	TopDegree int    `json:"top_degree,omitempty"`
	Nodes     []int  `json:"nodes,omitempty"`
}

func (sp StrategySpec) resolve(g *topology.Graph, c *topology.Classification) (deploy.Strategy, error) {
	forms := 0
	if sp.Baseline {
		forms++
	}
	if sp.Tier1 {
		forms++
	}
	if sp.TopDegree > 0 {
		forms++
	}
	if len(sp.Nodes) > 0 {
		forms++
	}
	if forms != 1 {
		return deploy.Strategy{}, badRequest("strategy %q: want exactly one of baseline, tier1, top_degree, nodes", sp.Name)
	}
	var st deploy.Strategy
	switch {
	case sp.Baseline:
		st = deploy.None()
	case sp.Tier1:
		st = deploy.Tier1(c)
	case sp.TopDegree > 0:
		st = deploy.TopDegree(g, sp.TopDegree)
	default:
		for _, i := range sp.Nodes {
			if i < 0 || i >= g.N() {
				return deploy.Strategy{}, badRequest("strategy %q: node %d out of range (n=%d)", sp.Name, i, g.N())
			}
		}
		st = deploy.Custom("custom", sp.Nodes)
	}
	if sp.Name != "" {
		st.Name = sp.Name
	}
	return st, nil
}

// DeploymentRequest evaluates a ladder of deployment strategies against
// one target — the query form of deployscan. Mechs is a '+'-joined
// mechanism list ("rov" when empty, matching the batch default).
type DeploymentRequest struct {
	Target     int            `json:"target"`
	Attackers  []int          `json:"attackers,omitempty"`
	Kind       string         `json:"kind,omitempty"`
	Mechs      string         `json:"mechs,omitempty"`
	Strategies []StrategySpec `json:"strategies"`
}

// StrategyResult is one rung's sweep under its deployment.
type StrategyResult struct {
	Name       string    `json:"name"`
	Deployed   int       `json:"deployed"`
	Pollution  []int     `json:"pollution"`
	WeightFrac []float64 `json:"weight_frac"`
}

// DeploymentResponse carries one StrategyResult per requested rung, in
// request order, all over the same attacker population.
type DeploymentResponse struct {
	Epoch      int64            `json:"epoch"`
	Target     int              `json:"target"`
	Kind       string           `json:"kind"`
	Mechs      string           `json:"mechs"`
	Attackers  []int            `json:"attackers"`
	Strategies []StrategyResult `json:"strategies"`
}

// ProbeSetSpec names one detection vantage configuration.
type ProbeSetSpec struct {
	Name   string `json:"name"`
	Probes []int  `json:"probes"`
}

// DetectionAttack is one workload cell for the detection endpoint.
type DetectionAttack struct {
	Target   int `json:"target"`
	Attacker int `json:"attacker"`
}

// DetectionRequest scores probe configurations against an attack
// workload — the query form of detectscan. Semantics is "selected"
// (default, the paper's feed model) or "any-received".
type DetectionRequest struct {
	Probes    []ProbeSetSpec    `json:"probes"`
	Attacks   []DetectionAttack `json:"attacks"`
	Kind      string            `json:"kind,omitempty"`
	Semantics string            `json:"semantics,omitempty"`
	Defense   DefenseSpec       `json:"defense,omitempty"`
}

// DetectionMiss is one attack no probe of a set saw.
type DetectionMiss struct {
	Attacker  int `json:"attacker"`
	Target    int `json:"target"`
	Pollution int `json:"pollution"`
}

// DetectionResult mirrors detect.Result for one probe set.
type DetectionResult struct {
	Name                    string          `json:"name"`
	TriggerHist             []int           `json:"trigger_hist"`
	MeanPollutionByTriggers []float64       `json:"mean_pollution_by_triggers"`
	Misses                  []DetectionMiss `json:"misses"`
	TotalAttacks            int             `json:"total_attacks"`
	MissRate                float64         `json:"miss_rate"`
}

// DetectionResponse carries one DetectionResult per probe set, in
// request order.
type DetectionResponse struct {
	Epoch   int64             `json:"epoch"`
	Kind    string            `json:"kind"`
	Results []DetectionResult `json:"results"`
}

func parseSemantics(s string) (detect.Semantics, error) {
	switch s {
	case "", "selected":
		return detect.SelectedRoute, nil
	case "any-received", "any":
		return detect.AnyReceived, nil
	default:
		return 0, badRequest("unknown semantics %q (want selected or any-received)", s)
	}
}

// decodeBody strictly decodes a JSON request body into dst. A body the
// handler capped with http.MaxBytesReader and that runs past the cap is
// refused with 413.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// writeJSON renders one response. Encoding errors after the header is
// committed can only be logged by the caller's http.Server.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	//bgplint:ignore errdrop the status line is already on the wire; a failed body write has no recovery path
	_ = enc.Encode(body)
}
