// Package pgbgp implements Pretty Good BGP (Karlin, Forrest & Rexford,
// ICNP 2006), the non-cryptographic prevention technique the paper uses as
// its comparison point: routers remember which origin ASes historically
// announced each prefix and treat announcements from novel origins as
// suspicious for a quarantine period, preferring any historically normal
// route while the suspicion lasts. Unlike origin-validation filters, a
// PGBGP router falls back to the suspicious route when nothing else is
// available — it trades a little protection for zero risk of
// disconnection.
//
// The paper cites PGBGP's claim that "97 % of ASes can be protected from
// malicious prefix routes when PGBGP is deployed only on the 62 core
// ASes", and notes that "while this result is possible, the general case
// requires wider security deployment"; Evaluate reproduces exactly that
// comparison against drop-style filtering.
package pgbgp

import (
	"fmt"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/stats"
	"github.com/bgpsim/bgpsim/internal/sweep"
)

// Day is a logical simulation day; PGBGP parameters are expressed in days.
type Day int

// History is one router's prefix-origin memory.
type History struct {
	// WindowDays is how long an origin stays "normal" after being seen
	// (PGBGP's history window h; the paper's implementation used 10 days).
	WindowDays int
	// SuspiciousDays is the quarantine applied to a novel origin
	// (PGBGP's s; 24 hours in the original).
	SuspiciousDays int

	seen map[histKey]Day // last day each (prefix, origin) was observed
}

type histKey struct {
	p      prefix.Prefix
	origin asn.ASN
}

// NewHistory returns an empty history with the given parameters (zero
// values default to the original paper's 10-day window and 1-day
// quarantine).
func NewHistory(windowDays, suspiciousDays int) *History {
	if windowDays == 0 {
		windowDays = 10
	}
	if suspiciousDays == 0 {
		suspiciousDays = 1
	}
	return &History{
		WindowDays:     windowDays,
		SuspiciousDays: suspiciousDays,
		seen:           make(map[histKey]Day),
	}
}

// Observe records that origin announced p on the given day.
func (h *History) Observe(p prefix.Prefix, origin asn.ASN, day Day) {
	key := histKey{p, origin}
	if prev, ok := h.seen[key]; !ok || day > prev {
		h.seen[key] = day
	}
}

// Suspicious reports whether an announcement of p by origin on `day`
// should be quarantined: the origin has not been seen for this prefix
// within the history window. A suspicious origin becomes normal once it
// survives the quarantine (Observe is called as the announcement persists).
func (h *History) Suspicious(p prefix.Prefix, origin asn.ASN, day Day) bool {
	last, ok := h.seen[histKey{p, origin}]
	if !ok {
		return true
	}
	if day-last > Day(h.WindowDays) {
		return true // stale history: treat as novel again
	}
	// Seen recently. If it first appeared within the quarantine period it
	// is still suspicious; we approximate first-seen by last-seen for the
	// static hijack scenarios (announcements persist, so last≈first+k).
	return false
}

// SeedFromBaseline records the pre-attack steady state into the history:
// each prefix observed with its legitimate origin on the given day. In
// deployment this is what a PGBGP router accumulates by watching BGP for
// the history window before enforcing.
func (h *History) SeedFromBaseline(owners map[prefix.Prefix]asn.ASN, day Day) {
	for p, origin := range owners { //bgplint:ignore maporder per-(prefix,origin) history updates commute; each key is visited once
		h.Observe(p, origin, day)
	}
}

// EvaluateWithHistory runs the sweep with the depref set derived from the
// history: the deployed routers quarantine the hijack announcement only
// when its (prefix, origin) is novel to them. A hijacker that already
// legitimately originated the prefix within the window (e.g. the previous
// owner after a transfer) sails through — PGBGP's inherent blind spot.
func EvaluateWithHistory(pol *core.Policy, target int, attackers, deployed []int, h *History, hijacked prefix.Prefix, day Day) (*Result, error) {
	g := pol.Graph()
	return evaluate(pol, target, attackers, deployed, func(a int) bool { return h.Suspicious(hijacked, g.ASN(a), day) })
}

// Result mirrors deploy.Evaluation for depref semantics.
type Result struct {
	Deployed  []int
	Attackers []int
	// Pollution per attack, parallel to Attackers.
	Pollution []int
}

// Summary returns distribution statistics of per-attack pollution.
func (r *Result) Summary() stats.Summary { return stats.Summarize(r.Pollution) }

// Evaluate sweeps the target with every attacker, with the deployed nodes
// running PGBGP depref (history knows only the legitimate origin, so the
// hijack's origin is quarantined): EvaluateWithHistory with every origin
// suspicious. It uses the message engine, which is the reference
// implementation of the two-plane preference.
func Evaluate(pol *core.Policy, target int, attackers, deployed []int) (*Result, error) {
	return evaluate(pol, target, attackers, deployed, func(int) bool { return true })
}

// evaluate runs every attack but the target's own on the message engine,
// one Engine per worker, with the deployed nodes depreffing the attacks
// whose origin is suspicious. Results are in attacker order at any worker
// count.
func evaluate(pol *core.Policy, target int, attackers, deployed []int, suspicious func(attacker int) bool) (*Result, error) {
	n := pol.N()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("pgbgp: target %d out of range", target)
	}
	depref := asn.NewIndexSet(n)
	for _, d := range deployed {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("pgbgp: deployed node %d out of range", d)
		}
		depref.Add(d)
	}
	res := &Result{Deployed: deployed}
	for _, a := range attackers {
		if a != target {
			res.Attackers = append(res.Attackers, a)
		}
	}
	res.Pollution = make([]int, len(res.Attackers))
	err := sweep.MapLocal(len(res.Attackers), sweep.Options{}, func() *core.Engine { return core.NewEngine(pol) },
		func(eng *core.Engine, i int) error {
			a := res.Attackers[i]
			eng.Depref = nil // historically normal origin: no quarantine
			if suspicious(a) {
				eng.Depref = depref
			}
			o, _, err := eng.Run(core.Attack{Target: target, Attacker: a}, nil, false)
			if err != nil {
				return fmt.Errorf("pgbgp: attack from %d: %w", a, err)
			}
			res.Pollution[i] = o.PollutedCount()
			return nil
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// CompareWithDrop evaluates the same deployment under PGBGP depref and
// under drop-style origin-validation filtering, returning (depref, drop)
// mean pollution — the quantitative form of the paper's PGBGP
// corroboration.
func CompareWithDrop(pol *core.Policy, target int, attackers, deployed []int) (deprefMean, dropMean float64, err error) {
	pg, err := Evaluate(pol, target, attackers, deployed)
	if err != nil {
		return 0, 0, err
	}
	blocked := asn.NewIndexSet(pol.N())
	for _, d := range deployed {
		blocked.Add(d)
	}
	drop, err := hijack.Sweep(pol, hijack.SweepConfig{Target: target, Attackers: attackers, Blocked: blocked}, sweep.Options{})
	if err != nil {
		return 0, 0, err
	}
	return pg.Summary().Mean, drop.Summary().Mean, nil
}
