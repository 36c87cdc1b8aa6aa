// Package mitigate implements the paper's third defense class — reactive
// mitigation ("reactive mitigation systems minimize the effects of an
// attack once it has been detected. An example is route purge/promote") —
// as the classic sub-prefix counter-announcement: once a hijack is
// detected, the victim announces more-specific halves of its prefix,
// which win longest-prefix-match forwarding back from the attacker
// everywhere they propagate.
//
// The package also models the operational trap that couples mitigation to
// the RPKI substrate: if the victim's ROA was published with MaxLength
// equal to the covering prefix length (the conservative practice), its own
// /17 counter-announcements validate as Invalid, and every AS performing
// route-origin validation drops the cure along with the disease.
package mitigate

import (
	"fmt"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
)

// Plan describes one sub-prefix mitigation attempt.
type Plan struct {
	// Victim is the hijacked AS (node index).
	Victim int
	// Attacker is the hijacking AS.
	Attacker int
	// VictimPrefix is the hijacked covering prefix.
	VictimPrefix prefix.Prefix
	// Validator is the route-origin oracle filters consult (nil = no
	// validation anywhere).
	Validator rpki.OriginValidator
	// Filtering lists ASes performing route-origin validation.
	Filtering []int
}

// Result reports the outcome of the counter-announcement.
type Result struct {
	// Halves are the two announced more-specifics.
	Halves [2]prefix.Prefix
	// MitigationValid reports whether the victim's more-specifics
	// validate against the published origin data (false = the ROA
	// MaxLength trap: filters drop the cure).
	MitigationValid bool
	// RecoveredASes counts ASes whose traffic the counter-announcement
	// wins back (they select the victim's more-specific).
	RecoveredASes int
	// StrandedASes counts ASes left without the more-specific route
	// (behind filters that drop an Invalid mitigation, or unreachable).
	StrandedASes int
}

// Halves splits p into its two more-specific halves.
func Halves(p prefix.Prefix) ([2]prefix.Prefix, error) {
	if p.Len >= 32 {
		return [2]prefix.Prefix{}, fmt.Errorf("mitigate: cannot split a /%d", p.Len)
	}
	lo := prefix.New(p.Addr, p.Len+1)
	hi := prefix.New(p.Addr|1<<(31-p.Len), p.Len+1)
	return [2]prefix.Prefix{lo, hi}, nil
}

// Execute runs the counter-announcement on the converged internet: the
// victim originates both halves; in each half's routing plane the victim
// is the only origin, so every AS that accepts the announcement recovers.
// Filtering ASes consult the validator: when the more-specific validates
// as Invalid (the MaxLength trap) they drop it — and ASes whose only
// paths cross droppers stay stranded on the attacker.
func Execute(pol *core.Policy, plan Plan) (*Result, error) {
	n := pol.N()
	if plan.Victim < 0 || plan.Victim >= n || plan.Attacker < 0 || plan.Attacker >= n {
		return nil, fmt.Errorf("mitigate: node index out of range")
	}
	if plan.Victim == plan.Attacker {
		return nil, fmt.Errorf("mitigate: victim and attacker are the same node")
	}
	halves, err := Halves(plan.VictimPrefix)
	if err != nil {
		return nil, err
	}
	res := &Result{Halves: halves, MitigationValid: true}

	// Validate the mitigation announcement itself.
	var blocked *asn.IndexSet
	if plan.Validator != nil && len(plan.Filtering) > 0 {
		victimASN := pol.Graph().ASN(plan.Victim)
		invalid := false
		for _, h := range halves {
			if plan.Validator.Validate(h, victimASN) == rpki.Invalid {
				invalid = true
			}
		}
		if invalid {
			res.MitigationValid = false
			blocked = asn.NewIndexSet(n)
			for _, f := range plan.Filtering {
				if f < 0 || f >= n {
					return nil, fmt.Errorf("mitigate: filtering node %d out of range", f)
				}
				blocked.Add(f)
			}
		}
	}

	// The more-specific plane: only the victim announces. Reuse the
	// sub-prefix machinery with the victim in the announcing role; the
	// blocked set (if the mitigation is Invalid) drops it at validators.
	solver := pol.AcquireSolver()
	defer pol.ReleaseSolver(solver)
	o, err := solver.Solve(core.Attack{
		Target:    plan.Attacker, // unused in a sub-prefix plane
		Attacker:  plan.Victim,   // the announcing origin
		SubPrefix: true,
	}, blocked)
	if err != nil {
		return nil, fmt.Errorf("mitigate: %w", err)
	}
	// The victim is the plane's announcing origin, so the ASes routing to
	// it are the ones the solver counts as polluted.
	res.RecoveredASes = o.PollutedCount()
	res.StrandedASes = n - 1 - res.RecoveredASes
	return res, nil
}

// StudyResult contrasts mitigation with a permissive ROA (MaxLength
// covers the halves) against the conservative-MaxLength trap.
type StudyResult struct {
	Permissive   *Result
	Conservative *Result
	// FilteringASes is the validator deployment size used.
	FilteringASes int
}

// Study runs both variants with the same filter deployment: a ROA with
// MaxLength = len+1 (mitigation validates) versus MaxLength = len (the
// halves validate Invalid and get dropped by every filtering AS).
func Study(pol *core.Policy, victim, attacker int, victimPrefix prefix.Prefix, filtering []int) (*StudyResult, error) {
	victimASN := pol.Graph().ASN(victim)

	var permissive rpki.Store
	if err := permissive.Add(rpki.ROA{Prefix: victimPrefix, MaxLength: victimPrefix.Len + 1, Origin: victimASN}); err != nil {
		return nil, err
	}
	var conservative rpki.Store
	if err := conservative.Add(rpki.ROA{Prefix: victimPrefix, MaxLength: victimPrefix.Len, Origin: victimASN}); err != nil {
		return nil, err
	}
	base := Plan{Victim: victim, Attacker: attacker, VictimPrefix: victimPrefix, Filtering: filtering}

	planP := base
	planP.Validator = &permissive
	resP, err := Execute(pol, planP)
	if err != nil {
		return nil, err
	}
	planC := base
	planC.Validator = &conservative
	resC, err := Execute(pol, planC)
	if err != nil {
		return nil, err
	}
	return &StudyResult{Permissive: resP, Conservative: resC, FilteringASes: len(filtering)}, nil
}
