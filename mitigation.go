package bgpsim

import (
	"github.com/bgpsim/bgpsim/internal/mitigate"
)

// Reactive-mitigation re-exports (the paper's third defense class).
type (
	// MitigationResult reports a sub-prefix counter-announcement outcome.
	MitigationResult = mitigate.Result
	// MitigationStudy contrasts permissive vs conservative ROA MaxLength.
	MitigationStudy = mitigate.StudyResult
)

// Mitigate executes the classic reactive mitigation: the victim announces
// the two more-specific halves of its hijacked prefix, winning traffic
// back by longest-prefix match. Filters (optional) consult the
// simulator's ROA store — if the victim's published ROA caps MaxLength at
// the covering prefix length, the counter-announcement validates Invalid
// and filtering ASes drop the cure (the MaxLength trap).
func (s *Simulator) Mitigate(victim, attacker ASN, victimPrefix Prefix, filters []ASN) (*MitigationResult, error) {
	v, err := s.nodeOf(victim)
	if err != nil {
		return nil, err
	}
	a, err := s.nodeOf(attacker)
	if err != nil {
		return nil, err
	}
	plan := mitigate.Plan{Victim: v, Attacker: a, VictimPrefix: victimPrefix}
	if len(filters) > 0 {
		plan.Validator = &s.roas
		if plan.Filtering, err = s.nodesOf(filters); err != nil {
			return nil, err
		}
	}
	return mitigate.Execute(s.world.Policy, plan)
}

// RunMitigationStudy contrasts the MaxLength policies for a victim/attacker
// pair under the given filter deployment.
func (s *Simulator) RunMitigationStudy(victim, attacker ASN, victimPrefix Prefix, filters []ASN) (*MitigationStudy, error) {
	v, err := s.nodeOf(victim)
	if err != nil {
		return nil, err
	}
	a, err := s.nodeOf(attacker)
	if err != nil {
		return nil, err
	}
	nodes, err := s.nodesOf(filters)
	if err != nil {
		return nil, err
	}
	return mitigate.Study(s.world.Policy, v, a, victimPrefix, nodes)
}
