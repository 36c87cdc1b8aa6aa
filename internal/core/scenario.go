// The scenario layer: attack kinds beyond the paper's type-0 origin
// hijack, and defenses beyond the single origin-filter set. An Attack's
// Kind selects how the bogus announcement is constructed (forged origins
// prepend the victim, route leaks re-announce a real route); a Defense
// carries which validation mechanisms are deployed where. Both resolve —
// once per solve — into a static per-node rejection predicate plus an
// attacker seed distance, which is the entire interface the three-stage
// Solver and the generation-stepped Engine consume. Because the two
// engines share the exact same resolved scenario, their bit-identical
// equivalence (property-tested) extends to every kind × defense
// combination by construction.
package core

import (
	"fmt"
	"strings"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// AttackKind selects the attack scenario an Attack describes. The zero
// value is the paper's original exact/sub-prefix type-0 origin hijack, so
// existing Attack literals keep their meaning.
type AttackKind int8

const (
	// KindOrigin is the paper's type-0 hijack: the attacker originates the
	// victim's address space itself. Origin validation (the ROV blocked
	// set) catches it; path validation has nothing to check — the forged
	// announcement contains no forged adjacency.
	KindOrigin AttackKind = 0
	// KindForgedOrigin is a type-1 forged-origin hijack: the attacker
	// prepends the victim, announcing the path {attacker, victim}. The
	// origin looks legitimate, so ROV is blind to it; ASPA-style provider
	// authorization catches it unless the attacker really is one of the
	// victim's providers (then the forged adjacency is plausible and no
	// path validator can tell).
	KindForgedOrigin AttackKind = 1
	// KindRouteLeak is a valley-violating leak: the attacker re-announces
	// its legitimate route to the victim to all neighbors, provider and
	// peer included. The path is real and the origin is the victim, so ROV
	// is blind; ASPA validators see the valley, and Peerlock-deploying
	// tier-1s refuse the leaked route.
	KindRouteLeak AttackKind = 2
)

// String returns the CLI name of the kind.
func (k AttackKind) String() string {
	switch k {
	case KindOrigin:
		return "origin"
	case KindForgedOrigin:
		return "forged-origin"
	case KindRouteLeak:
		return "route-leak"
	default:
		return fmt.Sprintf("AttackKind(%d)", int8(k))
	}
}

// ParseAttackKind parses a CLI scenario name; "" means origin.
func ParseAttackKind(s string) (AttackKind, error) {
	switch s {
	case "", "origin":
		return KindOrigin, nil
	case "forged-origin", "forged":
		return KindForgedOrigin, nil
	case "route-leak", "leak":
		return KindRouteLeak, nil
	default:
		return 0, fmt.Errorf("unknown attack scenario %q (want origin, forged-origin or route-leak)", s)
	}
}

// Kinds lists every attack kind in canonical order.
func Kinds() []AttackKind { return []AttackKind{KindOrigin, KindForgedOrigin, KindRouteLeak} }

// Defense describes the deployed prevention mechanisms a solve runs
// under. The zero value means nothing is deployed. Each mechanism only
// ever filters bogus (attacker-origin) routes; legitimate routing is
// untouched, which keeps the model convergence-safe.
type Defense struct {
	// Blocked is the ROV deployment: nodes that validate route origins
	// and drop announcements whose origin is forged (KindOrigin only —
	// the other kinds present a legitimate-looking origin).
	Blocked *asn.IndexSet
	// ASPA is the path-validation deployment: nodes that check provider
	// authorization along the path. They drop forged-origin announcements
	// whose forged adjacency contradicts the victim's registered
	// providers, and leaked routes (the valley is visible in the path).
	// All ASes are assumed to have registered truthful provider sets;
	// membership here is who *validates*.
	ASPA *asn.IndexSet
	// Peerlock enables the tier-1 clique's mutual route-leak filters:
	// with it on, every tier-1 drops leaked routes. It is modeled as the
	// club acting together, hence a single switch rather than a set.
	Peerlock bool
}

// RovOnly is the paper's original defense shape: an origin-validation
// deployment set and nothing else.
func RovOnly(blocked *asn.IndexSet) Defense { return Defense{Blocked: blocked} }

// IsZero reports whether no mechanism is deployed.
func (d Defense) IsZero() bool { return d.Blocked == nil && d.ASPA == nil && !d.Peerlock }

// DefenseMech is a bitmask naming defense mechanisms, the CLI currency
// for "deploy mechanism X at deployment set Y".
type DefenseMech uint8

const (
	// MechROV deploys route-origin validation at the set.
	MechROV DefenseMech = 1 << iota
	// MechASPA deploys ASPA path validation at the set.
	MechASPA
	// MechPeerlock turns on the tier-1 Peerlock club.
	MechPeerlock
)

// ParseDefenseMech parses a '+'-joined mechanism list, e.g. "rov",
// "aspa+peerlock". "" and "none" mean no mechanism.
func ParseDefenseMech(s string) (DefenseMech, error) {
	if s == "" || s == "none" {
		return 0, nil
	}
	var m DefenseMech
	for _, part := range strings.Split(s, "+") {
		switch part {
		case "rov":
			m |= MechROV
		case "aspa":
			m |= MechASPA
		case "peerlock":
			m |= MechPeerlock
		default:
			return 0, fmt.Errorf("unknown defense mechanism %q (want rov, aspa, peerlock or none)", part)
		}
	}
	return m, nil
}

// String renders the mask in the CLI "rov+aspa+peerlock" form.
func (m DefenseMech) String() string {
	if m == 0 {
		return "none"
	}
	var parts []string
	if m&MechROV != 0 {
		parts = append(parts, "rov")
	}
	if m&MechASPA != 0 {
		parts = append(parts, "aspa")
	}
	if m&MechPeerlock != 0 {
		parts = append(parts, "peerlock")
	}
	return strings.Join(parts, "+")
}

// Deploy materializes the mechanisms at a deployment set: ROV and ASPA
// validate at the set's members, Peerlock (a club property, not a
// per-node one) switches on when selected.
func (m DefenseMech) Deploy(set *asn.IndexSet) Defense {
	var d Defense
	if m&MechROV != 0 {
		d.Blocked = set
	}
	if m&MechASPA != 0 {
		d.ASPA = set
	}
	if m&MechPeerlock != 0 {
		d.Peerlock = true
	}
	return d
}

// scenario is the resolved static semantics of one (Attack, Defense)
// pair: which deployments actually filter this attack's announcement,
// and how deep the attacker's advertised path starts. Both engines
// evaluate exactly this value, so their outcomes agree by construction.
type scenario struct {
	blocked  *asn.IndexSet // ROV validators that drop the announcement
	aspa     *asn.IndexSet // ASPA validators that drop the announcement
	peerlock bool          // tier-1s drop the announcement (leaked route)
	// seedDist is the attacker's advertised path length at origination: 0
	// for an origin hijack, 1 for a forged-origin prepend, the leaked
	// route's real length for a leak.
	seedDist int16
	// seedAttacker is false when the attack is a no-op (a route leak by
	// an attacker with no route to leak) and only the target announces.
	seedAttacker bool
}

// rejects reports whether node i drops routes leading to org under the
// resolved scenario. This is the shared validation kernel of both the
// solver stages and the engine's pre-RIB import filter.
//
//bgplint:hotpath runs once per (node, candidate route) edge relaxation
func (sc *scenario) rejects(pol *Policy, i int32, org int8) bool {
	if org != OriginAttacker {
		return false
	}
	if sc.blocked != nil && sc.blocked.Contains(int(i)) {
		return true
	}
	if sc.aspa != nil && sc.aspa.Contains(int(i)) {
		return true
	}
	return sc.peerlock && pol.tier1[i]
}

// unfiltered reports whether no deployment filters this attack's
// announcement anywhere: rejects is false at every node. That is the case
// with no defense, under ROV against a forged origin or a leak (the origin
// looks legitimate), and under ASPA against a forged origin whose attacker
// really is one of the victim's providers.
func (sc *scenario) unfiltered() bool {
	return sc.blocked == nil && sc.aspa == nil && !sc.peerlock
}

// FiltersImport reports whether node would drop the attack's bogus
// announcement under the deployed defense — the same static import
// predicate both engines apply during a solve, exposed for post-hoc
// analyses (e.g. miss classification) that explain a converged outcome.
// The attacker's seed distance is irrelevant to the predicate, so no
// baseline solve is needed.
func FiltersImport(pol *Policy, at Attack, def Defense, node int) bool {
	sc, err := buildScenario(pol, at, def, func() (int16, bool) { return 0, true })
	if err != nil {
		return false
	}
	return sc.rejects(pol, int32(node), OriginAttacker)
}

// aspaAuthorizedProvider walks the victim's registered provider set — the
// ASPA object every AS is assumed to publish truthfully — and reports
// whether provider appears in it. A forged-origin path whose forged
// adjacency matches a registered provider is plausible to every
// validator.
//
//bgplint:hotpath runs once per solve on the victim's provider list
func aspaAuthorizedProvider(pol *Policy, provider, of int) bool {
	for _, p := range pol.Providers(of) {
		if int(p) == provider {
			return true
		}
	}
	return false
}

// buildScenario resolves (attack, defense) into the static scenario both
// engines run. baseline computes the attacker's defense-free converged
// route distance to the target (and whether one exists) — only consulted
// for route leaks, which re-announce that route.
func buildScenario(pol *Policy, at Attack, def Defense, baseline func() (int16, bool)) (scenario, error) {
	switch at.Kind {
	case KindOrigin:
		return scenario{blocked: def.Blocked, seedDist: 0, seedAttacker: true}, nil
	case KindForgedOrigin:
		sc := scenario{seedDist: 1, seedAttacker: true}
		if !aspaAuthorizedProvider(pol, at.Attacker, at.Target) {
			sc.aspa = def.ASPA
		}
		return sc, nil
	case KindRouteLeak:
		if at.SubPrefix {
			return scenario{}, fmt.Errorf("scenario: a route leak re-announces the real prefix; sub-prefix route leaks are not a thing")
		}
		sc := scenario{aspa: def.ASPA, peerlock: def.Peerlock}
		if d, ok := baseline(); ok {
			sc.seedDist = d
			sc.seedAttacker = true
		}
		return sc, nil
	default:
		return scenario{}, fmt.Errorf("scenario: unknown attack kind %d", int8(at.Kind))
	}
}
