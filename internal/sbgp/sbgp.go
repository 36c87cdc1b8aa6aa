// Package sbgp evaluates S*BGP-style path security under partial
// deployment — the model of Lychev, Goldberg & Schapira ("BGP Security in
// Partial Deployment: Is the Juice Worth the Squeeze?", SIGCOMM 2013),
// whose section 4 the reproduced paper corroborates. A route is secure
// when the legitimate origin and every subsequent hop deploy S*BGP and
// sign the announcement; deployed ASes rank security first, second or
// third in their route selection, and the attacker can never forge a
// secure route for the victim's prefix.
package sbgp

import (
	"fmt"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/stats"
	"github.com/bgpsim/bgpsim/internal/sweep"
)

// Result is one (mode, deployment) sweep outcome.
type Result struct {
	Mode      core.SecureMode
	Deployed  []int
	Attackers []int
	Pollution []int
	// SecureTarget reports whether the victim itself deployed (without
	// it, no secure route to the victim's prefix can exist at all).
	SecureTarget bool
}

// Summary returns the pollution distribution statistics.
func (r *Result) Summary() stats.Summary { return stats.Summarize(r.Pollution) }

// ModeName returns a human-readable mode label.
func ModeName(m core.SecureMode) string {
	switch m {
	case core.SecurityFirst:
		return "security 1st"
	case core.SecuritySecond:
		return "security 2nd"
	case core.SecurityThird:
		return "security 3rd"
	default:
		return "security off"
	}
}

// Evaluate sweeps the target with every attacker under S*BGP partial
// deployment. The victim must be included in `deployed` for secure routes
// to exist; Evaluate adds it automatically (an operator evaluating S*BGP
// for their own protection deploys it first). It runs at GOMAXPROCS
// workers.
func Evaluate(pol *core.Policy, target int, attackers, deployed []int, mode core.SecureMode) (*Result, error) {
	return evaluate(pol, target, attackers, deployed, mode, 0)
}

// evaluate is Evaluate at a worker count (0 = GOMAXPROCS). With security
// off the deployment changes nothing, so that mode is the staged solver's
// plain sweep. The secure ranks exist only in the message engine: their
// attacks run with one Engine per worker, each writing its own slot, so
// the result is the same at any worker count.
func evaluate(pol *core.Policy, target int, attackers, deployed []int, mode core.SecureMode, workers int) (*Result, error) {
	n := pol.N()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("sbgp: target %d out of range", target)
	}
	set := asn.NewIndexSet(n)
	for _, d := range deployed {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("sbgp: deployed node %d out of range", d)
		}
		set.Add(d)
	}
	set.Add(target)
	res := &Result{Mode: mode, Deployed: deployed, SecureTarget: true}
	if mode == core.SecureOff {
		off, err := hijack.Sweep(pol, hijack.SweepConfig{Target: target, Attackers: attackers}, sweep.Options{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("sbgp: %w", err)
		}
		res.Attackers, res.Pollution = off.Attackers, off.Pollution
		return res, nil
	}
	for _, a := range attackers {
		if a != target {
			res.Attackers = append(res.Attackers, a)
		}
	}
	res.Pollution = make([]int, len(res.Attackers))
	err := sweep.MapLocal(len(res.Attackers), sweep.Options{Workers: workers},
		func() *core.Engine {
			eng := core.NewEngine(pol)
			eng.SecureDeployed, eng.SecureMode = set, mode
			return eng
		},
		func(eng *core.Engine, i int) error {
			a := res.Attackers[i]
			o, _, err := eng.Run(core.Attack{Target: target, Attacker: a}, nil, false)
			if err != nil {
				return fmt.Errorf("sbgp: attack from %d: %w", a, err)
			}
			res.Pollution[i] = o.PollutedCount()
			return nil
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// CompareModes runs the same deployment under all three security ranks
// plus the undefended baseline, returning mean pollution per mode — the
// juice-worth-the-squeeze comparison. workers bounds parallelism (0 =
// GOMAXPROCS); the means are the same at any count.
func CompareModes(pol *core.Policy, target int, attackers, deployed []int, workers int) (map[core.SecureMode]float64, error) {
	out := make(map[core.SecureMode]float64, 4)
	for _, mode := range []core.SecureMode{core.SecureOff, core.SecurityFirst, core.SecuritySecond, core.SecurityThird} {
		res, err := evaluate(pol, target, attackers, deployed, mode, workers)
		if err != nil {
			return nil, err
		}
		out[mode] = res.Summary().Mean
	}
	return out, nil
}
