// Command bgpsim runs a single origin-hijack simulation and prints the
// outcome: pollution counts, address-space impact, and (with -trace) the
// generation-by-generation propagation of the bogus announcement.
//
// Usage:
//
//	bgpsim -scale 5000 -attacker AS123 -target AS456
//	bgpsim -target-depth 5 -trace            # pick a deep target automatically
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("bgpsim", flag.ExitOnError)
	wf := cli.AddWorldFlags(fs)
	attackerFlag := fs.String("attacker", "", "attacker ASN (default: highest-degree depth-1 transit)")
	targetFlag := fs.String("target", "", "target ASN (overrides -target-depth)")
	targetDepth := fs.Int("target-depth", 2, "pick a stub target at this depth when -target is unset")
	subprefix := fs.Bool("subprefix", false, "simulate a sub-prefix hijack")
	trace := fs.Bool("trace", false, "run the message engine and print per-generation statistics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	w, err := wf.BuildWorld()
	if err != nil {
		return err
	}
	cli.Describe(w)

	target, err := pickNode(w, *targetFlag, func() (int, error) {
		node, err := topology.FindTarget(w.Graph, w.Class, topology.TargetQuery{Depth: *targetDepth, Stub: true})
		if err != nil {
			return 0, fmt.Errorf("no depth-%d stub target: %w", *targetDepth, err)
		}
		return node, nil
	})
	if err != nil {
		return err
	}
	attacker, err := pickNode(w, *attackerFlag, func() (int, error) {
		best := -1
		for _, i := range w.Graph.TransitNodes() {
			if i == target || w.Class.Depth[i] > 1 {
				continue
			}
			if best == -1 || w.Graph.Degree(i) > w.Graph.Degree(best) {
				best = i
			}
		}
		if best < 0 {
			return 0, fmt.Errorf("no transit attacker available")
		}
		return best, nil
	})
	if err != nil {
		return err
	}

	at := core.Attack{Target: target, Attacker: attacker, SubPrefix: *subprefix}
	fmt.Printf("attack: %v (depth %d, degree %d) hijacks %v (depth %d, degree %d)\n",
		w.Graph.ASN(attacker), w.Class.Depth[attacker], w.Graph.Degree(attacker),
		w.Graph.ASN(target), w.Class.Depth[target], w.Graph.Degree(target))

	if *trace {
		eng := core.NewEngine(w.Policy)
		o, tr, err := eng.Run(at, nil, true)
		if err != nil {
			return err
		}
		printOutcome(w, o)
		for g := 1; g <= tr.Generations; g++ {
			msgs, acc := 0, 0
			for _, ev := range tr.EventsInGen(g) {
				if ev.Withdraw {
					continue
				}
				msgs++
				if ev.Accepted {
					acc++
				}
			}
			fmt.Printf("  generation %2d: %6d announcements, %6d accepted\n", g, msgs, acc)
		}
		return nil
	}
	s := w.Policy.AcquireSolver()
	defer w.Policy.ReleaseSolver(s)
	o, err := s.Solve(at, nil)
	if err != nil {
		return err
	}
	printOutcome(w, o)
	return nil
}

func pickNode(w *experiments.World, asnText string, fallback func() (int, error)) (int, error) {
	if asnText == "" {
		return fallback()
	}
	a, err := asn.Parse(asnText)
	if err != nil {
		return 0, err
	}
	i, ok := w.Graph.Index(a)
	if !ok {
		return 0, fmt.Errorf("AS %v not in topology", a)
	}
	return i, nil
}

func printOutcome(w *experiments.World, o *core.Outcome) {
	polluted := o.PollutedCount()
	var lost, total int64
	for i := 0; i < w.Graph.N(); i++ {
		total += w.Graph.AddrWeight(i)
		if o.Polluted(i) {
			lost += w.Graph.AddrWeight(i)
		}
	}
	fmt.Printf("result: %d of %d ASes polluted (%.1f%%), %.1f%% of address space diverted\n",
		polluted, w.Graph.N(), 100*float64(polluted)/float64(w.Graph.N()),
		100*float64(lost)/float64(total))
}
