// Command selfdefense reproduces the paper's Section VII pragmatic
// self-interest experiments on the topology's island region (the New
// Zealand analog): re-homing the most vulnerable regional AS up the
// provider chain, and placing a single origin-validation filter at the
// regional transit hub.
//
// Usage:
//
//	selfdefense -scale 5000
//	selfdefense -outside 200 -levels 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/mitigate"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "selfdefense:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("selfdefense", flag.ContinueOnError)
	wf := cli.AddWorldFlags(fs)
	outside := fs.Int("outside", 200, "attacks sampled from outside the region (paper: 200)")
	levels := fs.Int("levels", 2, "provider-chain levels to re-home upward (paper: 2)")
	mitigateStudy := fs.Bool("mitigate", false, "also run the reactive sub-prefix mitigation study")
	prof := cli.AddCPUProfileFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	w, err := wf.BuildWorld()
	if err != nil {
		return err
	}
	cli.Describe(w)

	res, err := experiments.SectionVII(w, experiments.SelfInterestConfig{
		OutsideSample: *outside,
		Seed:          *wf.Seed,
		RehomeLevels:  *levels,
	})
	if err != nil {
		return err
	}
	if err := res.WriteText(stdout); err != nil {
		return err
	}
	if !*mitigateStudy {
		return nil
	}
	fmt.Fprintln(stdout)
	return runMitigation(w, stdout)
}

// runMitigation demonstrates the reactive defense class: the victim
// counter-announces more-specific halves, under permissive vs conservative
// ROA MaxLength policies.
func runMitigation(w *experiments.World, stdout io.Writer) error {
	victim, err := topology.FindTarget(w.Graph, w.Class, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		return err
	}
	attacker := w.Class.Tier1[0]
	coreK := 62 * w.Graph.N() / 42697
	if coreK < len(w.Class.Tier1)+3 {
		coreK = len(w.Class.Tier1) + 3
	}
	filtering := topology.NodesByDegree(w.Graph)[:coreK]
	study, err := mitigate.Study(w.Policy, victim, attacker, prefix.MustParse("129.82.0.0/16"), filtering)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "reactive mitigation (sub-prefix counter-announcement) of %v hijacked by %v, %d filtering ASes:\n",
		w.Graph.ASN(victim), w.Graph.ASN(attacker), study.FilteringASes)
	fmt.Fprintf(stdout, "  ROA maxlen %d (permissive):   mitigation valid=%v  recovered %d  stranded %d\n",
		17, study.Permissive.MitigationValid, study.Permissive.RecoveredASes, study.Permissive.StrandedASes)
	fmt.Fprintf(stdout, "  ROA maxlen %d (conservative): mitigation valid=%v  recovered %d  stranded %d  ← the MaxLength trap\n",
		16, study.Conservative.MitigationValid, study.Conservative.RecoveredASes, study.Conservative.StrandedASes)
	return nil
}
