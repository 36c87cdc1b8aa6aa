// Command holescan runs the paper's future-work analysis: which attacks
// still get through a partial filter deployment AND escape a detector
// configuration, and why each probe stayed blind (never reached /
// LOCAL_PREF / shorter legitimate path / tie-break).
//
// Usage:
//
//	holescan -scale 10000 -attacks 4000
//	holescan -filters tier1 -probes tier1     # the weakest configuration
//
// Multi-process runs shard the attack workload by cell range:
//
//	holescan -attacks 4000 -shard 0/2 -shard-dir out
//	holescan -attacks 4000 -shard 1/2 -shard-dir out
//	holescan -attacks 4000 -merge -shard-dir out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "holescan:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("holescan", flag.ContinueOnError)
	wf := cli.AddWorldFlags(fs)
	attacks := fs.Int("attacks", 2000, "random attack workload size")
	minPollution := fs.Int("min-pollution", 0, "success threshold in polluted ASes (0 = 1% of ASes)")
	filtersKind := fs.String("filters", "core", "deployed filters: core | tier1 | none")
	probesKind := fs.String("probes", "core", "detector probes: core | tier1 | bgpmon")
	sc := cli.AddScenarioFlags(fs)
	workers := cli.AddWorkersFlag(fs)
	sh := cli.AddShardFlags(fs)
	prof := cli.AddCPUProfileFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	if _, _, err := sh.Mode(); err != nil {
		return err
	}
	kind, mechs, err := sc.Parse()
	if err != nil {
		return err
	}
	w, err := wf.BuildWorld()
	if err != nil {
		return err
	}
	cli.Describe(w)

	cfg := experiments.HoleConfig{
		Attacks:      *attacks,
		Seed:         *wf.Seed,
		MinPollution: *minPollution,
		Kind:         kind,
		// -defense picks what the -filters set deploys (empty = ROV).
		Mechs:   mechs,
		Workers: *workers,
	}
	switch *filtersKind {
	case "core":
		f := deploy.TopDegree(w.Graph, w.ScaledCoreK())
		cfg.Filters = &f
	case "tier1":
		f := deploy.Tier1(w.Class)
		cfg.Filters = &f
	case "none":
		f := deploy.None()
		cfg.Filters = &f
	default:
		return fmt.Errorf("unknown -filters %q", *filtersKind)
	}
	probes, err := probeSet(w, *probesKind, *wf.Seed)
	if err != nil {
		return err
	}
	cfg.Probes = &probes
	res, ok, err := cli.RunStudy(sh, w, experiments.HoleStudy(cfg), "holescan", *wf.Seed)
	if !ok {
		return err
	}
	return res.WriteText(stdout, func(n int) string { return w.Graph.ASN(n).String() })
}

// probeSet resolves -probes; the bgpmon set is Figure 7's case 2 at the
// same seed.
func probeSet(w *experiments.World, kind string, seed int64) (detect.ProbeSet, error) {
	switch kind {
	case "core":
		return detect.TopDegreeProbes(w.Graph, w.ScaledCoreK()), nil
	case "tier1":
		return detect.Tier1Probes(w.Class), nil
	case "bgpmon":
		return experiments.BGPmonProbes(w, 24, seed), nil
	}
	return detect.ProbeSet{}, fmt.Errorf("unknown -probes %q", kind)
}
