// Command vulnscan reproduces the paper's Section IV vulnerability
// analysis: Figure 2 (targets under tier-1 hierarchies), Figure 3
// (tier-2 hierarchies) and Figure 4 (the effect of defensive stub
// filters).
//
// Usage:
//
//	vulnscan -scale 5000                     # Figure 2
//	vulnscan -hierarchy tier2                # Figure 3
//	vulnscan -stubfilter                     # Figure 4
//	vulnscan -sample 2000                    # cap attackers per target
//
// Large runs split across processes (or machines) by cell range; each
// shard writes a mergeable JSON slice and a final merge invocation
// reduces them into the exact single-process result:
//
//	vulnscan -scale 42697 -shard 0/3 -shard-dir out   # on machine A
//	vulnscan -scale 42697 -shard 1/3 -shard-dir out   # on machine B
//	vulnscan -scale 42697 -shard 2/3 -shard-dir out   # on machine C
//	vulnscan -scale 42697 -merge -shard-dir out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vulnscan:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("vulnscan", flag.ContinueOnError)
	wf := cli.AddWorldFlags(fs)
	hierarchy := fs.String("hierarchy", "tier1", "target hierarchy for the depth panel: tier1 | tier2")
	stubFilter := fs.Bool("stubfilter", false, "run the Figure 4 stub-filter comparison instead")
	sample := fs.Int("sample", 0, "attacker sample per target (0 = every AS)")
	svgOut := fs.String("svg", "", "also render the panel as an SVG chart to this file")
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

	cfg := experiments.VulnerabilityConfig{AttackerSample: *sample, Seed: *wf.Seed, Kind: kind, Workers: *workers}
	// -defense deploys the selected mechanisms at the scaled 62-AS
	// high-degree core; the default stays the paper's undefended baseline.
	if mechs != 0 {
		cfg.Defense = mechs.Deploy(deploy.TopDegree(w.Graph, w.ScaledCoreK()).Blocked(w.Graph.N()))
	}
	if *stubFilter {
		res, ok, err := cli.RunStudy(sh, w, experiments.Fig4Study(cfg), "vulnscan", *wf.Seed)
		if !ok {
			return err
		}
		return res.WriteText(stdout)
	}

	var study experiments.Study[hijack.Record, *experiments.VulnerabilityResult]
	switch *hierarchy {
	case "tier1":
		study = experiments.Fig2Study(cfg)
	case "tier2":
		study = experiments.Fig3Study(cfg)
	default:
		return fmt.Errorf("unknown -hierarchy %q (want tier1 or tier2)", *hierarchy)
	}
	res, ok, err := cli.RunStudy(sh, w, study, "vulnscan", *wf.Seed)
	if !ok {
		return err
	}
	if *svgOut != "" {
		if err := cli.WriteChart(*svgOut, res.RenderSVG); err != nil {
			return err
		}
	}
	return res.WriteText(stdout)
}
