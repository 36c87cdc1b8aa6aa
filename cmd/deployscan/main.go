// Command deployscan reproduces the paper's Section V incremental-defense
// study: the Figure 5/6 deployment ladders plus the "top still-potent
// attacks" residual tables.
//
// Usage:
//
//	deployscan -target depth1        # Figure 5 (resistant target)
//	deployscan -target deep          # Figure 6 (vulnerable target)
//	deployscan -target both -top 5
//
// The ladders generalize beyond the paper's attack model: -scenario picks
// the attack kind and -defense what the deployed sets validate, and -rank
// runs the per-scenario deployment ranking study (random vs degree-ranked
// vs depth-ranked, every scenario, one matrix run):
//
//	deployscan -scenario route-leak -defense rov+aspa
//	deployscan -rank
//
// Multi-process runs shard each panel's ladder by cell range:
//
//	deployscan -shard 0/2 -shard-dir out
//	deployscan -shard 1/2 -shard-dir out
//	deployscan -merge -shard-dir out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "deployscan:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("deployscan", flag.ContinueOnError)
	wf := cli.AddWorldFlags(fs)
	target := fs.String("target", "both", "which target panel to run: depth1 | deep | both")
	sample := fs.Int("sample", 0, "transit-attacker sample (0 = all transit ASes)")
	top := fs.Int("top", 5, "residual-attack table size")
	subprefix := fs.Bool("subprefix", false, "also run the sub-prefix-vs-origin hijack study")
	sbgpStudy := fs.Bool("sbgp", false, "also run the S*BGP security-rank study")
	rank := fs.Bool("rank", false, "run the per-scenario deployment ranking study instead of the Figure 5/6 panels")
	svgPrefix := fs.String("svg", "", "render each panel's chart to <prefix>-depth1.svg / <prefix>-deep.svg")
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
	mode, _, err := sh.Mode()
	if err != nil {
		return err
	}
	if mode != cli.RunFull && (*subprefix || *sbgpStudy) {
		return fmt.Errorf("-subprefix and -sbgp do not shard; drop them from -shard/-merge runs")
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
	if *rank {
		// mechs = 0 keeps the study's own rov+aspa default.
		cfg := experiments.ScenarioRankingConfig{AttackerSample: *sample, Seed: *wf.Seed, Mechs: mechs, Workers: *workers}
		res, ok, err := cli.RunStudy(sh, w, experiments.ScenarioRankingStudy(cfg), "deployscan", *wf.Seed)
		if !ok {
			return err
		}
		return res.WriteText(stdout)
	}
	// The ladder defends each rung's node set with the -defense
	// mechanisms (empty = ROV, the paper's model) against -scenario
	// attacks.
	cfg := experiments.DeploymentConfig{
		AttackerSample: *sample, Seed: *wf.Seed, ResidualTop: *top,
		Kind: kind, Mechs: mechs, Workers: *workers,
	}

	runDepth1 := *target == "depth1" || *target == "both"
	runDeep := *target == "deep" || *target == "both"
	if !runDepth1 && !runDeep {
		return fmt.Errorf("unknown -target %q (want depth1, deep or both)", *target)
	}
	panels := []struct {
		run   bool
		name  string
		study experiments.Study[hijack.Record, *experiments.DeploymentResult]
	}{
		{runDepth1, "depth1", experiments.Fig5Study(cfg)},
		{runDeep, "deep", experiments.Fig6Study(cfg)},
	}
	for _, p := range panels {
		if !p.run {
			continue
		}
		res, ok, err := cli.RunStudy(sh, w, p.study, "deployscan", *wf.Seed)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := res.WriteText(stdout); err != nil {
			return err
		}
		if *svgPrefix != "" {
			if err := cli.WriteChart(*svgPrefix+"-"+p.name+".svg", res.RenderSVG); err != nil {
				return err
			}
		}
		if p.name == "depth1" {
			fmt.Fprintln(stdout)
		}
	}
	if *subprefix {
		fmt.Fprintln(stdout)
		res, err := experiments.SubPrefixStudy(w, cfg)
		if err != nil {
			return err
		}
		if err := res.WriteText(stdout); err != nil {
			return err
		}
	}
	if *sbgpStudy {
		fmt.Fprintln(stdout)
		res, err := experiments.SBGPStudy(w, cfg)
		if err != nil {
			return err
		}
		if err := res.WriteText(stdout); err != nil {
			return err
		}
	}
	return nil
}
