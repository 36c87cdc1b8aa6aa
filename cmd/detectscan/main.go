// Command detectscan reproduces the paper's Section VI hijack-detection
// study (Figure 7): the same random transit-pair attack workload evaluated
// against three probe configurations — all tier-1s, a BGPmon-like
// volunteer set, and the high-degree core — including the "top undetected
// attacks" tables.
//
// Usage:
//
//	detectscan -attacks 8000
//	detectscan -semantics received        # ablation: any-received triggers
//
// Multi-process runs shard the attack workload by cell range:
//
//	detectscan -attacks 8000 -shard 0/2 -shard-dir out
//	detectscan -attacks 8000 -shard 1/2 -shard-dir out
//	detectscan -attacks 8000 -merge -shard-dir out
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
		fmt.Fprintln(os.Stderr, "detectscan:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("detectscan", flag.ContinueOnError)
	wf := cli.AddWorldFlags(fs)
	attacks := fs.Int("attacks", 2000, "random attack workload size (paper: 8000)")
	bgpmon := fs.Int("bgpmon-probes", 24, "probe count for the BGPmon-like configuration")
	top := fs.Int("top", 5, "top undetected attacks per configuration")
	semantics := fs.String("semantics", "selected", "probe trigger semantics: selected | received")
	falseAlarms := fs.Bool("falsealarms", false, "also run the data-freshness false-alarm study")
	svgPrefix := fs.String("svg", "", "render each configuration's histogram to <prefix>-caseN.svg")
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
	kind, mechs, err := sc.Parse()
	if err != nil {
		return err
	}
	if mode != cli.RunFull && *falseAlarms {
		return fmt.Errorf("-falsealarms does not shard; drop it from -shard/-merge runs")
	}
	w, err := wf.BuildWorld()
	if err != nil {
		return err
	}
	cli.Describe(w)

	sem := detect.SelectedRoute
	switch *semantics {
	case "selected":
	case "received":
		sem = detect.AnyReceived
	default:
		return fmt.Errorf("unknown -semantics %q (want selected or received)", *semantics)
	}
	cfg := experiments.DetectionConfig{
		Attacks:      *attacks,
		Seed:         *wf.Seed,
		BGPmonProbes: *bgpmon,
		TopMisses:    *top,
		Semantics:    sem,
		Kind:         kind,
		Workers:      *workers,
	}
	// -defense deploys the selected mechanisms at the scaled 62-AS core,
	// so detection is measured alongside prevention; the default stays
	// the paper's detection-only model.
	if mechs != 0 {
		cfg.Defense = mechs.Deploy(deploy.TopDegree(w.Graph, w.ScaledCoreK()).Blocked(w.Graph.N()))
	}
	res, ok, err := cli.RunStudy(sh, w, experiments.Fig7Study(cfg), "detectscan", *wf.Seed)
	if !ok {
		return err
	}
	if err := res.WriteText(stdout, func(node int) string { return w.Graph.ASN(node).String() }); err != nil {
		return err
	}
	if *svgPrefix != "" {
		for i := range res.Cases {
			name := fmt.Sprintf("%s-case%d.svg", *svgPrefix, i+1)
			if err := cli.WriteChart(name, func(out io.Writer) error { return res.RenderSVG(out, i) }); err != nil {
				return err
			}
		}
	}
	if *falseAlarms {
		fmt.Fprintln(stdout)
		fa, err := experiments.FalseAlarmStudy(w, experiments.FalseAlarmConfig{Seed: *wf.Seed, Workers: *workers})
		if err != nil {
			return err
		}
		if err := fa.WriteText(stdout); err != nil {
			return err
		}
	}
	return nil
}
