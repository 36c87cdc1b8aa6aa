// Command topogen generates synthetic Internet-like AS topologies in the
// CAIDA AS-relationship interchange format, or re-emits a loaded topology
// (useful for normalizing third-party files).
//
// Usage:
//
//	topogen -scale 42697 -seed 7 -o topo.txt
//	topogen -topo caida.txt -o normalized.txt -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

// run writes the topology to stdout (or -o) and, with -stats, its
// structural statistics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wf := cli.AddWorldFlags(fs)
	out := fs.String("o", "", "output file (default stdout)")
	showStats := fs.Bool("stats", false, "print structural statistics to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *topology.Graph
	if *wf.TopoFile != "" {
		fh, err := os.Open(*wf.TopoFile)
		if err != nil {
			return err
		}
		defer fh.Close()
		g, err = topology.Parse(fh)
		if err != nil {
			return err
		}
	} else {
		p := topology.DefaultParams(*wf.Scale)
		p.Seed = *wf.Seed
		var err error
		g, err = topology.Generate(p)
		if err != nil {
			return err
		}
	}

	if *showStats {
		c := topology.Classify(g, topology.ClassifyOptions{})
		depthHist := map[int]int{}
		for i := 0; i < g.N(); i++ {
			depthHist[c.Depth[i]]++
		}
		fmt.Fprintf(stderr, "ASes=%d links=%d tier1=%d tier2=%d transit=%d\n",
			g.N(), g.Edges(), len(c.Tier1), len(c.Tier2), len(g.TransitNodes()))
		for d := 0; d <= c.MaxDepth(); d++ {
			fmt.Fprintf(stderr, "depth %d: %d ASes\n", d, depthHist[d])
		}
		audit := topology.Audit(g)
		fmt.Fprintf(stderr,
			"audit: components=%d largest=%d provider-cycle-nodes=%d isolated=%d stub-share=%.2f clean=%v\n",
			audit.Components, audit.LargestComponent, audit.ProviderCycles,
			audit.IsolatedFromCore, audit.StubShare, audit.Clean(g.N()))
	}

	w := stdout
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer fh.Close()
		w = fh
	}
	return topology.Write(w, g)
}
