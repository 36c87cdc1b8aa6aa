package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/sbgp"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// SBGPResult is the partial-deployment path-security study: the same
// attacks and deployment evaluated under every security rank (the Lychev
// et al. §4 comparison the paper corroborates).
type SBGPResult struct {
	Title  string
	Target Target
	// DeployedCore is the size of the core deployment (the victim's
	// upstream chain is always added — without it no secure route exists).
	DeployedCore int
	ChainLen     int
	Means        map[core.SecureMode]float64
}

// SBGPStudy runs the mode comparison against the deep target with a
// scaled-62-core deployment plus the victim's provider chain.
func SBGPStudy(w *World, cfg DeploymentConfig) (*SBGPResult, error) {
	cfg = cfg.withDefaults()
	node, ok := w.DeepTarget()
	if !ok {
		return nil, fmt.Errorf("sbgp study: no deep target")
	}
	attackers := SampleAttackers(w.Graph.TransitNodes(), cfg.AttackerSample, rngFor(cfg.Seed, "attackers"))
	coreK := w.ScaledCoreK()
	deployed := append([]int(nil), topology.NodesByDegree(w.Graph)[:coreK]...)
	chain := providerChain(w, node)
	deployed = append(deployed, chain...)

	means, err := sbgp.CompareModes(w.Policy, node, attackers, deployed, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("sbgp study: %w", err)
	}
	return &SBGPResult{
		Title: "S*BGP partial deployment: where security ranks in route selection",
		Target: Target{
			Name:  fmt.Sprintf("depth-%d stub", w.Class.Depth[node]),
			Node:  node,
			Depth: w.Class.Depth[node],
		},
		DeployedCore: coreK,
		ChainLen:     len(chain),
		Means:        means,
	}, nil
}

// providerChain walks the target's shortest provider chain to an anchor.
func providerChain(w *World, node int) []int {
	var chain []int
	cur := node
	for w.Class.Depth[cur] > 0 {
		next := -1
		nbrs, rels := w.Graph.Neighbors(cur)
		for k, nb := range nbrs {
			if rels[k] == topology.RelProvider && w.Class.Depth[nb] == w.Class.Depth[cur]-1 {
				if next == -1 || w.Graph.ASN(int(nb)) < w.Graph.ASN(next) {
					next = int(nb)
				}
			}
		}
		if next < 0 {
			break
		}
		chain = append(chain, next)
		cur = next
	}
	return chain
}

// WriteText renders the comparison table.
func (r *SBGPResult) WriteText(out io.Writer) error {
	fmt.Fprintf(out, "%s\ntarget: %s; core deployment %d ASes + %d-hop victim chain\n\n",
		r.Title, r.Target.Name, r.DeployedCore, r.ChainLen)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "selection policy\tmean polluted")
	for _, mode := range []core.SecureMode{core.SecureOff, core.SecurityThird, core.SecuritySecond, core.SecurityFirst} {
		fmt.Fprintf(tw, "%s\t%.1f\n", sbgp.ModeName(mode), r.Means[mode])
	}
	return tw.Flush()
}
