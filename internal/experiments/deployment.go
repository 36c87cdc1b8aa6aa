package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/viz"
)

// DeploymentResult is one Figure 5/6 panel: the strategy ladder evaluated
// against one target, plus the residual-attack table for the strongest
// deployment (the paper's "top 5 still-potent attacks").
type DeploymentResult struct {
	Title  string
	Target Target
	Rungs  []deploy.Evaluation
	// Residual ranks all attacks surviving the strongest rung; attackers
	// that are themselves deployers are flagged.
	Residual []hijack.AttackerStat
	// ResidualOutsiders ranks only attacks from non-deploying ASes — the
	// paper's threat model, where a deployer is assumed trustworthy.
	ResidualOutsiders []hijack.AttackerStat
}

// DeploymentConfig tunes the ladder evaluation.
type DeploymentConfig struct {
	// AttackerSample caps the transit-attacker population (0 = all).
	AttackerSample int
	// Seed drives attacker sampling and random-deployment choice.
	Seed int64
	// ResidualTop is the residual-attack table size (default 5).
	ResidualTop int
	// Kind selects the attack scenario the ladder defends against (zero
	// = exact-origin hijack, the paper's model).
	Kind core.AttackKind
	// Mechs selects which mechanisms each rung deploys at its node set
	// (zero = ROV origin validation, the paper's model).
	Mechs core.DefenseMech
	// Workers bounds solve parallelism (0 = GOMAXPROCS); results are
	// bit-identical at any worker count.
	Workers int
}

func (c DeploymentConfig) withDefaults() DeploymentConfig {
	if c.ResidualTop == 0 {
		c.ResidualTop = 5
	}
	if c.Mechs == 0 {
		c.Mechs = core.MechROV
	}
	return c
}

// Fig5 reproduces Figure 5: incremental defense deployment against the
// relatively attack-resistant depth-1 target (the paper's AS98).
func Fig5(w *World, cfg DeploymentConfig) (*DeploymentResult, error) {
	return Fig5Study(cfg).Run(w)
}

// Fig6 reproduces Figure 6: the same ladder against the very vulnerable
// deep target (the paper's AS55857).
func Fig6(w *World, cfg DeploymentConfig) (*DeploymentResult, error) {
	return Fig6Study(cfg).Run(w)
}

// Fig5Study is Figure 5 in every run shape.
func Fig5Study(cfg DeploymentConfig) Study[hijack.Record, *DeploymentResult] {
	return deploymentStudy(cfg, TagFig5, "Figure 5: incremental filtering, resistant target",
		func(w *World) (Target, error) {
			node, ok := w.Depth1Target()
			if !ok {
				return Target{}, fmt.Errorf("no depth-1 target")
			}
			return Target{Name: "depth-1 stub (AS98 analog)", Node: node, Depth: w.Class.Depth[node]}, nil
		})
}

// Fig6Study is Figure 6 in every run shape.
func Fig6Study(cfg DeploymentConfig) Study[hijack.Record, *DeploymentResult] {
	return deploymentStudy(cfg, TagFig6, "Figure 6: incremental filtering, vulnerable target",
		func(w *World) (Target, error) {
			node, ok := w.DeepTarget()
			if !ok {
				return Target{}, fmt.Errorf("no deep target")
			}
			return Target{
				Name:  fmt.Sprintf("depth-%d stub (AS55857 analog)", w.Class.Depth[node]),
				Node:  node,
				Depth: w.Class.Depth[node],
			}, nil
		})
}

// deploymentStudy flattens the paper ladder against one target into one
// matrix and derives the residual-attack tables from its strongest rung.
func deploymentStudy(cfg DeploymentConfig, tag, title string, target func(*World) (Target, error)) Study[hijack.Record, *DeploymentResult] {
	cfg = cfg.withDefaults()
	return Study[hijack.Record, *DeploymentResult]{tag: tag, workers: cfg.Workers,
		plan: func(w *World) (*studyPlan[hijack.Record, *DeploymentResult], error) {
			t, err := target(w)
			if err != nil {
				return nil, err
			}
			attackers := SampleAttackers(w.Graph.TransitNodes(), cfg.AttackerSample, rngFor(cfg.Seed, "attackers"))
			ladder := deploy.PaperLadder(w.Graph, w.Class, cfg.Seed)
			wl, err := hijack.NewWorkload(w.Policy,
				deploy.ConfigsScenario(w.Policy, t.Node, attackers, ladder, cfg.Kind, cfg.Mechs))
			if err != nil {
				return nil, err
			}
			return sweepPlan(wl, func(results []*hijack.SweepResult) *DeploymentResult {
				evals := deploy.Evaluations(ladder, results)
				residual := evals[len(evals)-1].ResidualAttacks(len(attackers), w.Graph, w.Class)
				var outsiders []hijack.AttackerStat
				for _, a := range residual {
					if !a.Deployed && len(outsiders) < cfg.ResidualTop {
						outsiders = append(outsiders, a)
					}
				}
				if len(residual) > cfg.ResidualTop {
					residual = residual[:cfg.ResidualTop]
				}
				return &DeploymentResult{
					Title:             title,
					Target:            t,
					Rungs:             evals,
					Residual:          residual,
					ResidualOutsiders: outsiders,
				}
			}), nil
		}}
}

// WriteText renders the ladder summary plus the residual-attack table.
func (r *DeploymentResult) WriteText(out io.Writer) error {
	fmt.Fprintf(out, "%s\ntarget: %s\n\n", r.Title, r.Target.Name)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tmean polluted\tmax\tattacks ≥10%\tattacks ≥25%")
	n := 0
	for _, e := range r.Rungs {
		if e.Result.Summary().N > n {
			n = e.Result.Summary().N
		}
	}
	tenPct := r.totalASes() / 10
	quarter := r.totalASes() / 4
	for _, e := range r.Rungs {
		s := e.Result.Summary()
		fmt.Fprintf(tw, "%s\t%.1f\t%d\t%d\t%d\n",
			e.Strategy.Name, s.Mean, s.Max,
			e.Result.CountAttacksAtLeast(tenPct),
			e.Result.CountAttacksAtLeast(quarter))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\ntop residual attacks under %s:\n", r.Rungs[len(r.Rungs)-1].Strategy.Name)
	tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ASN\tpollution\tdegree\tdepth\tnote")
	for _, a := range r.Residual {
		note := ""
		if a.Deployed {
			note = "deployer-turned-attacker"
		}
		fmt.Fprintf(tw, "%v\t%d\t%d\t%d\t%s\n", a.ASN, a.Pollution, a.Degree, a.Depth, note)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(r.ResidualOutsiders) > 0 {
		fmt.Fprintln(out, "\ntop residual attacks from non-deployers (the paper's threat model):")
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "ASN\tpollution\tdegree\tdepth")
		for _, a := range r.ResidualOutsiders {
			fmt.Fprintf(tw, "%v\t%d\t%d\t%d\n", a.ASN, a.Pollution, a.Degree, a.Depth)
		}
		return tw.Flush()
	}
	return nil
}

// totalASes estimates the AS population from the first rung's sweep
// metadata (attackers + target + 1 is close enough for threshold rows; the
// graph size is authoritative when available through Rungs' outcomes).
func (r *DeploymentResult) totalASes() int {
	if len(r.Rungs) == 0 {
		return 0
	}
	// Attack counts cap at n-2, so infer from the undefended max.
	max := r.Rungs[0].Result.Summary().Max
	if max <= 0 {
		return len(r.Rungs[0].Result.Attackers) + 2
	}
	return max
}

// RenderSVG draws the ladder as the paper's Figure 5/6 CCDF chart: one
// curve per deployment strategy.
func (r *DeploymentResult) RenderSVG(out io.Writer) error {
	series := make([]viz.ChartSeries, 0, len(r.Rungs))
	for _, e := range r.Rungs {
		series = append(series, viz.ChartSeries{
			Name:   e.Strategy.Name,
			Points: e.Result.CCDF(),
		})
	}
	return viz.RenderCCDFChart(out, series, viz.ChartOptions{
		Title:  r.Title + " — " + r.Target.Name,
		XLabel: "minimum number of polluted ASes",
		YLabel: "attacks achieving at least X",
	})
}

// CrossoverIndex returns the index of the first ladder rung that cuts the
// baseline mean pollution by at least `factor` (e.g. 4.0 = 75 % reduction),
// or -1 — a quantitative handle on the paper's "non-linear threshold in
// which small security improvements shift into large security gains".
func (r *DeploymentResult) CrossoverIndex(factor float64) int {
	if len(r.Rungs) == 0 {
		return -1
	}
	base := r.Rungs[0].Result.Summary().Mean
	if base == 0 {
		return -1
	}
	for i, e := range r.Rungs[1:] {
		if e.Result.Summary().Mean <= base/factor {
			return i + 1
		}
	}
	return -1
}
