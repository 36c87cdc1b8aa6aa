package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/stats"
	"github.com/bgpsim/bgpsim/internal/sweep"
)

// The scenario-ranking study is the payoff of the scenario layer: the
// paper ranks incremental deployment strategies against exact-origin
// hijacks only, where degree-ranked deployment dominates. Re-running the
// same ladder against forged-origin hijacks and route leaks — with the
// deployment set validating paths, not just origins — asks whether that
// ranking is an artifact of the attack model. One flattened matrix run
// sweeps every (kind × strategy family × size) cell against the deep
// target and ranks the families per scenario.

// ScenarioRankingConfig tunes the per-scenario deployment ranking study.
type ScenarioRankingConfig struct {
	// AttackerSample caps the transit-attacker population (0 = all).
	AttackerSample int
	// Seed drives attacker sampling and the random deployment draws.
	Seed int64
	// Sizes are the deployment set sizes evaluated per strategy family
	// (default: the scaled paper ladder 62/124/299).
	Sizes []int
	// Mechs is what each deployment set turns on (default rov+aspa, so
	// every scenario has a deployed countermeasure to rank).
	Mechs core.DefenseMech
	// Kinds are the attack scenarios ranked (default: all three).
	Kinds []core.AttackKind
	// Workers bounds solve parallelism (0 = GOMAXPROCS); results are
	// bit-identical at any worker count.
	Workers int
}

func (c ScenarioRankingConfig) withDefaults(w *World) ScenarioRankingConfig {
	if len(c.Sizes) == 0 {
		scale := func(paper int) int {
			v := paper * w.Graph.N() / 42697
			if v < 1 {
				v = 1
			}
			return v
		}
		c.Sizes = []int{scale(62), scale(124), scale(299)}
	}
	if c.Mechs == 0 {
		c.Mechs = core.MechROV | core.MechASPA
	}
	if len(c.Kinds) == 0 {
		c.Kinds = core.Kinds()
	}
	return c
}

// ScenarioRankingCell is one (strategy, size) rung of one scenario's
// ladder.
type ScenarioRankingCell struct {
	Strategy deploy.Strategy
	Summary  stats.Summary
}

// ScenarioRankingRow is one attack scenario's evaluated ladder: the
// undefended baseline followed by every (family × size) deployment.
type ScenarioRankingRow struct {
	Kind     core.AttackKind
	Baseline stats.Summary
	Cells    []ScenarioRankingCell
}

// Ranking orders the row's cells by mean residual pollution, best
// deployment first (ties by strategy name for determinism).
func (r *ScenarioRankingRow) Ranking() []ScenarioRankingCell {
	out := append([]ScenarioRankingCell(nil), r.Cells...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Summary.Mean != out[j].Summary.Mean {
			return out[i].Summary.Mean < out[j].Summary.Mean
		}
		return out[i].Strategy.Name < out[j].Strategy.Name
	})
	return out
}

// ScenarioRankingResult is the full study: one row per attack scenario,
// all solved against the same target and attacker population.
type ScenarioRankingResult struct {
	Title  string
	Target Target
	Mechs  core.DefenseMech
	Rows   []ScenarioRankingRow
}

// scenarioStudy is the prepared study: defaulted config plus the derived
// target, attacker sample, and per-kind strategy ladder, shared by full,
// shard, and merge runs.
type scenarioStudy struct {
	cfg       ScenarioRankingConfig
	target    Target
	attackers []int
	// ladder[0] is the undefended baseline; the rest are family × size.
	ladder []deploy.Strategy
}

func newScenarioStudy(w *World, cfg ScenarioRankingConfig) (*scenarioStudy, error) {
	cfg = cfg.withDefaults(w)
	node, ok := w.DeepTarget()
	if !ok {
		return nil, fmt.Errorf("no deep target")
	}
	target := Target{
		Name:  fmt.Sprintf("depth-%d stub", w.Class.Depth[node]),
		Node:  node,
		Depth: w.Class.Depth[node],
	}
	ladder := []deploy.Strategy{deploy.None()}
	for si, k := range cfg.Sizes {
		// One generator per random rung keeps the draws independent and
		// replayable, as in deploy.PaperLadder.
		ladder = append(ladder,
			deploy.Random(w.Graph, k, rngFor(cfg.Seed+int64(si), "scenario-random")),
			deploy.TopDegree(w.Graph, k),
			deploy.DepthRanked(w.Graph, w.Class, k),
		)
	}
	return &scenarioStudy{
		cfg:       cfg,
		target:    target,
		attackers: SampleAttackers(w.Graph.TransitNodes(), cfg.AttackerSample, rngFor(cfg.Seed, "attackers")),
		ladder:    ladder,
	}, nil
}

// workload flattens the study into one matrix: groups ordered kind-major,
// ladder rung minor, every cell the same attacker sample.
func (s *scenarioStudy) workload(w *World) (*hijack.Workload, error) {
	cfgs := make([]hijack.SweepConfig, 0, len(s.cfg.Kinds)*len(s.ladder))
	for _, kind := range s.cfg.Kinds {
		cfgs = append(cfgs, deploy.ConfigsScenario(w.Policy, s.target.Node, s.attackers, s.ladder, kind, s.cfg.Mechs)...)
	}
	return hijack.NewWorkload(w.Policy, cfgs)
}

// assemble folds the kind-major sweep results back into per-scenario rows.
func (s *scenarioStudy) assemble(results []*hijack.SweepResult) *ScenarioRankingResult {
	res := &ScenarioRankingResult{
		Title:  "Per-scenario deployment ranking",
		Target: s.target,
		Mechs:  s.cfg.Mechs,
	}
	for ki, kind := range s.cfg.Kinds {
		row := ScenarioRankingRow{Kind: kind}
		for li, st := range s.ladder {
			sum := results[ki*len(s.ladder)+li].Summary()
			if li == 0 {
				row.Baseline = sum
				continue
			}
			row.Cells = append(row.Cells, ScenarioRankingCell{Strategy: st, Summary: sum})
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// ScenarioRankingStudy is the study in every run shape, as one flattened
// matrix.
func ScenarioRankingStudy(cfg ScenarioRankingConfig) Study[hijack.Record, *ScenarioRankingResult] {
	return Study[hijack.Record, *ScenarioRankingResult]{tag: TagScenario, workers: cfg.Workers,
		plan: func(w *World) (*studyPlan[hijack.Record, *ScenarioRankingResult], error) {
			s, err := newScenarioStudy(w, cfg)
			if err != nil {
				return nil, err
			}
			wl, err := s.workload(w)
			if err != nil {
				return nil, err
			}
			return sweepPlan(wl, s.assemble), nil
		}}
}

// ScenarioRanking runs the full study as one flattened matrix run.
func ScenarioRanking(w *World, cfg ScenarioRankingConfig) (*ScenarioRankingResult, error) {
	return ScenarioRankingStudy(cfg).Run(w)
}

// ScenarioRankingShard solves one shard of the study's matrix in memory.
func ScenarioRankingShard(w *World, cfg ScenarioRankingConfig, sel sweep.ShardSel) (*sweep.ShardFile[hijack.Record], error) {
	return ScenarioRankingStudy(cfg).Shard(w, sel)
}

// ScenarioRankingShardTo solves one shard of the study's matrix and
// persists it into the store.
func ScenarioRankingShardTo(w *World, cfg ScenarioRankingConfig, sel sweep.ShardSel, store sweep.ShardStore) (sweep.ShardReport, error) {
	return ScenarioRankingStudy(cfg).Persist(w, sel, store)
}

// ScenarioRankingMerge merges shard files into the full study result.
func ScenarioRankingMerge(w *World, cfg ScenarioRankingConfig, files []*sweep.ShardFile[hijack.Record]) (*ScenarioRankingResult, error) {
	return ScenarioRankingStudy(cfg).Merge(w, files)
}

// WriteText renders per-scenario ladders plus the best-first ranking line
// each scenario implies.
func (r *ScenarioRankingResult) WriteText(out io.Writer) error {
	fmt.Fprintf(out, "%s\ntarget: %s; deployed mechanisms: %s\n", r.Title, r.Target.Name, r.Mechs)
	for _, row := range r.Rows {
		fmt.Fprintf(out, "\nscenario %s (undefended mean pollution %.1f):\n", row.Kind, row.Baseline.Mean)
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "strategy\tmean polluted\tmax\tvs baseline")
		for _, c := range row.Cells {
			frac := 0.0
			if row.Baseline.Mean > 0 {
				frac = c.Summary.Mean / row.Baseline.Mean
			}
			fmt.Fprintf(tw, "%s\t%.1f\t%d\t%.0f%%\n", c.Strategy.Name, c.Summary.Mean, c.Summary.Max, 100*frac)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		ranked := row.Ranking()
		if len(ranked) > 0 {
			fmt.Fprintf(out, "  best deployment for %s: %s (mean %.1f)\n",
				row.Kind, ranked[0].Strategy.Name, ranked[0].Summary.Mean)
		}
	}
	return nil
}
