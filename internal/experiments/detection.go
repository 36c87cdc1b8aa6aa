package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/viz"
)

// DetectionResult is the full Figure 7 panel: the same random attack
// workload evaluated against the paper's three probe configurations, plus
// the Section VI "top undetected attacks" tables.
type DetectionResult struct {
	Title   string
	Attacks int
	Cases   []DetectionCase
}

// DetectionCase is one probe configuration's outcome.
type DetectionCase struct {
	Result    *detect.Result
	TopMisses []detect.MissedAttack
}

// DetectionConfig tunes the Figure 7 reproduction.
type DetectionConfig struct {
	// Attacks is the workload size (paper: 8000). Default 2000.
	Attacks int
	// Seed drives workload generation and probe selection.
	Seed int64
	// BGPmonProbes is the case-2 probe count (paper: 24).
	BGPmonProbes int
	// TopMisses is the table size (default 5).
	TopMisses int
	// Semantics selects the detection model (default: SelectedRoute, as
	// in the paper).
	Semantics detect.Semantics
	// Kind selects the attack scenario evaluated (zero = exact-origin
	// hijack, the paper's model).
	Kind core.AttackKind
	// Defense is the prevention deployment the detectors run alongside
	// (zero = none, as in the paper's Section VI).
	Defense core.Defense
	// Workers bounds solve parallelism (0 = GOMAXPROCS); results are
	// bit-identical at any worker count.
	Workers int
}

func (c DetectionConfig) withDefaults() DetectionConfig {
	if c.Attacks == 0 {
		c.Attacks = 2000
	}
	if c.BGPmonProbes == 0 {
		c.BGPmonProbes = 24
	}
	if c.TopMisses == 0 {
		c.TopMisses = 5
	}
	return c
}

// BGPmonProbes is Figure 7's case-2 probe set: k BGPmon-like volunteer
// probes drawn from the seed's own "probes" stream, never from the
// topology generator's.
func BGPmonProbes(w *World, k int, seed int64) detect.ProbeSet {
	return detect.BGPmonLikeProbes(w.Graph, w.Class, k, rngFor(seed, "probes"))
}

// Fig7 reproduces Figure 7 and the Section VI tables: three detector
// configurations — all tier-1s, a BGPmon-like volunteer set, and the
// high-degree core — against one shared random transit-pair workload.
func Fig7(w *World, cfg DetectionConfig) (*DetectionResult, error) {
	return Fig7Study(cfg).Run(w)
}

// Fig7Study is Figure 7 in every run shape. Each attack is solved once
// and fanned out to all three probe configurations (3× fewer solves than
// per-set evaluation). Every shape rejects an empty probe set before
// solving.
func Fig7Study(cfg DetectionConfig) Study[detect.Record, *DetectionResult] {
	cfg = cfg.withDefaults()
	return Study[detect.Record, *DetectionResult]{tag: TagFig7, workers: cfg.Workers,
		plan: func(w *World) (*studyPlan[detect.Record, *DetectionResult], error) {
			attacks, err := detect.GenerateAttacksOfKind(w.Graph.TransitNodes(), cfg.Attacks, cfg.Kind, rngFor(cfg.Seed, "attacks"))
			if err != nil {
				return nil, err
			}
			sets := []detect.ProbeSet{
				detect.Tier1Probes(w.Class),
				BGPmonProbes(w, cfg.BGPmonProbes, cfg.Seed),
				// Case 3's probe count scales the paper's 62-of-42697 core.
				detect.TopDegreeProbes(w.Graph, w.ScaledCoreK()),
			}
			if err := detect.ValidateSets(sets); err != nil {
				return nil, err
			}
			m := detect.MatrixFor(w.Policy, attacks, cfg.Defense)
			m.Ident = probeIdent(int(cfg.Semantics), sets...)
			return &studyPlan[detect.Record, *DetectionResult]{
				matrix:  m,
				extract: detect.Extractor(w.Policy, sets, cfg.Semantics),
				reduce: func() (sweep.Reducer[detect.Record], func() *DetectionResult) {
					results, red := detect.Results(sets, attacks)
					return red, func() *DetectionResult {
						res := &DetectionResult{
							Title:   "Figure 7: detector configurations vs random transit attacks",
							Attacks: cfg.Attacks,
						}
						for _, r := range results {
							res.Cases = append(res.Cases, DetectionCase{Result: r, TopMisses: r.TopMisses(cfg.TopMisses)})
						}
						return res
					}
				},
			}, nil
		}}
}

// RenderSVG draws one Figure 7 panel (bars of attack counts per trigger
// bucket with the mean-pollution line) for the given case index.
func (r *DetectionResult) RenderSVG(out io.Writer, caseIdx int) error {
	if caseIdx < 0 || caseIdx >= len(r.Cases) {
		return fmt.Errorf("fig7 svg: case %d of %d", caseIdx, len(r.Cases))
	}
	c := r.Cases[caseIdx]
	return viz.RenderBarChart(out, c.Result.TriggerHist, c.Result.MeanPollutionByTriggers,
		viz.ChartOptions{
			Title:  "Figure 7 — " + c.Result.ProbeSet.Name,
			XLabel: "number of probes triggered",
		})
}

// WriteText renders the per-configuration summaries, trigger histograms,
// and top-miss tables.
func (r *DetectionResult) WriteText(out io.Writer, asnOf func(node int) string) error {
	fmt.Fprintf(out, "%s\nworkload: %d random attacks\n\n", r.Title, r.Attacks)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "configuration\tprobes\tmissed\tmiss rate\tmiss mean pollution\tmiss max")
	for _, c := range r.Cases {
		mean, max := c.Result.MissSummary()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\t%.0f\t%d\n",
			c.Result.ProbeSet.Name, len(c.Result.ProbeSet.Probes),
			c.Result.MissCount(), 100*c.Result.MissRate(), mean, max)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, c := range r.Cases {
		fmt.Fprintf(out, "\n%s — attacks by number of probes triggered (count, mean pollution):\n",
			c.Result.ProbeSet.Name)
		hist := c.Result.TriggerHist
		step := 1
		if len(hist) > 16 {
			step = len(hist) / 16
		}
		for k := 0; k < len(hist); k += step {
			if hist[k] == 0 {
				continue
			}
			fmt.Fprintf(out, "  %3d probes: %5d attacks  avg pollution %.0f\n",
				k, hist[k], c.Result.MeanPollutionByTriggers[k])
		}
		if len(c.TopMisses) > 0 {
			fmt.Fprintln(out, "  top undetected attacks:")
			for _, m := range c.TopMisses {
				fmt.Fprintf(out, "    attacker %s → target %s  pollution %d\n",
					asnOf(m.Attacker), asnOf(m.Target), m.Pollution)
			}
		}
	}
	return nil
}
