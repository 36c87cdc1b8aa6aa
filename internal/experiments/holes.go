package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/recio"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/xmaps"
)

// The paper's closing future-work item: "Some origin and sub-prefix
// attacks will still get through, and possibly remain undetected. An
// analysis is desirable to understand these attacks, to determine how
// they remain invisible, and what can be done short of complete global
// deployment." HoleAnalysis is that analysis: it enumerates the attacks
// that both defeat a filter deployment and escape a probe configuration,
// and explains per-probe why each hole stayed invisible.

// MissReason classifies why one probe did not see one attack.
type MissReason string

const (
	// MissNeverReached: no neighbor exported the bogus route to the probe
	// (valley-free export stopped it earlier).
	MissNeverReached MissReason = "never-reached-probe"
	// MissLocalPref: the probe heard the bogus route but its legitimate
	// route wins on LOCAL_PREF class (customer > peer > provider).
	MissLocalPref MissReason = "local-pref"
	// MissShorterPath: equal class (or tier-1 shortest-path policy) and
	// the legitimate path is shorter.
	MissShorterPath MissReason = "shorter-legitimate-path"
	// MissTieBreak: equal class and length; the deterministic tie-break
	// kept the legitimate route.
	MissTieBreak MissReason = "tie-break"
	// MissFiltered: the probe AS itself deploys origin validation, so it
	// drops the bogus route it would otherwise have selected — a filter
	// and a detector at the same AS cancel each other, one of the
	// analysis's sharpest findings.
	MissFiltered MissReason = "probe-filters-route"
)

// missReasons lists every MissReason in report and column order.
var missReasons = []MissReason{MissNeverReached, MissFiltered, MissLocalPref, MissShorterPath, MissTieBreak}

// Hole is one successful-yet-undetected attack.
type Hole struct {
	Attacker       int
	Target         int
	Pollution      int
	AttackerDepth  int
	AttackerDegree int
	// WhyMissed counts the miss reason per probe for this attack.
	WhyMissed map[MissReason]int
}

// HoleResult summarizes a hole analysis.
type HoleResult struct {
	Title string
	// Attacks is the workload size; Succeeded counts attacks polluting ≥
	// MinPollution despite the filters; Undetected counts succeeded
	// attacks with zero triggered probes.
	Attacks    int
	Succeeded  int
	Undetected int
	// Holes lists the undetected successful attacks, worst first.
	Holes []Hole
	// AttackerDepthHist histograms hole attackers by depth.
	AttackerDepthHist map[int]int
	// ReasonTotals aggregates per-probe miss reasons over all holes.
	ReasonTotals map[MissReason]int
	MinPollution int
}

// HoleConfig tunes the analysis.
type HoleConfig struct {
	// Attacks is the random workload size (default 2000).
	Attacks int
	// Seed drives workload generation.
	Seed int64
	// MinPollution is the success threshold (default: 1 % of the ASes).
	MinPollution int
	// Filters is the deployed prevention (default: the scaled 62-core).
	Filters *deploy.Strategy
	// Mechs selects which mechanisms the filter set deploys (default:
	// ROV origin validation, the paper's model).
	Mechs core.DefenseMech
	// Kind selects the attack scenario the workload uses (zero =
	// exact-origin hijack).
	Kind core.AttackKind
	// Probes is the detector configuration (default: scaled 62-core probes).
	Probes *detect.ProbeSet
	// MaxHoles bounds the retained hole list (default 50).
	MaxHoles int
	// Workers bounds solve parallelism (0 = GOMAXPROCS); results are
	// bit-identical at any worker count.
	Workers int
}

// HoleRecord is one attack's hole measurement — the matrix stream
// element and the shard-file payload. Why is populated only for
// successful undetected attacks.
type HoleRecord struct {
	Pollution int                `json:"pollution"`
	Succeeded bool               `json:"succeeded"`
	Triggered bool               `json:"triggered"`
	Why       map[MissReason]int `json:"why,omitempty"`
}

// ColumnFields implements sweep.ColumnarRecord: pollution, the two
// flags, and one count per MissReason ("why.<reason>"), zero in every
// record but a hole's.
func (HoleRecord) ColumnFields() []recio.Field {
	fields := []recio.Field{
		{Name: "pollution", Kind: recio.KindDelta},
		{Name: "succeeded", Kind: recio.KindRLE},
		{Name: "triggered", Kind: recio.KindRLE},
	}
	for _, m := range missReasons {
		fields = append(fields, recio.Field{Name: "why." + string(m), Kind: recio.KindRLE})
	}
	return fields
}

// ColumnValues implements sweep.ColumnarRecord.
func (r HoleRecord) ColumnValues() []uint64 {
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	vals := []uint64{uint64(r.Pollution), bit(r.Succeeded), bit(r.Triggered)}
	for _, m := range missReasons {
		vals = append(vals, uint64(r.Why[m]))
	}
	return vals
}

// SetColumnValues implements sweep.ColumnarRecord. Why keeps only the
// reasons with a nonzero count and stays nil when none has one — what a
// JSON round trip of explainMisses' output yields.
func (r *HoleRecord) SetColumnValues(vals []uint64) {
	*r = HoleRecord{Pollution: int(vals[0]), Succeeded: vals[1] != 0, Triggered: vals[2] != 0}
	for i, m := range missReasons {
		if n := vals[3+i]; n > 0 {
			if r.Why == nil {
				r.Why = make(map[MissReason]int)
			}
			r.Why[m] = int(n)
		}
	}
}

var _ sweep.ColumnarRecord = (*HoleRecord)(nil)

// holeStudy is a prepared hole analysis: defaulted configuration plus the
// derived workload, deployment, and detector.
type holeStudy struct {
	cfg     HoleConfig
	attacks []core.Attack
	def     core.Defense
	mechs   core.DefenseMech
	probes  detect.ProbeSet
	filters deploy.Strategy
}

func newHoleStudy(w *World, cfg HoleConfig) (*holeStudy, error) {
	if cfg.Attacks == 0 {
		cfg.Attacks = 2000
	}
	if cfg.MinPollution == 0 {
		cfg.MinPollution = w.Graph.N() / 100
		if cfg.MinPollution < 5 {
			cfg.MinPollution = 5
		}
	}
	if cfg.MaxHoles == 0 {
		cfg.MaxHoles = 50
	}
	coreK := w.ScaledCoreK()
	filters := deploy.TopDegree(w.Graph, coreK)
	if cfg.Filters != nil {
		filters = *cfg.Filters
	}
	probes := detect.TopDegreeProbes(w.Graph, coreK)
	if cfg.Probes != nil {
		probes = *cfg.Probes
	}
	attacks, err := detect.GenerateAttacksOfKind(w.Graph.TransitNodes(), cfg.Attacks, cfg.Kind, rngFor(cfg.Seed, "attacks"))
	if err != nil {
		return nil, err
	}
	mechs := cfg.Mechs
	if mechs == 0 {
		mechs = core.MechROV
	}
	return &holeStudy{
		cfg:     cfg,
		attacks: attacks,
		def:     mechs.Deploy(filters.Blocked(w.Graph.N())),
		mechs:   mechs,
		probes:  probes,
		filters: filters,
	}, nil
}

// matrix flattens the study into a single-group workload.
func (s *holeStudy) matrix(w *World) sweep.Matrix {
	return sweep.Matrix{
		Groups: 1,
		Size:   func(int) int { return len(s.attacks) },
		Policy: func(int) *core.Policy { return w.Policy },
		Job:    func(_, k int) (core.Attack, core.Defense) { return s.attacks[k], s.def },
		Ident:  probeIdent(s.cfg.MinPollution, s.probes),
	}
}

// extract compresses one transient outcome into a HoleRecord: success,
// detection, and — for holes only — the per-probe miss classification.
func (s *holeStudy) extract(w *World) func(g, k int, o *core.Outcome) HoleRecord {
	return func(_, k int, o *core.Outcome) HoleRecord {
		rec := HoleRecord{Pollution: o.PollutedCount()}
		if rec.Pollution >= s.cfg.MinPollution {
			rec.Succeeded = true
			for _, p := range s.probes.Probes {
				if o.Polluted(p) {
					rec.Triggered = true
					break
				}
			}
			if !rec.Triggered {
				rec.Why = explainMisses(w, o, s.attacks[k], s.def, s.probes.Probes)
			}
		}
		return rec
	}
}

// reduce returns the result skeleton plus the streaming reducer that
// builds it from the in-order record stream — counts, histograms, and the
// hole list accumulate attack by attack (identical to the pre-kernel
// serial loop), and Finish ranks and truncates the holes.
func (s *holeStudy) reduce(w *World) (*HoleResult, sweep.Reducer[HoleRecord]) {
	title := fmt.Sprintf("Deployment holes: filters %q vs probes %q",
		s.filters.Name, s.probes.Name)
	if s.cfg.Kind != core.KindOrigin || s.mechs != core.MechROV {
		title = fmt.Sprintf("Deployment holes (%s attacks, %s deployed): filters %q vs probes %q",
			s.cfg.Kind, s.mechs, s.filters.Name, s.probes.Name)
	}
	res := &HoleResult{
		Title:             title,
		Attacks:           s.cfg.Attacks,
		AttackerDepthHist: make(map[int]int),
		ReasonTotals:      make(map[MissReason]int),
		MinPollution:      s.cfg.MinPollution,
	}
	return res, sweep.ReduceFunc[HoleRecord]{
		EmitFn: func(i int, rec HoleRecord) {
			if !rec.Succeeded {
				return
			}
			res.Succeeded++
			if rec.Triggered {
				return
			}
			res.Undetected++
			at := s.attacks[i]
			hole := Hole{
				Attacker:       at.Attacker,
				Target:         at.Target,
				Pollution:      rec.Pollution,
				AttackerDepth:  w.Class.Depth[at.Attacker],
				AttackerDegree: w.Graph.Degree(at.Attacker),
				WhyMissed:      rec.Why,
			}
			res.AttackerDepthHist[hole.AttackerDepth]++
			for r, n := range hole.WhyMissed {
				res.ReasonTotals[r] += n
			}
			res.Holes = append(res.Holes, hole)
		},
		FinishFn: func() {
			sort.Slice(res.Holes, func(i, j int) bool {
				if res.Holes[i].Pollution != res.Holes[j].Pollution {
					return res.Holes[i].Pollution > res.Holes[j].Pollution
				}
				return res.Holes[i].Attacker < res.Holes[j].Attacker
			})
			if len(res.Holes) > s.cfg.MaxHoles {
				res.Holes = res.Holes[:s.cfg.MaxHoles]
			}
		},
	}
}

// HoleAnalysis runs the future-work experiment as one streaming matrix
// pass: per-attack records are extracted on the workers and reduced in
// workload order, with no per-attack observation buffer.
func HoleAnalysis(w *World, cfg HoleConfig) (*HoleResult, error) {
	return HoleStudy(cfg).Run(w)
}

// HoleStudy is the hole analysis in every run shape.
func HoleStudy(cfg HoleConfig) Study[HoleRecord, *HoleResult] {
	return Study[HoleRecord, *HoleResult]{tag: TagHoles, workers: cfg.Workers,
		plan: func(w *World) (*studyPlan[HoleRecord, *HoleResult], error) {
			s, err := newHoleStudy(w, cfg)
			if err != nil {
				return nil, err
			}
			return &studyPlan[HoleRecord, *HoleResult]{
				matrix:  s.matrix(w),
				extract: s.extract(w),
				reduce: func() (sweep.Reducer[HoleRecord], func() *HoleResult) {
					res, red := s.reduce(w)
					return red, func() *HoleResult { return res }
				},
			}, nil
		}}
}

// explainMisses classifies, for each probe, why it did not select the
// bogus route in the converged outcome.
func explainMisses(w *World, o *core.Outcome, at core.Attack, def core.Defense, probes []int) map[MissReason]int {
	reasons := make(map[MissReason]int)
	for _, p := range probes {
		if o.Origin(p) == core.OriginAttacker {
			continue // triggered probes are not misses (cannot happen for holes)
		}
		bestClass, bestDist := core.BestAttackerOffer(w.Policy, o, p)
		switch {
		case bestClass == core.ClassNone:
			reasons[MissNeverReached]++
		case core.FiltersImport(w.Policy, at, def, p):
			reasons[MissFiltered]++
		case !o.HasRoute(p):
			// Received an offer yet routeless cannot happen in a converged
			// state; classify defensively.
			reasons[MissNeverReached]++
		default:
			selClass, selDist := o.Class(p), o.Dist(p)
			tier1 := w.Policy.IsTier1(p) && w.Policy.Tier1ShortestPath()
			switch {
			case !tier1 && selClass < bestClass:
				reasons[MissLocalPref]++
			case selDist < bestDist:
				reasons[MissShorterPath]++
			case tier1 && selDist == bestDist && selClass < bestClass:
				reasons[MissLocalPref]++
			default:
				reasons[MissTieBreak]++
			}
		}
	}
	return reasons
}

// WriteText renders the hole analysis.
func (r *HoleResult) WriteText(out io.Writer, asnOf func(node int) string) error {
	fmt.Fprintf(out, "%s\n", r.Title)
	fmt.Fprintf(out, "workload %d attacks; %d succeed (pollution ≥ %d) despite filters; %d of those escape detection\n\n",
		r.Attacks, r.Succeeded, r.MinPollution, r.Undetected)
	if len(r.Holes) == 0 {
		fmt.Fprintln(out, "no holes: every successful attack was seen by at least one probe")
		return nil
	}
	fmt.Fprintln(out, "attacker depth histogram of holes:")
	for _, d := range xmaps.SortedKeys(r.AttackerDepthHist) {
		fmt.Fprintf(out, "  depth %d: %d holes\n", d, r.AttackerDepthHist[d])
	}
	fmt.Fprintln(out, "\nwhy probes stayed blind (per-probe reasons over all holes):")
	for _, reason := range missReasons {
		if n := r.ReasonTotals[reason]; n > 0 {
			fmt.Fprintf(out, "  %-24s %d\n", reason, n)
		}
	}
	fmt.Fprintln(out, "\nworst holes:")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "attacker\ttarget\tpollution\tattacker depth\tattacker degree")
	max := len(r.Holes)
	if max > 10 {
		max = 10
	}
	for _, h := range r.Holes[:max] {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n",
			asnOf(h.Attacker), asnOf(h.Target), h.Pollution, h.AttackerDepth, h.AttackerDegree)
	}
	return tw.Flush()
}
