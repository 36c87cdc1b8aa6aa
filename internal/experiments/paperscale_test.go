package experiments

import (
	"flag"
	"testing"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/topology"
)

var paper = flag.Bool("paper", false, "also run the paper-scale (42,697-AS) checks, which take tens of seconds")

// TestPaperScaleLanesMatchSolver holds the lane kernel to the scalar one
// at the paper's own size, where distance widths, plane counts and word
// counts are those of the real runs: Figure 2's cells on the seed-42
// 42,697-AS world with a 60-attacker sample (300 cells, the benchmark's
// Figure 2 pass), each target's attackers solved as SolveLanes batches.
// Every lane must give every node the HasRoute, Origin and Dist a scalar
// Solver gives it on that cell, and the same pollution count, asked for
// first, and address-weight total. It runs only with -paper.
func TestPaperScaleLanesMatchSolver(t *testing.T) {
	if !*paper {
		t.Skip("paper-scale check: run with -paper")
	}
	w, err := NewWorld(42697, 42)
	if err != nil {
		t.Fatal(err)
	}
	targets, wl, err := vulnerabilityWorkload(w, VulnerabilityConfig{AttackerSample: 60, Seed: 42}, topology.UnderTier1)
	if err != nil {
		t.Fatal(err)
	}
	n := w.Graph.N()
	lanes, scalar := core.NewSolver(w.Policy), core.NewSolver(w.Policy)
	cells := 0
	for ti, tgt := range targets {
		for lo := 0; lo < len(wl.Attackers[ti]); lo += core.LaneWidth {
			batch := wl.Attackers[ti][lo:min(lo+core.LaneWidth, len(wl.Attackers[ti]))]
			outs, err := lanes.SolveLanes(tgt.Node, batch, core.KindOrigin, false, core.Defense{})
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range batch {
				got := &outs[i]
				want, err := scalar.SolveDefense(core.Attack{Target: tgt.Node, Attacker: a}, core.Defense{})
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					if got.HasRoute(v) != want.HasRoute(v) || got.Origin(v) != want.Origin(v) || got.Dist(v) != want.Dist(v) {
						t.Fatalf("target %d attacker %d node %d: lane (route=%v org=%d dist=%d), scalar (route=%v org=%d dist=%d)",
							tgt.Node, a, v, got.HasRoute(v), got.Origin(v), got.Dist(v), want.HasRoute(v), want.Origin(v), want.Dist(v))
					}
				}
				// The count first, which the batch tallies without the weights.
				if gc, wc := got.PollutedCount(), want.PollutedCount(); gc != wc {
					t.Fatalf("target %d attacker %d: lane counts %d polluted, scalar %d", tgt.Node, a, gc, wc)
				}
				gc, gw := got.PollutedWeight()
				wc, ww := want.PollutedWeight()
				if gc != wc || gw != ww {
					t.Fatalf("target %d attacker %d: lane pollution (%d, %d), scalar (%d, %d)", tgt.Node, a, gc, gw, wc, ww)
				}
				cells++
			}
		}
	}
	if cells != 300 {
		t.Fatalf("compared %d cells, want Figure 2's 300", cells)
	}
}
