package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/sweep"
)

// TestScenarioRanking sanity-checks the study's shape: one row per attack
// kind, one cell per (family × size) rung, and a ranking that orders the
// cells best-first.
func TestScenarioRanking(t *testing.T) {
	w := world(t)
	cfg := ScenarioRankingConfig{AttackerSample: 120, Seed: 5, Workers: 4}
	res, err := ScenarioRanking(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(core.Kinds()) {
		t.Fatalf("%d rows, want one per kind (%d)", len(res.Rows), len(core.Kinds()))
	}
	for _, row := range res.Rows {
		if len(row.Cells) != 9 { // 3 families × 3 sizes
			t.Fatalf("kind %s: %d cells, want 9", row.Kind, len(row.Cells))
		}
		ranked := row.Ranking()
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Summary.Mean < ranked[i-1].Summary.Mean {
				t.Fatalf("kind %s: ranking not sorted at %d", row.Kind, i)
			}
		}
	}
	// The exact-origin row must have a positive undefended baseline, and
	// some deployment must improve on it.
	origin := res.Rows[0]
	if origin.Kind != core.KindOrigin || origin.Baseline.Mean <= 0 {
		t.Fatalf("origin baseline = %+v", origin.Baseline)
	}
	if best := origin.Ranking()[0]; best.Summary.Mean >= origin.Baseline.Mean {
		t.Errorf("no deployment beats the undefended baseline (best %.1f vs %.1f)",
			best.Summary.Mean, origin.Baseline.Mean)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best deployment for") {
		t.Error("WriteText lacks the per-scenario ranking line")
	}
}

// TestScenarioRankingWorkerInvariance is the scenario-axis acceptance
// criterion: the study's rendered output must be byte-identical across
// workers ∈ {1, 8} × shards ∈ {1, 3}, with sharded runs persisted to
// disk, read back, and merged in shuffled order.
func TestScenarioRankingWorkerInvariance(t *testing.T) {
	w := world(t)
	render := func(res *ScenarioRankingResult) string {
		var buf bytes.Buffer
		if err := res.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	ref := ""
	dir := t.TempDir()
	for _, workers := range []int{1, 8} {
		cfg := ScenarioRankingConfig{AttackerSample: 80, Seed: 5, Workers: workers}
		for _, shards := range []int{1, 3} {
			var res *ScenarioRankingResult
			var err error
			if shards == 1 {
				res, err = ScenarioRanking(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				var files []*sweep.ShardFile[hijack.Record]
				for _, sh := range []int{2, 0, 1} {
					sf, err := ScenarioRankingStudy(cfg).Shard(w, sweep.OneShard(sh, shards))
					if err != nil {
						t.Fatalf("shard %d: %v", sh, err)
					}
					files = append(files, shardRoundTrip(t, dir, sf))
				}
				res, err = ScenarioRankingStudy(cfg).Merge(w, files)
				if err != nil {
					t.Fatal(err)
				}
			}
			got := render(res)
			if ref == "" {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("workers=%d shards=%d: output diverges from reference", workers, shards)
			}
		}
	}
}
