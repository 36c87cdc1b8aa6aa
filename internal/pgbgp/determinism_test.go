package pgbgp

import (
	"runtime"
	"slices"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// TestPGBGPDeterminism pins the 700-AS world's PGBGP numbers at one and at
// four workers (the runs use GOMAXPROCS): per-attack pollution under
// plain depref, under a history in which every third attacker is a
// historically normal origin, and the depref/drop means.
func TestPGBGPDeterminism(t *testing.T) {
	pol, g, c := testWorld(t, 700)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	attackers := append(g.TransitNodes()[:24:24], target) // the target is skipped
	deployed := topology.NodesByDegree(g)[:20]
	hijacked := prefix.MustParse("129.82.0.0/16")
	h := NewHistory(10, 1)
	h.SeedFromBaseline(map[prefix.Prefix]asn.ASN{hijacked: g.ASN(target)}, 100)
	for i := 0; i < len(attackers); i += 3 {
		h.Observe(hijacked, g.ASN(attackers[i]), 100)
	}

	wantDepref := []int{3, 44, 6, 1, 1, 28, 154, 17, 9, 13, 51, 11, 68, 5, 3, 9, 53, 5, 2, 2, 41, 39, 2, 13}
	wantHistory := []int{56, 44, 6, 295, 1, 28, 356, 17, 9, 13, 51, 11, 215, 5, 3, 48, 53, 5, 558, 2, 41, 147, 2, 13}
	const wantDeprefMean, wantDropMean = 24.166666666666668, 22.958333333333332
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		ev, err := Evaluate(pol, target, attackers, deployed)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		hist, err := EvaluateWithHistory(pol, target, attackers, deployed, h, hijacked, 101)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		deprefMean, dropMean, err := CompareWithDrop(pol, target, attackers, deployed)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ev.Attackers, attackers[:24]) || !slices.Equal(hist.Attackers, attackers[:24]) {
			t.Errorf("GOMAXPROCS %d: attackers %v / %v, want %v", procs, ev.Attackers, hist.Attackers, attackers[:24])
		}
		if !slices.Equal(ev.Pollution, wantDepref) {
			t.Errorf("GOMAXPROCS %d: Evaluate pollution %v, want %v", procs, ev.Pollution, wantDepref)
		}
		if !slices.Equal(hist.Pollution, wantHistory) {
			t.Errorf("GOMAXPROCS %d: EvaluateWithHistory pollution %v, want %v", procs, hist.Pollution, wantHistory)
		}
		if deprefMean != wantDeprefMean || dropMean != wantDropMean {
			t.Errorf("GOMAXPROCS %d: CompareWithDrop = (%v, %v), want (%v, %v)",
				procs, deprefMean, dropMean, wantDeprefMean, wantDropMean)
		}
	}
}
