package sbgp

import (
	"runtime"
	"testing"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// TestCompareModesDeterminism pins the four mode means on the 900-AS
// world (50 transit attackers, the 40 highest-degree ASes deployed) at
// one and at four workers.
func TestCompareModesDeterminism(t *testing.T) {
	pol, g, c := testWorld(t, 900)
	target, err := topology.FindTarget(g, c, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		t.Fatal(err)
	}
	attackers := g.TransitNodes()[:50]
	deployed := topology.NodesByDegree(g)[:40]
	want := []struct {
		mode core.SecureMode
		mean float64
	}{
		{core.SecureOff, 308.68},
		{core.SecurityThird, 288.1},
		{core.SecuritySecond, 154.42},
		{core.SecurityFirst, 29.76},
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 4} {
		means, err := CompareModes(pol, target, attackers, deployed, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if means[w.mode] != w.mean {
				t.Errorf("workers %d, %s: mean %v, want %v", workers, ModeName(w.mode), means[w.mode], w.mean)
			}
		}
	}
}
