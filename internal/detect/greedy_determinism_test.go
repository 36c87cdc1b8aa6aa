package detect

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// TestGreedyProbesDeterminism pins the greedy cover on the 800-AS world's
// 300-attack training workload, over every transit candidate and over the
// 40 highest-degree ASes, at one and at four workers (the coverage solve
// runs at GOMAXPROCS).
func TestGreedyProbesDeterminism(t *testing.T) {
	pol, g, _ := testWorld(t, 800)
	attacks, err := GenerateAttacks(g.TransitNodes(), 300, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		candidates []int
		k          int
		want       []asn.ASN
	}{
		{nil, 8, []asn.ASN{337, 1310, 3272, 138, 500, 328, 633, 278}},
		{topology.NodesByDegree(g)[:40], 5, []asn.ASN{455, 848, 278, 3272, 1842}},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			ps, err := GreedyProbes(pol, attacks, c.candidates, c.k)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			got := make([]asn.ASN, len(ps.Probes))
			for j, p := range ps.Probes {
				got[j] = g.ASN(p)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("GOMAXPROCS %d, case %d: probes %v, want %v", procs, i, got, c.want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
