package selfinterest

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
)

// regionalSums reduces a result to its exact integer totals: the means are
// sums over the attack counts, so the sums pin them without float text.
func regionalSums(r *RegionalResult) [4]int {
	return [4]int{
		r.InsideAttacks, int(math.Round(r.InsideMean * float64(r.InsideAttacks))),
		r.OutsideAttacks, int(math.Round(r.OutsideMean * float64(r.OutsideAttacks))),
	}
}

// TestMeasureRegionalDeterminism pins the regional measure on the
// 1,200-AS island, undefended and with the hub filter, at one and at four
// workers (the measure runs at GOMAXPROCS): attack counts and polluted
// region-member totals, inside and outside.
func TestMeasureRegionalDeterminism(t *testing.T) {
	g, _, pol, island, target := islandWorld(t, 1200)
	hub, err := RegionHub(g, island)
	if err != nil {
		t.Fatal(err)
	}
	blocked := asn.NewIndexSet(g.N())
	blocked.Add(hub)
	want := map[bool][4]int{
		false: {39, 745, 100, 1477},
		true:  {39, 521, 100, 1477},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, filtered := range []bool{false, true} {
			var set *asn.IndexSet
			if filtered {
				set = blocked
			}
			res, err := MeasureRegional(pol, target, island, 100, rand.New(rand.NewSource(7)), set)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			if got := regionalSums(res); got != want[filtered] {
				t.Errorf("GOMAXPROCS %d, hub filter %v: (inside attacks, polluted, outside attacks, polluted) = %v, want %v",
					procs, filtered, got, want[filtered])
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestMeasureRegionalRunsLanes: every attack of a regional measure shares
// the target and the blocked set, so the runtime solves them as lane
// batches; with no lone batch left over, no scalar solve runs at all.
func TestMeasureRegionalRunsLanes(t *testing.T) {
	g, _, pol, island, target := islandWorld(t, 1200)
	inside := len(g.RegionNodes(island)) - 1
	outside := 2*core.LaneWidth - inside%core.LaneWidth // total: a whole number of full batches
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if _, err := MeasureRegional(pol, target, island, outside, rand.New(rand.NewSource(7)), nil); err != nil {
		t.Fatal(err)
	}
	st := pol.AcquireSolver().Stats()
	if st.Solves != 0 || st.LaneSolves == 0 || st.Lanes != int64(inside+outside) {
		t.Fatalf("regional measure of %d attacks: %d scalar solves, %d lane solves over %d lanes; want 0 scalar solves and every attack in a lane",
			inside+outside, st.Solves, st.LaneSolves, st.Lanes)
	}
}
