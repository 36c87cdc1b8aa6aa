package core

import (
	"sort"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
)

// benchTopDegreeSet returns the k highest-degree nodes, the paper's
// "deploy at the top ISPs" incremental-deployment set.
func benchTopDegreeSet(pol *Policy, k int) *asn.IndexSet {
	n := pol.N()
	type dn struct{ d, i int }
	deg := make([]dn, n)
	for i := 0; i < n; i++ {
		deg[i] = dn{len(pol.Customers(i)) + len(pol.Providers(i)) + len(pol.Peers(i)), i}
	}
	sort.Slice(deg, func(a, b int) bool {
		if deg[a].d != deg[b].d {
			return deg[a].d > deg[b].d
		}
		return deg[a].i < deg[b].i
	})
	set := asn.NewIndexSet(n)
	for i := 0; i < k && i < n; i++ {
		set.Add(deg[i].i)
	}
	return set
}

// benchDeltaSetup builds the benchmark topology, a snapshot for a fixed
// target, a rotation of attackers, and the top-ISP ROV deployment that
// shapes hijackd's deployment queries: evaluated under a candidate
// defense, which confines the attacker's reach and, where it confines it
// enough, keeps the delta region small.
func benchDeltaSetup(b testing.TB) (*Policy, *Snapshot, []int, Defense) {
	b.Helper()
	pol := deltaTestPolicy(b, 2000, 42)
	n := pol.N()
	target := n / 7
	snap, err := BuildSnapshot(pol, target)
	if err != nil {
		b.Fatal(err)
	}
	attackers := make([]int, 0, 64)
	for i := 0; len(attackers) < 64; i += 31 {
		a := i % n
		if a != target {
			attackers = append(attackers, a)
		}
	}
	return pol, snap, attackers, Defense{Blocked: benchTopDegreeSet(pol, 20)}
}

// BenchmarkDeltaSolve measures one what-if query on the warm path: a
// cached baseline snapshot plus SolveDelta, the per-query work a hijackd
// worker does for a deployment query (defense at the top ISPs). Every
// answer is checked against a full solve; repaired/op is the share of
// queries the repair finished inside its budget.
func BenchmarkDeltaSolve(b *testing.B) {
	pol, snap, attackers, def := benchDeltaSetup(b)
	ds := NewDeltaSolver(pol)
	target := snap.Target()
	full := NewSolver(pol)
	want := make([]int, len(attackers))
	for i, a := range attackers {
		o, err := full.SolveDefense(Attack{Target: target, Attacker: a}, def)
		if err != nil {
			b.Fatal(err)
		}
		want[i] = o.PollutedCount()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(attackers)
		o, err := ds.SolveDelta(snap, Attack{Target: target, Attacker: attackers[k]}, def)
		if err != nil {
			b.Fatal(err)
		}
		if got := o.PollutedCount(); got != want[k] {
			b.Fatalf("attacker %d: SolveDelta counts %d polluted, a full solve %d", attackers[k], got, want[k])
		}
	}
	b.ReportMetric(float64(ds.Stats().DeltaSolves)/float64(b.N), "repaired/op")
}

// BenchmarkFullSolveCold measures the same defended queries answered the
// way the batch tools do on a cache miss: a fresh solver and a
// from-scratch three-stage solve per query.
func BenchmarkFullSolveCold(b *testing.B) {
	pol, snap, attackers, def := benchDeltaSetup(b)
	target := snap.Target()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSolver(pol)
		o, err := s.SolveDefense(Attack{Target: target, Attacker: attackers[i%len(attackers)]}, def)
		if err != nil {
			b.Fatal(err)
		}
		_ = o.PollutedCount()
	}
}
