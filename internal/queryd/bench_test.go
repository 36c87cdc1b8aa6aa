package queryd

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bgpsim/bgpsim/internal/experiments"
)

// benchWorld is the serving benchmark fixture: 2,000 ASes, seed 42.
var (
	benchWorldOnce sync.Once
	benchWorldVal  *experiments.World
	benchWorldErr  error
)

func benchWorld(b testing.TB) *experiments.World {
	b.Helper()
	benchWorldOnce.Do(func() {
		benchWorldVal, benchWorldErr = experiments.NewWorld(2000, 42)
	})
	if benchWorldErr != nil {
		b.Fatal(benchWorldErr)
	}
	return benchWorldVal
}

// benchAttackBody renders the i-th query: one fixed target, rotating
// attackers, ROV deployed at a top-degree ladder rung — the defended
// point-query shape hijackd exists for.
func benchAttackBody(n, i int) []byte {
	target := n / 7
	attacker := (i*31 + 1) % n
	if attacker == target {
		attacker = (attacker + 1) % n
	}
	return []byte(fmt.Sprintf(
		`{"target": %d, "attacker": %d, "exact": true, "defense": {"rov": [0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19]}}`,
		target, attacker))
}

// BenchmarkAttackQuery measures the exact tier end to end — HTTP
// decode, admission, one warm solve, measurement, JSON encode — and
// reports the server's own latency quantiles alongside ns/op.
func BenchmarkAttackQuery(b *testing.B) {
	w := benchWorld(b)
	s, err := New(Config{World: w, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	n := w.Policy.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/attack", bytes.NewReader(benchAttackBody(n, i)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("query %d: status %d", i, rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.met.attack.lat.quantile(0.50)), "p50_ns")
	b.ReportMetric(float64(s.met.attack.lat.quantile(0.99)), "p99_ns")
}

// BenchmarkOverloadShed drives a Workers=1, no-backlog server from
// parallel clients so admission overflows, and reports how much of the
// offered load was shed as counted 429s versus served. Correctness
// under overload — not throughput — is the number that matters here.
func BenchmarkOverloadShed(b *testing.B) {
	w := benchWorld(b)
	s, err := New(Config{World: w, Workers: 1, Backlog: -1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	n := w.Policy.N()
	var idx, served, shed atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(idx.Add(1))
			req := httptest.NewRequest("POST", "/v1/attack", bytes.NewReader(benchAttackBody(n, i)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				served.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
			default:
				b.Errorf("query %d: status %d", i, rec.Code)
			}
		}
	})
	b.StopTimer()
	total := served.Load() + shed.Load()
	if total > 0 {
		b.ReportMetric(float64(shed.Load())/float64(total), "shed_frac")
	}
	b.ReportMetric(float64(shed.Load()), "shed_total")
}
