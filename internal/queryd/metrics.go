package queryd

import (
	"math/bits"
	"sync/atomic"
)

// latencyHist is a lock-free base-2 latency histogram: bucket k counts
// observations with nanosecond values in [2^(k-1), 2^k). Quantiles are
// read off the bucket boundaries — coarse (±50%) but allocation-free on
// the serving path and monotone under merge.
type latencyHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [64]atomic.Int64
}

func (h *latencyHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bits.Len64(uint64(ns))].Add(1)
}

// quantile returns the upper bound of the bucket holding the q-th
// (0..1) observation, in nanoseconds; 0 with no observations.
func (h *latencyHist) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for k := range h.buckets {
		seen += h.buckets[k].Load()
		if seen > rank {
			if k == 0 {
				return 0
			}
			return int64(1)<<uint(k) - 1
		}
	}
	return int64(^uint64(0) >> 1)
}

// endpointMetrics is one query endpoint's serving counters.
type endpointMetrics struct {
	served   atomic.Int64
	shed     atomic.Int64
	errs     atomic.Int64
	canceled atomic.Int64 // admitted, but the client left before a worker was free
	lat      latencyHist
}

// metrics is the server's observability state, all atomics: the
// /metrics handler snapshots it without stopping the serving path.
type metrics struct {
	attack     endpointMetrics
	vulnerab   endpointMetrics
	deployment endpointMetrics
	detection  endpointMetrics
	reloads    atomic.Int64
	solves     atomic.Int64 // exact cells solved, every endpoint
	estimates  atomic.Int64
	inflight   atomic.Int64
}

func newMetrics() *metrics { return &metrics{} }

// endpointSnapshot is the rendered form of one endpoint's counters.
type endpointSnapshot struct {
	Served    int64 `json:"served"`
	Shed      int64 `json:"shed"`
	Errors    int64 `json:"errors"`
	Canceled  int64 `json:"canceled"`
	P50Ns     int64 `json:"p50_ns"`
	P99Ns     int64 `json:"p99_ns"`
	MeanNs    int64 `json:"mean_ns"`
	Observed  int64 `json:"observed"`
	TotalSumN int64 `json:"sum_ns"`
}

func (e *endpointMetrics) snapshot() endpointSnapshot {
	n := e.lat.count.Load()
	mean := int64(0)
	if n > 0 {
		mean = e.lat.sum.Load() / n
	}
	return endpointSnapshot{
		Served:    e.served.Load(),
		Shed:      e.shed.Load(),
		Errors:    e.errs.Load(),
		Canceled:  e.canceled.Load(),
		P50Ns:     e.lat.quantile(0.50),
		P99Ns:     e.lat.quantile(0.99),
		MeanNs:    mean,
		Observed:  n,
		TotalSumN: e.lat.sum.Load(),
	}
}

// metricsSnapshot is the /metrics response body.
type metricsSnapshot struct {
	Epoch    int64 `json:"epoch"`
	UptimeNs int64 `json:"uptime_ns"`
	Inflight int64 `json:"inflight"`
	Reloads  int64 `json:"reloads"`

	Solves struct {
		Full      int64 `json:"full"`
		Estimates int64 `json:"estimates"`
	} `json:"solves"`

	Endpoints map[string]endpointSnapshot `json:"endpoints"`
}

func (s *Server) snapshotMetrics() metricsSnapshot {
	var out metricsSnapshot
	out.Epoch = s.Epoch()
	out.UptimeNs = s.clock.Now().Sub(s.started).Nanoseconds()
	out.Inflight = s.met.inflight.Load()
	out.Reloads = s.met.reloads.Load()
	out.Solves.Full = s.met.solves.Load()
	out.Solves.Estimates = s.met.estimates.Load()
	out.Endpoints = map[string]endpointSnapshot{
		"attack":        s.met.attack.snapshot(),
		"vulnerability": s.met.vulnerab.snapshot(),
		"deployment":    s.met.deployment.snapshot(),
		"detection":     s.met.detection.snapshot(),
	}
	return out
}
