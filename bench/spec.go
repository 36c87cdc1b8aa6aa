package main

// The benchmark's fixed vocabulary: workload names, metric names, units
// and bounds. BENCHMARK.json at the repository root restates this table
// for the driver; bench_test.go fails when the two disagree.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
	run  func(*env) (*report, error)
}

// metricSpec is one named metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var workloads = []workloadSpec{
	{"sweep_paper", "Paper-scale 42,697-AS Figure 2 sweep: >=95% of wall is core.Solver + hijack.Measure, storage and HTTP absent, so kernel work must show here.", runSweepPaper},
	{"sweep_ladder_persist", "2,000-AS defended ladder persisted as 4 shards then merged: cells cost ~50us, so reorder window, reducers, encode and fsync are a visible share.", runSweepLadder},
	{"shard_merge", "400,000 records written as 8 shards and merged back with no solving: storage-bound, so codec and layout changes show here and nowhere else.", runShardMerge},
	{"hijackd_zipf", "hijackd over loopback HTTP with Zipf(1.1) targets over 8x the snapshot cache, mixed tiers, kinds and defenses: hot targets, partial hits, delta path.", runHijackdZipf},
	{"hijackd_uniform", "hijackd with uniform targets, all exact: every query misses the snapshot cache, so machinery that wins on zipf by spending more on misses loses here.", runHijackdUniform},
	{"firehose_replay", "In-memory MRT (24 peers, RIB baseline + BGP4MP stream, 1% ROA-invalid) replayed over loopback TCP into a validating collector: shares no code with the solvers.", runFirehose},
}

// endToEnd metrics are reported by every workload in an untraced run.
// The bounds are the driver's maximum: README.md ("Why the bounds are
// 25 %") has the measurements behind that.
// Each is defined per workload in README.md ("what the number means
// here"); a metric that only some workloads could report lives in
// perLayer instead, because the driver wants every end-to-end metric
// from every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer metrics are reported by every workload in a traced run; a
// layer the workload never calls reports 0, which is the "bypass"
// prediction made visible.
var perLayer = []metricSpec{
	// Workload-specific end-to-end readings that cannot be gated because
	// only some workloads have them.
	{"cells_per_s", "1/s", "higher", 0},
	{"cells_per_s_w1", "1/s", "higher", 0},
	{"records_per_s_write", "1/s", "higher", 0},
	{"records_per_s_merge", "1/s", "higher", 0},
	{"bytes_per_record", "B", "lower", 0},
	{"capacity_qps", "1/s", "higher", 0},
	{"p50_ms", "ms", "lower", 0},
	{"p95_ms", "ms", "lower", 0},
	{"p99_ms", "ms", "lower", 0},
	{"miss_frac", "frac", "lower", 0},
	{"updates_per_s", "1/s", "higher", 0},
	{"fail_frac", "frac", "lower", 0},

	{"topology.generate_s", "s", "lower", 0},
	{"topology.classify_s", "s", "lower", 0},
	{"core.policy_build_s", "s", "lower", 0},

	{"core.solve_full.us_p50", "us", "lower", 0},
	{"core.solve_full.us_p99", "us", "lower", 0},
	{"core.solve_full.allocs_per_op", "count", "lower", 0},
	{"core.solve_full.bytes_per_op", "B", "lower", 0},
	{"core.snapshot_build.us_p50", "us", "lower", 0},
	{"core.solve_delta.us_p50", "us", "lower", 0},
	{"core.solve_delta.us_p99", "us", "lower", 0},
	{"core.solve_delta.allocs_per_op", "count", "lower", 0},
	{"core.solve_delta.examined_per_op", "count", "lower", 0},
	{"core.solve_delta.fallback_frac", "frac", "lower", 0},
	{"core.delta_vs_full.ratio_defended", "ratio", "lower", 0},
	{"core.delta_vs_full.ratio_undefended", "ratio", "lower", 0},

	{"hijack.workload_build_s", "s", "lower", 0},
	{"hijack.measure.us_p50", "us", "lower", 0},
	{"hijack.measure.allocs_per_op", "count", "lower", 0},

	{"sweep.reduce.us_per_cell", "us", "lower", 0},
	{"sweep.scaling_eff", "ratio", "higher", 0},
	{"sweep.overhead_frac", "frac", "lower", 0},
	{"sweep.encode.recio-col.ns_per_record", "ns", "lower", 0},
	{"sweep.decode.recio-col.ns_per_record", "ns", "lower", 0},
	{"sweep.encode.json.ns_per_record", "ns", "lower", 0},
	{"sweep.decode.json.ns_per_record", "ns", "lower", 0},
	{"sweep.merge.ns_per_record", "ns", "lower", 0},

	{"recio.bytes_per_record.json", "B", "lower", 0},
	{"recio.checkpoint.us_p50", "us", "lower", 0},
	{"recio.resume_seek.us", "us", "lower", 0},
	{"recio.resume_replay.us", "us", "lower", 0},
	{"recio.column_read.ns_per_record", "ns", "lower", 0},

	{"experiments.assemble_s", "s", "lower", 0},

	{"queryd.http_floor.us_p50", "us", "lower", 0},
	{"queryd.estimate.us_p50", "us", "lower", 0},
	{"queryd.exact_hit.us_p50", "us", "lower", 0},
	{"queryd.exact_miss.us_p50", "us", "lower", 0},
	{"queryd.allocs_per_query", "count", "lower", 0},
	{"queryd.snapshot.hit_frac", "frac", "higher", 0},
	{"queryd.path.delta_frac", "frac", "higher", 0},
	{"queryd.r2.p50_ms", "ms", "lower", 0},
	{"queryd.r2.p99_ms", "ms", "lower", 0},
	{"queryd.r2.miss_frac", "frac", "lower", 0},
	{"queryd.loadgen.lag_ms_p99", "ms", "lower", 0},

	{"mrt.read.ns_per_record", "ns", "lower", 0},
	{"bgpwire.marshal.ns_per_update", "ns", "lower", 0},
	{"bgpwire.unmarshal.ns_per_update", "ns", "lower", 0},
	{"feed.validate.ns_per_update", "ns", "lower", 0},
	{"feed.detect.ns_per_update", "ns", "lower", 0},
	{"firehose.allocs_per_update", "count", "lower", 0},
	{"firehose.bytes_per_update", "B", "lower", 0},
	{"firehose.transport_frac", "frac", "lower", 0},
	{"firehose.sent", "count", "higher", 0},
	{"firehose.shed", "count", "lower", 0},
	{"firehose.skipped", "count", "lower", 0},
	{"firehose.alerts", "count", "higher", 0},

	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
