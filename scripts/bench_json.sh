#!/bin/sh
# Run the sweep-backed reproduction benchmarks (Figures 2, 5, 7, the
# kernel scaling micro-benchmarks, and the buffered-vs-streaming
# reduction comparison) and write the measurements as JSON, then run
# the shard-codec benchmarks (json vs recio encode/decode throughput,
# bytes on disk, and resume-replay cost) into a second JSON file.
# Then run the firehose replay-throughput benchmark (MRT updates
# through probe sessions into a TCP collector) into a third JSON file.
# Usage: scripts/bench_json.sh [outfile] [recio-outfile] [firehose-outfile]
# Output: outfile is one JSON array; each element carries the benchmark
# name, the worker count (0 when the benchmark does not parameterize
# workers), the shard count (0 likewise), ns/op, B/op, allocs/op, and
# the peak RSS in KB (0 when the benchmark does not sample it).
# recio-outfile is one JSON object: per-codec encode/decode MB/s and
# bytes-on-disk (json, recio, recio-col), the json:recio size ratio,
# resume cost through both paths (checkpoint replay vs index seek), the
# single-column read cost, and the machine's CPU count — the writer's
# segment-compression pool scales with cores, so throughput numbers are
# only comparable at the same gomaxprocs. The top-level
# encode_recio_mb_per_s key is the value scripts/check_bench_trend.sh
# gates on.
set -eu

OUT="${1:-BENCH_sweep.json}"
RECOUT="${2:-BENCH_recio.json}"
FHOUT="${3:-BENCH_firehose.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' \
  -bench 'BenchmarkFig2VulnerabilityTier1|BenchmarkFig5IncrementalDefenseDepth1|BenchmarkFig7DetectorConfigurations|BenchmarkSweepRunWorkers|BenchmarkMatrixShards|BenchmarkVulnerabilityReduction|BenchmarkScenarioKinds' \
  -benchmem -benchtime 1x . ./internal/sweep ./internal/experiments | tee "$RAW"

# Benchmark lines look like:
#   BenchmarkSweepRunWorkers/workers=4-8  1  12345 ns/op  678 B/op  9 allocs/op  [extra metrics]
#   BenchmarkVulnerabilityReduction/streaming-8  1  12345 ns/op  678 peakRSS-KB  9 B/op  1 allocs/op
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1
    workers = 0
    if (match(name, /workers=[0-9]+/)) {
        workers = substr(name, RSTART + 8, RLENGTH - 8) + 0
    }
    shards = 0
    if (match(name, /shards=[0-9]+/)) {
        shards = substr(name, RSTART + 7, RLENGTH - 7) + 0
    }
    ns = ""; bytes = ""; allocs = ""; rss = "0"
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
        if ($(i + 1) == "peakRSS-KB") rss = $i
    }
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "  {\"name\": \"%s\", \"workers\": %d, \"shards\": %d, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"peak_rss_kb\": %s}", \
        name, workers, shards, ns, (bytes == "" ? "0" : bytes), (allocs == "" ? "0" : allocs), rss
}
END { print "\n]" }
' "$RAW" > "$OUT"

echo "wrote $OUT"

# Shard-codec section: the same 20k-record shard through all three
# codecs. With SetBytes (disk size) the harness prints MB/s directly;
# disk-B is the codec's own bytes-on-disk metric. Sub-benchmark names
# are matched with their trailing -GOMAXPROCS suffix optional (the
# harness omits it on single-CPU machines), and the recio matcher is
# anchored so it cannot swallow recio-col's lines.
go test -run '^$' \
  -bench 'BenchmarkShardEncode|BenchmarkShardDecode|BenchmarkShardResumeReplay|BenchmarkShardSeekResume|BenchmarkShardColumnRead' \
  -benchtime 30x ./internal/sweep | tee "$RAW"

# Benchmark lines look like:
#   BenchmarkShardEncode/json-8   10  1234 ns/op  125.50 MB/s  1547082 disk-B
#   BenchmarkShardResumeReplay-8  10  5678 ns/op  40.20 MB/s
awk -v ncpu="$(nproc 2>/dev/null || echo 1)" '
BEGIN { print "{"; print "  \"benchmarks\": ["; first = 1 }
/^Benchmark/ {
    name = $1
    ns = ""; mbs = "0"; disk = "0"
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "MB/s") mbs = $i
        if ($(i + 1) == "disk-B") disk = $i
    }
    if ($NF == "disk-B") disk = $(NF - 1)
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"mb_per_s\": %s, \"disk_bytes\": %s}", \
        name, ns, mbs, disk
    if (name ~ /^BenchmarkShardEncode\/json(-[0-9]+)?$/)      json_disk = disk
    if (name ~ /^BenchmarkShardEncode\/recio(-[0-9]+)?$/)     { recio_disk = disk; recio_mbs = mbs }
    if (name ~ /^BenchmarkShardEncode\/recio-col(-[0-9]+)?$/) col_disk = disk
    if (name ~ /^BenchmarkShardDecode\/recio(-[0-9]+)?$/)     dec_mbs = mbs
    if (name ~ /^BenchmarkShardResumeReplay/)                 replay_ns = ns
    if (name ~ /^BenchmarkShardSeekResume/)                   seek_ns = ns
}
END {
    print "\n  ],"
    ratio = (recio_disk + 0 > 0) ? (json_disk + 0) / (recio_disk + 0) : 0
    printf "  \"gomaxprocs\": %d,\n", ncpu
    printf "  \"disk_bytes_json\": %s,\n", (json_disk == "" ? "0" : json_disk)
    printf "  \"disk_bytes_recio\": %s,\n", (recio_disk == "" ? "0" : recio_disk)
    printf "  \"disk_bytes_recio_col\": %s,\n", (col_disk == "" ? "0" : col_disk)
    printf "  \"compression_ratio\": %.2f,\n", ratio
    printf "  \"encode_recio_mb_per_s\": %s,\n", (recio_mbs == "" ? "0" : recio_mbs)
    printf "  \"decode_recio_mb_per_s\": %s,\n", (dec_mbs == "" ? "0" : dec_mbs)
    printf "  \"resume_replay_ns\": %s,\n", (replay_ns == "" ? "0" : replay_ns)
    printf "  \"resume_seek_ns\": %s\n", (seek_ns == "" ? "0" : seek_ns)
    print "}"
}
' "$RAW" > "$RECOUT"

echo "wrote $RECOUT"

# Firehose section: 20k synthetic updates over 8 probe sessions into a
# real TCP collector, end to end (dispatch, session writes, collector
# reads, route-server validation). The benchmark reports updates/s as
# its own metric.
go test -run '^$' \
  -bench 'BenchmarkReplayThroughput' \
  -benchmem -benchtime 20000x ./internal/firehose | tee "$RAW"

# Benchmark lines look like:
#   BenchmarkReplayThroughput  20000  5728 ns/op  174587 updates/s  867 B/op  20 allocs/op
awk -v ncpu="$(nproc 2>/dev/null || echo 1)" '
BEGIN { print "{"; print "  \"benchmarks\": ["; first = 1 }
/^Benchmark/ {
    name = $1
    ns = ""; ups = "0"; bytes = "0"; allocs = "0"
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "updates/s") ups = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if ($NF == "allocs/op") allocs = $(NF - 1)
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"ns_per_update\": %s, \"updates_per_s\": %s, \"bytes_per_update\": %s, \"allocs_per_update\": %s}", \
        name, ns, ups, bytes, allocs
    if (name ~ /^BenchmarkReplayThroughput/) total_ups = ups
}
END {
    print "\n  ],"
    printf "  \"gomaxprocs\": %d,\n", ncpu
    printf "  \"replay_updates_per_s\": %s\n", (total_ups == "" ? "0" : total_ups)
    print "}"
}
' "$RAW" > "$FHOUT"

echo "wrote $FHOUT"
