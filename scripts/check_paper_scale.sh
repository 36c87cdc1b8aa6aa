#!/bin/sh
# Compare a paper-scale reproduction run (scripts/reproduce.sh 42697,
# i.e. `make reproduce-paper-scale`) against the headline metrics
# recorded in EXPERIMENTS.md, "Paper-scale runs (42,697 ASes)".
# Deterministic seeds make these exact: any mismatch is a behavior
# change, not noise — update EXPERIMENTS.md and this script together.
# Usage: scripts/check_paper_scale.sh [outdir]   (default reproduction-full)
set -u

OUT="${1:-reproduction-full}"
fail=0

expect() { # expect <file> <extended-regex> <label>
	if [ ! -f "$OUT/$1" ]; then
		echo "MISSING: $OUT/$1 ($3)"
		fail=1
	elif grep -Eq "$2" "$OUT/$1"; then
		echo "ok: $3"
	else
		echo "MISMATCH: $3 — wanted /$2/ in $OUT/$1"
		fail=1
	fi
}

# Substrate: the generated full-scale world and its audit.
expect topology-stats.txt 'ASes=42697 .*tier1=17 ' "topology: 42,697 ASes, 17 tier-1s"
expect topology-stats.txt 'clean=true' "topology audit clean"

# Figure 1: aggressive attack propagation.
expect fig1.txt '39796 ASes polluted, 92% of address space lost, 12 generations' \
	"figure 1: 39,796 polluted, 92% address space, 12 generations"

# Figure 2: tier-1 hierarchy CCDFs (depth-5 target nearly saturates).
expect fig2.txt 'depth-5 stub \(very vulnerable\) +5 +2000 +40094\.8' \
	"figure 2: depth-5 target mean pollution 40,094.8"

# Figure 7: detector-configuration miss rates over 8000 attacks.
expect fig7-tables.txt '17 tier-1 probes +17 +927 +11\.6% +6692 +31242' \
	"figure 7: tier-1 probes miss 11.6%, max 31,242"
expect fig7-tables.txt '24 BGPmon-like probes +24 +421 +5\.3% +1820 +9042' \
	"figure 7: BGPmon-like probes miss 5.3%"
expect fig7-tables.txt 'top 61 degree probes +61 +106 +1\.3% +132 +942' \
	"figure 7: degree-core probes miss 1.3%"

# Figures 5/6: the deployment-ladder knee and the threat-model tables.
expect fig5-6-tables.txt 'top 61 ASes by degree +1665\.1 ' \
	"figure 6: 61-core rung mean pollution 1,665.1 (600 attacks)"
expect fig5-6-tables.txt 'deployer-turned-attacker' \
	"residual attacks under 298 filters flagged deployer-turned-attacker"

# S*BGP route-selection ranks (Lychev ordering).
expect fig5-6-tables.txt 'security off +40022\.7' "s*bgp: security off 40,022.7"
expect fig5-6-tables.txt 'security 1st +11396\.0' "s*bgp: security 1st 11,396.0"

# Section VII: re-homing, hub filter, reactive mitigation.
expect section7.txt 'after re-homing +inside attacks: mean 32\.5 region ASes \(17%\) +outside: mean 2\.0 \(1%\)' \
	"section VII: re-homing 74%→17% inside, 18%→1% outside"
expect section7.txt 'with hub filter +inside attacks: mean 34\.9 region ASes \(19%\)' \
	"section VII: hub filter 74%→19% inside"
expect section7.txt 'recovered 42679 +stranded 0' "mitigation: permissive ROA recovers 42,679"
expect section7.txt 'stranded 42651' "mitigation: conservative MaxLength strands 42,651"

# RIB validation over 10 origins × 42,680 routes.
expect validation.txt 'overall: exact=194567 topo-equivalent=218032 mismatch=14201 missing=0 match-rate=96\.7%' \
	"validation: 96.7% exact-or-equivalent over 426,800 routes"

# Hole analysis: the strongest surviving non-deployer attack.
expect holes.txt '531 succeed \(pollution ≥ 426\) despite filters; 531 of those escape detection' \
	"holes: 531 of 3000 attacks beat filters and probes"
expect holes.txt 'AS137971 +AS114132 +9044 +0 ' "holes: worst hole pollutes 9,044 from depth 0"

# Exercise the compressed shard path at full topology scale: solve one
# eighth of a study's cell space into a recio shard, then rerun the
# identical command with -resume — a complete shard must resume to a
# no-op, proving the on-disk file recovers and matches the rebuilt
# workload (digest and all) at 42,697 ASes. Figure 2 runs the two-column
# hijack records; Figure 7 runs detection records, one column per probe
# set, over its 8,000-attack workload.
SHARDS="$OUT/recio-shards"
mkdir -p "$SHARDS"
shard_and_resume() { # shard_and_resume <tool> <shard file> <tool args...>
	tool="$1" file="$SHARDS/$2"
	shift 2
	if go run "./cmd/$tool" -scale 42697 "$@" -shard 0/8 -shard-dir "$SHARDS" -format recio \
		&& go run "./cmd/$tool" -scale 42697 "$@" -shard 0/8 -shard-dir "$SHARDS" -format recio -resume 2>&1 \
			| grep -q "records resumed via" \
		&& [ -s "$file" ]; then
		echo "ok: $tool recio shard written and resumed at paper scale ($(wc -c < "$file") bytes)"
	else
		echo "FAILED: $tool recio-format paper-scale shard run"
		fail=1
	fi
}
shard_and_resume vulnscan fig2.0of8.rec -sample 2000
shard_and_resume detectscan fig7.0of8.rec -attacks 8000

if [ "$fail" -ne 0 ]; then
	echo "paper-scale check FAILED: metrics drifted from EXPERIMENTS.md"
	exit 1
fi
echo "paper-scale check passed: all headline metrics match EXPERIMENTS.md"
