#!/bin/sh
# Lifecycle smoke test for cmd/hijackd: start the daemon on a fixture
# world and an ephemeral port, poll /healthz until it serves, push one
# query through every endpoint, reload and assert the epoch
# bumped, then SIGTERM with a query in flight and assert the daemon
# answers it before printing its drain line and exiting 0. The
# deterministic drain/shed proofs live in internal/queryd's tests —
# this script checks the wiring between them and the real process:
# flags, signal handlers, listener lifecycle, stderr contract.
# Usage: scripts/check_hijackd_smoke.sh
set -eu

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/hijackd" ./cmd/hijackd

"$WORK/hijackd" -scale 400 -seed 7 -workers 2 -listen 127.0.0.1:0 \
    2> "$WORK/stderr.log" &
PID=$!

# The daemon prints its resolved address once the listener is up.
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^hijackd: listening on http://##p' "$WORK/stderr.log" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { cat "$WORK/stderr.log" >&2; echo "FAIL: hijackd died before listening" >&2; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: no listening line after 10s" >&2; exit 1; }

req() { # req METHOD PATH [BODY] -> body on stdout, fails on non-2xx
    method="$1"; path="$2"; body="${3:-}"
    if [ -n "$body" ]; then
        curl -fsS -X "$method" -d "$body" "http://$ADDR$path"
    else
        curl -fsS -X "$method" "http://$ADDR$path"
    fi
}

H="$(req GET /healthz)"
printf '%s\n' "$H" | grep -q '"epoch": *1' || { echo "FAIL: /healthz epoch != 1: $H" >&2; exit 1; }

A="$(req POST /v1/attack '{"target": 133, "attacker": 7, "exact": true}')"
printf '%s\n' "$A" | grep -q '"path": *"full"' || { echo "FAIL: exact attack answer: $A" >&2; exit 1; }

E="$(req POST /v1/attack '{"target": 133, "attacker": 7}')"
printf '%s\n' "$E" | grep -q '"path": *"estimate"' || { echo "FAIL: estimate answer: $E" >&2; exit 1; }

V="$(req POST /v1/vulnerability '{"target": 133, "attackers": [5, 7, 200]}')"
printf '%s\n' "$V" | grep -q '"pollution"' || { echo "FAIL: vulnerability answer: $V" >&2; exit 1; }

D="$(req POST /v1/deployment '{"target": 133, "strategies": [{"tier1": true}, {"top_degree": 10}]}')"
printf '%s\n' "$D" | grep -q '"deployed"' || { echo "FAIL: deployment answer: $D" >&2; exit 1; }

T="$(req POST /v1/detection '{"probes": [{"name": "pair", "probes": [3, 50]}], "attacks": [{"attacker": 7, "target": 133}]}')"
printf '%s\n' "$T" | grep -q '"total_attacks": *1' || { echo "FAIL: detection answer: $T" >&2; exit 1; }

req GET /metrics | grep -q '"solves"' || { echo "FAIL: /metrics shape" >&2; exit 1; }

R="$(req POST /reload)"
printf '%s\n' "$R" | grep -q '"epoch": *2' || { echo "FAIL: reload did not bump epoch: $R" >&2; exit 1; }
H2="$(req GET /healthz)"
printf '%s\n' "$H2" | grep -q '"epoch": *2' || { echo "FAIL: /healthz stale after reload: $H2" >&2; exit 1; }

# Drain: fire a wide sub-prefix sweep, give it a head start, then
# SIGTERM. The daemon must answer the in-flight query, print its
# drain line, and exit 0. Indices stay below 100: sibling contraction
# makes the world smaller than -scale.
ATTACKERS="$(awk 'BEGIN { printf "[" ; for (i = 0; i < 100; i++) printf "%s%d", (i ? "," : ""), i; printf "]" }')"
curl -fsS -d "{\"target\": 133, \"attackers\": $ATTACKERS, \"sub_prefix\": true}" \
    "http://$ADDR/v1/vulnerability" > "$WORK/inflight.json" &
CURL=$!
sleep 0.2
kill -TERM "$PID"
if ! wait "$CURL"; then
    echo "FAIL: in-flight query failed across SIGTERM" >&2; exit 1
fi
grep -q '"pollution"' "$WORK/inflight.json" || { echo "FAIL: in-flight answer truncated" >&2; exit 1; }
if ! wait "$PID"; then
    echo "FAIL: hijackd exited non-zero on SIGTERM" >&2; cat "$WORK/stderr.log" >&2; exit 1
fi
PID=""
grep -q '^hijackd: drained, exiting$' "$WORK/stderr.log" || { echo "FAIL: no drain line" >&2; cat "$WORK/stderr.log" >&2; exit 1; }

echo "OK: hijackd served every endpoint, reloaded to epoch 2, and drained cleanly on SIGTERM"
