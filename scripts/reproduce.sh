#!/bin/sh
# Reproduce every figure and table of the paper at a chosen scale.
# Usage: scripts/reproduce.sh [scale] [outdir]
# Paper scale is 42697 (minutes on one core); default 10000.
set -eu

SCALE="${1:-10000}"
OUT="${2:-reproduction}"
mkdir -p "$OUT"
echo "reproducing at scale $SCALE into $OUT/ ..."

go run ./cmd/topogen     -scale "$SCALE" -stats -o "$OUT/topology.txt"      2> "$OUT/topology-stats.txt"
go run ./cmd/polarviz    -scale "$SCALE" -out "$OUT/fig1-frames"            >  "$OUT/fig1.txt"
go run ./cmd/vulnscan    -scale "$SCALE" -sample 2000 -svg "$OUT/fig2.svg"  >  "$OUT/fig2.txt"
go run ./cmd/vulnscan    -scale "$SCALE" -sample 2000 -hierarchy tier2 \
                         -svg "$OUT/fig3.svg"                               >  "$OUT/fig3.txt"
go run ./cmd/vulnscan    -scale "$SCALE" -sample 2000 -stubfilter           >  "$OUT/fig4.txt"
go run ./cmd/deployscan  -scale "$SCALE" -sample 600 -subprefix -sbgp \
                         -svg "$OUT/fig"                              >  "$OUT/fig5-6-tables.txt"
go run ./cmd/detectscan  -scale "$SCALE" -attacks 8000 -falsealarms \
                         -svg "$OUT/fig7"                             >  "$OUT/fig7-tables.txt"
go run ./cmd/selfdefense -scale "$SCALE" -outside 200 -mitigate             >  "$OUT/section7.txt"
go run ./cmd/ribcheck    -scale "$SCALE" -origins 10                        >  "$OUT/validation.txt"
go run ./cmd/holescan    -scale "$SCALE" -attacks 3000                      >  "$OUT/holes.txt"
go run ./cmd/mrtdump     -scale "$SCALE" -o "$OUT/view.mrt"                 >  "$OUT/mrt.txt"
go run ./cmd/hijackmon   -demo -scale "$SCALE" -listen 127.0.0.1:0          >  "$OUT/live-detection.txt"

echo "done; compare against EXPERIMENTS.md"
