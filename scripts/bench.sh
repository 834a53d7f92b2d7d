#!/bin/sh
# Appends one wall-clock sample per hero storm to the tracked trajectory
# files BENCH_netsplit.json, BENCH_regionfail.json, BENCH_catalog.json and
# BENCH_breach.json, then validates each file. This is the only script
# that writes those files (scripts/check.sh writes its bench records to a
# temporary directory). Run from anywhere:  ./scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."

for storm in netsplit regionfail catalog breach; do
    echo "== BENCH_$storm.json"
    go run ./cmd/lupine-bench -run "$storm" -bench-out="BENCH_$storm.json"
    go run ./scripts/jsoncheck.go "BENCH_$storm.json"
done
echo "== appended one sample to each BENCH_*.json trajectory"
