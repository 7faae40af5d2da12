#!/usr/bin/env bash
# Kick the tires: a release build, the experiment smoke (Fig. 2 and
# Table 2 on the small corpus), a serving smoke (`dasp-serve` at 1 and
# 16 closed-loop clients; it exits non-zero on any reply that is not
# bit-identical to a direct SpMV, or on any failed request) and the
# exact modeled gate (a fresh `dasp-bench record` must diff clean
# against the trajectory head, the highest-numbered committed
# BENCH_<seq>.json). Stops with a non-zero exit at the first failure.
#
#   scripts/kick-tires.sh
#
# Runs from the repo root whatever the caller's directory. Leaves the
# figure CSVs in results/ and, at the root, the record (BENCH_ci.json),
# the verdict (diff.json), its folded stacks (bench_ci.folded) and its
# Chrome trace (bench_ci_trace.json).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release)"
# `--workspace`: a plain release build skips the dasp-cli binaries.
cargo build --release --workspace

echo "== experiment smoke: fig2 table2 (small corpus)"
DASP_CORPUS_SEEDS=1 ./target/release/dasp-experiments fig2 table2

echo "== serving smoke: dasp-serve at 1 and 16 clients"
./target/release/dasp-serve --clients 1 --requests 16
./target/release/dasp-serve --clients 16 --requests 32

head=$(ls BENCH_[0-9]*.json | sort | tail -n 1)
echo "== golden file: fresh record vs $head (exact)"
./target/release/dasp-bench record --out BENCH_ci.json \
    --flamegraph bench_ci.folded --trace bench_ci_trace.json
./target/release/dasp-bench diff "$head" BENCH_ci.json --json diff.json

echo "kick-tires: OK"
