#!/bin/sh
# ctest driver for the bench-baseline regression gate.
#
# Runs the eight quick CI benches into a scratch directory, then exercises
# benchgate three ways against the checked-in BENCH_BASELINE.json:
#   1. clean pass  — counters must match the baseline exactly (wall advisory),
#   2. seeded drift — a perturbed spmv_calls counter must trip exit code 1,
#   3. --update round-trip — a freshly written baseline must accept the same
#      sidecars with the strict (non-advisory) wall check.
#
# usage: benchgate_test.sh <ablation_haydock> <ablation_chunking> <bench_serve> \
#                          <ablation_spmmv> <ablation_cluster> <bench_fleet> \
#                          <ablation_moment_pairs> <ablation_multigpu> \
#                          <benchgate> <baseline.json>
set -e
haydock=$1
chunking=$2
serve=$3
spmmv=$4
cluster=$5
fleet=$6
pairs=$7
multigpu=$8
benchgate=$9
baseline=${10}

scratch="$(pwd)/gate_scratch"
rm -rf "$scratch"
mkdir "$scratch"
cd "$scratch"

"$haydock" --edge=8 > /dev/null
"$chunking" --edge=6 --S=8 > /dev/null
"$serve" --edge=6 --requests=12 > /dev/null
"$spmmv" --edge=6 --N=64 --R=8 > /dev/null
"$cluster" --edge=4 --planes=2 --nodes-max=8 --N=32 --R=4 --S=2 > /dev/null
"$fleet" --edge=6 --requests=16 > /dev/null
"$pairs" --edge=6 --R=4 --S=8 --sample=4 > /dev/null
"$multigpu" --N=64 --R=4 --S=8 --sample=4 > /dev/null

"$benchgate" --baseline="$baseline" --wall-advisory results/*.metrics.json

sed -E 's/"spmv_calls": [0-9.e+]+/"spmv_calls": 1/' \
  results/ablation_haydock.csv.metrics.json > drifted.metrics.json
if "$benchgate" --baseline="$baseline" --wall-advisory drifted.metrics.json; then
  echo "benchgate_test: seeded counter drift was not detected" >&2
  exit 1
fi

"$benchgate" --baseline=fresh.json --update results/*.metrics.json
"$benchgate" --baseline=fresh.json results/*.metrics.json
