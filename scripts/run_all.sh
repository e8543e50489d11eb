#!/bin/sh
# Verification driver. Run from the repository root.
#
#   scripts/run_all.sh          build + tier1 tests (the fast default gate)
#   scripts/run_all.sh --full   build + every test tier (tier1/slow/chaos/
#                               repro) + regenerate every table/figure
#
# Test tiers are ctest labels (see tests/CMakeLists.txt):
#   tier1  fast unit/integration coverage
#   slow   exhaustive equivalence sweeps + the full pipeline
#   chaos  randomized property / fault-injection abuse
#   repro  bench/repro end to end at a tiny budget
# bench/repro prints every table and figure in one run, training each setup
# once (trained setups are cached under bench_artifacts/).
set -e
cmake -B build -G Ninja
cmake --build build

if [ "$1" = "--full" ]; then
  ctest --test-dir build 2>&1 | tee test_output.txt
  ./build/bench/repro 2>&1 | tee bench_output.txt
  for b in build/bench/micro_knn build/bench/micro_sim build/bench/micro_nn; do
    echo "==== $b ====" | tee -a bench_output.txt
    "$b" 2>&1 | tee -a bench_output.txt
  done
else
  ctest --test-dir build -L tier1 2>&1 | tee test_output.txt
  echo "tier1 passed; run 'scripts/run_all.sh --full' for slow/chaos/repro" \
       "tests and the figures"
fi
