#!/bin/sh
# Smoke run of the two examples that write series artifacts (under a
# second together): fault_recovery with its built-in fault plan and a short
# scenario_run must both exit 0, and every JSON artifact they write must
# parse (python3 -m json.tool).
#
# Usage: series_examples_smoke.sh <fault_recovery binary> <scenario_run binary>
set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$1" --out="$dir/fault_run.json"
"$2" --points=3 --minute-ms=1500 --json-out="$dir/scenario"
python3 -m json.tool "$dir/fault_run.json" > /dev/null
count=0
for f in "$dir"/scenario.*.json; do
  python3 -m json.tool "$f" > /dev/null
  count=$((count + 1))
done
# One artifact per default policy (round-robin, energy-aware).
test "$count" -eq 2
