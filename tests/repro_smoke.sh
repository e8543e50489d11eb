#!/bin/sh
# Smoke run of bench/repro at a tiny budget (under a minute): the summary,
# the Fig. 7 reward curves and the K ablation, into a fresh artifact cache.
# It must exit 0, Storm's default schedule must be slower than the
# model-based one on all five summary rows (the paper's ordering, which
# holds here and at the full budget), and the Fig. 7 CSV block must be
# present.
# Orderings that involve the DQN or actor-critic methods are not asserted:
# at this budget the learners are barely trained, and at the full budget
# actor-critic still trails model-based on four of five setups
# (EXPERIMENTS.md, "Headline numbers").
#
# Usage: repro_smoke.sh <path to the repro binary>
set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$1" --figures=summary,fig7,ablation_knn_k --samples=12 --epochs=3 \
  --pretrain=8 --cache_dir="$dir/cache" > "$dir/out.txt"
cat "$dir/out.txt"
# The summary rows: a label, then Default, Model-based, DQN, Actor-critic.
awk '/^# Summary/ { on = 1; next }
     on && /^experiment/ { next }
     on && NF == 0 { exit }
     on { print }' "$dir/out.txt" > "$dir/rows.txt"
test "$(wc -l < "$dir/rows.txt")" -eq 5
awk '{ if (!($(NF - 3) > $(NF - 2))) {
         print "Default is not slower than Model-based: " $0; bad = 1 } }
     END { exit bad }' "$dir/rows.txt"
grep -qx 'epoch,Actor-critic-based DRL,DQN-based DRL' "$dir/out.txt"
