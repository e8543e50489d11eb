#!/bin/sh
# Smoke run of the online_learning example at a tiny budget (about a second):
# it must exit 0 and print finite mean rewards. Rewards are negative
# latencies in ms, so each mean prints as a short negative number; a read
# past the end of the reward series shows up as garbage here.
#
# Usage: online_learning_smoke.sh <path to the online_learning binary>
set -e
out=$("$1" --samples=16 --epochs=1 --pretrain=8)
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -Eq \
  'mean reward \(first 1 epochs\) -[0-9]{1,6}\.[0-9]{3} -> \(last 1\) -[0-9]{1,6}\.[0-9]{3}$'
