#!/bin/sh
# Every example (and bench/repro) answers --help with exit status 0 and a
# "usage:" line.
#
# Usage: examples_help_smoke.sh <binary>...
set -e
for binary in "$@"; do
  if ! out=$("$binary" --help 2>&1); then
    printf '%s --help failed:\n%s\n' "$binary" "$out"
    exit 1
  fi
  if ! printf '%s\n' "$out" | grep -q '^usage:'; then
    printf '%s --help printed no usage: line:\n%s\n' "$binary" "$out"
    exit 1
  fi
done
