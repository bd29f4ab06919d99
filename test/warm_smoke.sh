#!/usr/bin/env bash
# Warm-regeneration smoke: runs the figure harness twice over the same
# fresh run-cache and trace-store directories, a cold pass that
# simulates everything and a warm pass that the cache answers in full,
# and fails unless both print the same tables. Only the two wall-time
# lines may differ.
#   bash test/warm_smoke.sh path/to/bench/main.exe
set -euo pipefail
bench=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
pass() {
  if ! PF_BENCH_WINDOW=2000 "$bench" --jobs 2 \
      --cache "$dir/cache" --trace-store "$dir/tstore" \
      >"$dir/$1.raw" 2>"$dir/$1.err"; then
    echo "warm smoke: the $1 pass failed:" >&2
    cat "$dir/$1.err" >&2
    exit 1
  fi
  grep -v -e '^Sweep done in ' -e '^Total bench time: ' "$dir/$1.raw" \
    >"$dir/$1.out"
}
pass cold
pass warm
diff "$dir/cold.out" "$dir/warm.out"
