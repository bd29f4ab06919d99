#!/usr/bin/env bash
# Warm-regeneration smoke: runs the figure harness twice over the same
# fresh run-cache and trace-store directories, a cold pass that
# simulates everything and a warm pass that the cache answers in full,
# and fails unless both print the same tables and the warm pass's
# report document says it simulated nothing. Only the two wall-time
# lines may differ. Then `polyflow_sim report` renders the warm pass's
# document, and its tables must be the bench's document sections (from
# Figure 9 up to the limit study), byte for byte.
#   bash test/warm_smoke.sh path/to/bench/main.exe path/to/polyflow_sim.exe
set -euo pipefail
bench=$1
sim=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
# both passes write the same document path, so their stdouts name the
# same file; the warm pass's document is the one left to check
pass() {
  if ! PF_BENCH_WINDOW=2000 "$bench" --jobs 2 \
      --cache "$dir/cache" --trace-store "$dir/tstore" \
      --json "$dir/sweep.json" \
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
# identical tables alone would also pass if every cache entry were
# rejected and resimulated
if ! grep -Eq '"simulated_runs": 0([^0-9]|$)' "$dir/sweep.json"; then
  echo "warm smoke: the warm pass did not replay every run from the cache:" >&2
  grep '"simulated_runs"' "$dir/sweep.json" >&2 || true
  exit 1
fi
# The document sections: in the bench's stdout from the blank line above
# Figure 9's banner to the line above the limit study's (a blank line
# and a banner line), in the report's from below its two header lines
# to the line above the blank line that opens the average table.
line() { grep -n -m1 "$1" "$2" | cut -d: -f1; }
"$sim" report "$dir/sweep.json" >"$dir/report.out"
f9=$(line '^Figure 9: ' "$dir/warm.out")
ls=$(line '^Limit study ' "$dir/warm.out")
al=$(line '^All labels, ' "$dir/report.out")
if [ -z "$f9" ] || [ -z "$ls" ] || [ -z "$al" ]; then
  echo "warm smoke: a section the comparison starts or ends at is missing" >&2
  exit 1
fi
sed -n "$((f9 - 2)),$((ls - 3))p" "$dir/warm.out" >"$dir/bench.sections"
sed -n "3,$((al - 2))p" "$dir/report.out" >"$dir/report.sections"
if ! diff "$dir/bench.sections" "$dir/report.sections"; then
  echo "warm smoke: polyflow_sim report differs from the bench's tables" >&2
  exit 1
fi
