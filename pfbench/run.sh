#!/usr/bin/env bash
# Builds pfbench and the daemon it drives from the checkout's sources,
# then runs it with the given arguments from the repository root:
#   bash pfbench/run.sh --workload figure-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "pfbench: $(pwd) is not a polyflow source tree (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# build output goes to stderr: the last stdout line is the result
dune build --root . pfbench/pfbench.exe bin/polyflow_serve.exe 1>&2
exec ./_build/default/pfbench/pfbench.exe "$@"
