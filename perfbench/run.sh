#!/bin/sh
# Build the benchmark from source, then run one workload:
#   sh perfbench/run.sh --workload kv-ramp --seed 1 --seconds 20 --trace 0
# Run from the root of a repository checkout.  Build output goes to
# stderr; the last line of stdout is the JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib/smr ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build local.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
