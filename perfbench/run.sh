#!/usr/bin/env bash
# Build the benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  The build log goes to stderr; the last
# line of stdout is the JSON result.  Without the repository's sources
# next to perfbench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/driver/main.exe 1>&2
exec ./_build/default/perfbench/driver/main.exe "$@"
