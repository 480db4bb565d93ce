#!/usr/bin/env bash
# Build cascabeld and the benchmark from this checkout, then run the
# benchmark with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 12 --trace 0
#
# Everything it writes stays inside the checkout: _build/ and
# .perfbench/ (sockets, journals, native build artifacts, temp files).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp"
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/cascabeld.exe perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
