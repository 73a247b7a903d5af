#!/usr/bin/env bash
# Build the benchmark from source (with the snet_worker and snet_serve
# binaries it drives) and run it with the given arguments. Run it from
# the repository root, e.g.
#   bash bench/e2e/run.sh --workload fig2-solve --seed 1
# The build stays inside the checkout: no shared dune cache.
set -euo pipefail
exec dune exec --root . --display quiet --cache disabled \
  bench/e2e/snet_bench.exe -- "$@"
