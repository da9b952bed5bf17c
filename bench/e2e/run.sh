#!/usr/bin/env bash
# Build the server and the benchmark from source, then run the benchmark
# from the repository root.  All arguments go to paradb_bench.exe, e.g.
#
#   bash bench/e2e/run.sh --workload warm-serve --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; stdout is the benchmark's alone, ending
# with its one-line JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . ./bench/e2e/paradb_bench.exe ./bin/paradb.exe 1>&2
exec ./_build/default/bench/e2e/paradb_bench.exe \
  --paradb ./_build/default/bin/paradb.exe "$@"
