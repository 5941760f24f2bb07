#!/usr/bin/env bash
# Build fsync_perf from the sources of this checkout, then run one
# workload of the benchmark (BENCHMARK.json):
#
#   bash bench/perf/run.sh --workload W --seed N --seconds T --trace 0|1
#
# Run it from the root of the checkout.  Build output goes to stderr;
# the last line on stdout is the JSON result.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "run.sh: not the root of an fsync checkout: $(pwd)" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . bench/perf/fsync_perf.exe 1>&2
exec ./_build/default/bench/perf/fsync_perf.exe bench "$@"
