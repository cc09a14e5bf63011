#!/usr/bin/env bash
# Build the serve-path benchmark from source and run it. Run from the
# root of a checkout:
#
#   bash servebench/run.sh --workload commit_small --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh smoke
#
# Everything it writes stays inside the checkout: the build in _build/
# (dune's shared cache is switched off), run directories under
# .servebench-tmp/ (removed at exit), span tables under .servebench-out/.
# With taskset and at least two CPUs, the load generator runs on CPU 0 and
# the server (and follower) on CPU 1.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib/penguin ]; then
  echo "servebench: no penguin sources here (dune-project and lib/penguin are missing)" >&2
  exit 2
fi
if ! DUNE_CACHE=disabled dune build --root . --display quiet ./servebench/servebench.exe >&2; then
  echo "servebench: build failed" >&2
  exit 2
fi
exe=./_build/default/servebench/servebench.exe
if command -v taskset >/dev/null 2>&1 && [ "$(nproc)" -ge 2 ] &&
  taskset -c 0 true 2>/dev/null && taskset -c 1 true 2>/dev/null; then
  export SERVEBENCH_CHILD_CPU=1
  exec taskset -c 0 "$exe" "$@"
fi
exec "$exe" "$@"
