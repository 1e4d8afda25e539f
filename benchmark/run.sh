#!/usr/bin/env bash
# Builds ptc_benchmark (Release) from this checkout, then runs it from the
# checkout root with the given arguments.  Build output goes to stderr, so
# the benchmark's last stdout line is its JSON result.
#
#   bash benchmark/run.sh --workload mlp_serving --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh                        # all workloads + --check
#   bash benchmark/run.sh --compare A.json B.json
#
# The build directory is $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi

cmake -S "$root/benchmark" -B "$build" >&2
cmake --build "$build" --target ptc_benchmark -j "$jobs" >&2

cd "$root"
exec "$build/ptc_benchmark" "$@"
