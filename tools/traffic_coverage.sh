#!/usr/bin/env bash
# Lists every src/ function that the repository's own traffic never runs.
#
# Builds the library, benches, examples and console in Debug with --coverage
# and tests off, and ptc_benchmark (benchmark/) with the same flags.  Then
# runs the set CI's sanitize leg runs -- bench_fig*, bench_ablation_*,
# bench_perf_analysis, bench_table1_comparison, bench_scaling_cores,
# bench_serving_*, example_* and the console demo script -- then, as CI's
# Release job does, bench_serving_batched and bench_serving_policies again
# with PTC_TRACE set (each writes and lints a Chrome trace) and
# bench_bench_compare over the five deterministic BENCH_*.json pairs, plus
# `ptc_benchmark --workload W --seconds 1 --trace 1` for each of the four
# workloads.  bench_perf_matmul (and so BENCH_perf.json) stays out, as in
# the sanitize leg: it takes about 150 s at -O0.  Finally merges gcov's JSON
# over both builds and prints every src/ function that executed zero
# times, and their count.
#
#   bash tools/traffic_coverage.sh
#
# Everything is written under build-traffic/.  Needs gcov with
# --json-format (GCC 9 or later) and python3.  Inline and template
# functions that no translation unit instantiates are not compiled, so gcov
# cannot list them.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/build-traffic"
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi

# benchmark/ forces a Release build; its Release flags get Debug's "-g".
cmake -S "$root" -B "$out/main" -DCMAKE_BUILD_TYPE=Debug \
  -DPTC_BUILD_TESTS=OFF -DCMAKE_CXX_FLAGS=--coverage \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage >&2
cmake --build "$out/main" -j "$jobs" >&2
cmake -S "$root/benchmark" -B "$out/benchmark" -DCMAKE_CXX_FLAGS=--coverage \
  -DCMAKE_CXX_FLAGS_RELEASE=-g -DCMAKE_EXE_LINKER_FLAGS=--coverage >&2
cmake --build "$out/benchmark" --target ptc_benchmark -j "$jobs" >&2

# Counts accumulate across runs: start every measurement from zero.
find "$out" -name '*.gcda' -delete

cd "$out/main"
for bin in ./bench_fig* ./bench_ablation_* ./bench_perf_analysis \
           ./bench_table1_comparison ./bench_scaling_cores \
           ./bench_serving_* ./example_*; do
  echo "== ${bin#./}" >&2
  "$bin" > /dev/null
done
echo "== ptc_console" >&2
./ptc_console --script "$root/tools/console_demo.scpi" > /dev/null
for bin in ./bench_serving_batched ./bench_serving_policies; do
  echo "== PTC_TRACE=serving_trace.json ${bin#./}" >&2
  PTC_TRACE=serving_trace.json "$bin" > /dev/null
done
# The serving benches above wrote fresh artifacts into this directory.
echo "== bench_bench_compare" >&2
compare=()
for name in drift serving health faults transformer; do
  compare+=("$root/BENCH_$name.json" "BENCH_$name.json")
done
./bench_bench_compare "${compare[@]}" > /dev/null
# From the checkout root, as benchmark/run.sh runs it: the workloads
# cross-check the committed BENCH_*.json baselines.
cd "$root"
for workload in matmul_kernel mlp_serving token_decode drift_serving; do
  echo "== ptc_benchmark --workload $workload" >&2
  "$out/benchmark/ptc_benchmark" --workload "$workload" --seconds 1 \
    --trace 1 > /dev/null
done

python3 - "$root" "$out" <<'EOF'
import json, os, subprocess, sys

root, out = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
counts = {}  # (file, line, name) -> executions, summed over both builds
for dirpath, _, names in os.walk(out):
    for name in names:
        if not name.endswith(".gcno"):
            continue
        # A missing .gcda (a unit no run linked) counts as zero.
        gcov = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names",
             "-o", dirpath, os.path.join(dirpath, name)],
            capture_output=True, text=True, cwd=dirpath, check=True)
        for doc in gcov.stdout.splitlines():
            report = json.loads(doc)
            for f in report["files"]:
                path = os.path.normpath(
                    os.path.join(report["current_working_directory"],
                                 f["file"]))
                if not path.startswith(src):
                    continue
                for fn in f["functions"]:
                    key = (os.path.relpath(path, root), fn["start_line"],
                           fn["demangled_name"])
                    counts[key] = counts.get(key, 0) + fn["execution_count"]

never = sorted(key for key, n in counts.items() if n == 0)
for path, line, name in never:
    print(f"{path}:{line}  {name}")
print(f"{len(never)} src/ functions executed zero times "
      f"(of {len(counts)} instrumented)")
EOF
