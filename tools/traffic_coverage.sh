#!/usr/bin/env bash
# Lists every src/ function that the repository's own traffic never runs,
# or, with --check, holds that list to tools/traffic_allowlist.txt.
#
# Builds the library, benches, examples and console in Debug with --coverage
# and tests off, and ptc_benchmark (benchmark/) with the same flags; Google
# Benchmark is never looked for, so bench_micro_benchmarks is not built and
# the instrumented set is the same on every machine.  Then runs the set CI's
# sanitize leg runs -- bench_fig*, bench_ablation_*, bench_perf_analysis,
# bench_table1_comparison, bench_scaling_cores, bench_serving_*, example_*
# and the console demo script -- then, as CI's Release job does,
# bench_serving_batched, bench_serving_policies, example_cnn_digits,
# example_multi_tenant and bench_scaling_cores again with PTC_TRACE set
# (each writes a Chrome trace, which the writer lints first) and
# bench_bench_compare over the five deterministic BENCH_*.json pairs, plus
# `ptc_benchmark --workload W --seconds 1 --trace 1` for each of the four
# workloads.  bench_perf_matmul (and so BENCH_perf.json and its trace)
# stays out, as in the sanitize leg: it takes about 150 s at -O0.  Finally
# merges gcov's JSON over both builds and prints every src/ function that
# executed zero times, and their count.
#
#   bash tools/traffic_coverage.sh           # print the never-run list
#   bash tools/traffic_coverage.sh --check   # exit 1 unless it matches
#
# --check compares the never-run list with tools/traffic_allowlist.txt,
# whose lines read `<file> <reason> <demangled name>`.  Entries match on
# file and name, with [abi:...] tags stripped, never on line numbers.  It
# fails on a never-run function the list lacks, on a listed function that
# now runs or is no longer compiled, and on a malformed line, a duplicate
# or a reason other than the codes below (the list's header says what each
# one means): reference, input, operator, build, roadmap, api and
# test-tool.  None of them covers a function that only its own tests
# reach; such a function is deleted with those tests.
#
# Everything is written under build-traffic/, the never-run list also to
# build-traffic/never_run.txt in either mode.  Needs gcov with
# --json-format (GCC 9 or later) and python3.  Inline and template
# functions that no translation unit instantiates are not compiled, so gcov
# cannot list them.
set -euo pipefail

mode=list
case "${1:-}" in
  "") ;;
  --check) mode=check ;;
  *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/build-traffic"
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi

# benchmark/ forces a Release build; its Release flags get Debug's "-g".
cmake -S "$root" -B "$out/main" -DCMAKE_BUILD_TYPE=Debug \
  -DPTC_BUILD_TESTS=OFF -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=TRUE \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >&2
cmake --build "$out/main" -j "$jobs" >&2
cmake -S "$root/benchmark" -B "$out/benchmark" \
  -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=TRUE -DCMAKE_CXX_FLAGS=--coverage \
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
for bin in ./bench_serving_batched ./bench_serving_policies \
           ./example_cnn_digits ./example_multi_tenant ./bench_scaling_cores; do
  echo "== PTC_TRACE=trace.json ${bin#./}" >&2
  PTC_TRACE=trace.json "$bin" > /dev/null
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

python3 - "$root" "$out" "$mode" <<'EOF'
import json, os, re, subprocess, sys

root, out, mode = sys.argv[1:]
src = os.path.join(root, "src") + os.sep
abi = re.compile(r"\[abi:[^\]]*\]")
counts = {}  # (file, name) -> executions, summed over both builds
lines = {}   # (file, name) -> first line, for the report only
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
                # A deleted source leaves its stale .gcno in a reused
                # build directory: only files that still exist count.
                if not path.startswith(src) or not os.path.exists(path):
                    continue
                for fn in f["functions"]:
                    key = (os.path.relpath(path, root),
                           abi.sub("", fn["demangled_name"]))
                    counts[key] = counts.get(key, 0) + fn["execution_count"]
                    lines.setdefault(key, fn["start_line"])

never = sorted(key for key, n in counts.items() if n == 0)
summary = (f"{len(never)} src/ functions executed zero times "
           f"(of {len(counts)} instrumented)")
listing = "".join(f"{path}:{lines[(path, name)]}  {name}\n"
                  for path, name in never) + summary + "\n"
with open(os.path.join(out, "never_run.txt"), "w") as never_run:
    never_run.write(listing)
if mode == "list":
    sys.stdout.write(listing)
    sys.exit(0)

codes = {"reference", "input", "operator", "build", "roadmap", "api",
         "test-tool"}
listed = {}  # (file, name) -> reason
problems = []
with open(os.path.join(root, "tools", "traffic_allowlist.txt")) as allowlist:
    for number, line in enumerate(allowlist, 1):
        line = line.rstrip("\n")
        where = f"traffic_allowlist.txt:{number}"
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        if len(fields) < 3:
            problems.append(f"{where}: want `<file> <reason> <name>`")
            continue
        path, reason, name = fields
        key = (path, abi.sub("", name))
        if reason not in codes:
            problems.append(f"{where}: unknown reason code {reason!r}")
        if key in listed:
            problems.append(f"{where}: {path} {name} is listed twice")
        listed[key] = reason

for path, name in never:
    if (path, name) not in listed:
        problems.append(f"never run and not in the allowlist: "
                        f"{path}:{lines[(path, name)]}  {name}")
for (path, name), reason in sorted(listed.items()):
    if (path, name) not in counts:
        problems.append(f"listed ({reason}) but no longer compiled: "
                        f"{path}  {name}")
    elif counts[(path, name)] > 0:
        problems.append(f"listed ({reason}) but now runs: "
                        f"{path}:{lines[(path, name)]}  {name}")

for problem in problems:
    print(problem)
print(f"{summary}, {len(listed)} allowlisted: "
      + ("FAIL" if problems else "ok"))
sys.exit(1 if problems else 0)
EOF
