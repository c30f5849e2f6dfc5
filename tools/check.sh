#!/usr/bin/env bash
# Full pre-merge check: build + test every CMake preset that gates a merge.
#
#   tools/check.sh            # default + perfbench tests + release + sanitize
#                             # + tsan-determinism
#   tools/check.sh --fast     # default preset only (full ctest)
#
# Both modes print the src/ .cpp/.h non-blank line count that CHANGES.md
# entries report.
#
# Presets (CMakePresets.json):
#   default           RelWithDebInfo, full ctest suite
#   release           Release (-O3) build only: warnings that appear only
#                     once the optimizer inlines (GCC's -Wrestrict) fail it
#   sanitize          ASan + UBSan build, full ctest suite
#   tsan-determinism  TSan build, determinism slice via its test preset
#                     (bit-identity across thread counts must hold data-race
#                     clean — the work pool's core contract)
#
# ctest labels select slices of a full suite: "golden" (output diffs),
# "determinism" (bit-identity) and "recovery" (the store crash sweeps: a
# kill at every byte of an append resumes to the uninterrupted bytes), e.g.
# `ctest --test-dir build-asan -L recovery`.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run() {
  echo "== $*" >&2
  "$@"
}

# The full suite includes the golden diffs (label "golden"): the 16 paper
# benches against tools/golden/paper/, every CLI verb against
# tools/golden/cli/, and the query/serve transcripts of the smoke campaign
# against tools/golden/campaign_query.md and campaign_serve.txt.  Every
# preset builds with warnings as errors (NBTISIM_WERROR, default OFF so a
# project that adds src/ with its own flags is not held to them).
run cmake --preset default -DNBTISIM_WERROR=ON
run cmake --build --preset default -j "$JOBS"
run ctest --preset default -j "$JOBS"

# Performance trajectory: each line of BENCH_perfbench.jsonl is one
# change's perfbench record (EXPERIMENTS.md "Standby vectors as a select"
# shows one).  Per workload it holds the seed, the runs, the passes, the host
# calibration and hardware_concurrency, the parent's and the change's
# median and quartiles of the four end-to-end metrics, "correct": true, and
# pass_s_wins, the pairs in which the change's pass_s was lower: an integer
# from 0 to runs.  A line that does not parse or lacks one of those keys,
# or a workload entry that is not correct or whose wins lie outside that
# range, fails the check.
run python3 - BENCH_perfbench.jsonl <<'PY'
import json
import sys

METRICS = ("setup_s", "pass_s", "pass_cpu_s", "peak_rss_mb")
WORKLOAD_KEYS = ("workload", "seed", "runs", "passes",
                 "hardware_concurrency", "host.calib_s", "host.mem_calib_s",
                 "parent", "change", "pass_s_wins", "correct")


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


path = sys.argv[1]
try:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
except OSError as e:
    sys.exit(f"{path}: {e.strerror}")
if not lines:
    sys.exit(f"{path}: no records")
for n, line in enumerate(lines, 1):
    where = f"{path}:{n}"
    try:
        record = json.loads(line)
    except json.JSONDecodeError as e:
        sys.exit(f"{where}: not JSON ({e})")
    workloads = record.get("workloads") if isinstance(record, dict) else None
    if not isinstance(workloads, list) or not workloads:
        sys.exit(f"{where}: no \"workloads\" list")
    for w in workloads:
        if not isinstance(w, dict):
            sys.exit(f"{where}: a workload entry is not an object")
        name = w.get("workload", "?")
        for key in WORKLOAD_KEYS:
            if key not in w:
                sys.exit(f"{where}: workload {name} lacks \"{key}\"")
        if w["correct"] is not True:
            sys.exit(f"{where}: workload {name} is not \"correct\": true")
        runs, wins = w["runs"], w["pass_s_wins"]
        if not (is_int(runs) and runs >= 1):
            sys.exit(f"{where}: workload {name} runs is not an integer >= 1")
        if not (is_int(wins) and 0 <= wins <= runs):
            sys.exit(f"{where}: workload {name} pass_s_wins is not an "
                     f"integer from 0 to runs ({runs})")
        for side in ("parent", "change"):
            for metric in METRICS:
                stats = w[side].get(metric) if isinstance(w[side], dict) else None
                if not isinstance(stats, dict) or not all(
                        isinstance(stats.get(q), (int, float))
                        for q in ("median", "q1", "q3")):
                    sys.exit(f"{where}: workload {name} lacks "
                             f"{side}.{metric} median/q1/q3")
print(f"check.sh: {path} has {len(lines)} well-formed record(s)")
PY

# The net src/ size every CHANGES.md entry reports: non-blank lines of the
# .cpp and .h files under src/, printed in both modes.
src_lines=$(find src \( -name '*.cpp' -o -name '*.h' \) -exec cat {} + |
  grep -cv '^[[:space:]]*$')
echo "check.sh: src/ .cpp/.h non-blank lines: $src_lines"

if [[ "$FAST" == 1 ]]; then
  echo "check.sh: fast mode — skipped perfbench tests, sanitize and tsan-determinism presets"
  exit 0
fi

# The benchmark's own tests: the runner compiles against the engine's APIs
# and tests/support/reference.h, so a break there shows here instead of only
# when the benchmark runs (Release build under .bench_build/, about 40 s).
run python3 perfbench/test_perfbench.py

run cmake --preset release -DNBTISIM_WERROR=ON
run cmake --build --preset release -j "$JOBS"

run cmake --preset sanitize -DNBTISIM_WERROR=ON
run cmake --build --preset sanitize -j "$JOBS"
run ctest --test-dir build-asan -j "$JOBS" --output-on-failure

run cmake --preset tsan-determinism -DNBTISIM_WERROR=ON
run cmake --build --preset tsan-determinism -j "$JOBS"
run ctest --preset tsan-determinism -j "$JOBS"
# The differential suite (SoA kernel vs scalar model, shooting stack solver
# vs nested bisection, optimized engines vs tests/support/reference.h) is
# part of the determinism label above; run it by name too so a label
# regression can't silently drop it from the TSan gate.
run ctest --test-dir build-tsan -R "Differential" -j "$JOBS" --output-on-failure

echo "check.sh: all presets green"
