#!/usr/bin/env bash
# Builds the repository's `vbtree` library (Release) and the benchmark
# benchmark program (vbt_bench) against it, then runs it.
#
#   bash benchmark/run.sh --workload hot_read --seed 1 --seconds 18 --trace 0
#   bash benchmark/run.sh --seed 1           # every workload in turn
#   bash benchmark/run.sh --smoke            # 1 s phases, output checked
#
# Environment: VBT_BENCH_REPO is the source tree under test (default: the
# directory above this one), VBT_BENCH_BUILD the build directory (default:
# benchmark/build). Build output goes to stderr; stdout carries only the
# metric lines of vbt_bench, ending in one JSON object per workload.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="${VBT_BENCH_REPO:-$(dirname "$here")}"
build="${VBT_BENCH_BUILD:-$here/build}"
jobs="$(nproc 2>/dev/null || echo 2)"

{
  if [[ ! -f "$build/repo/CMakeCache.txt" ]]; then
    cmake -S "$repo" -B "$build/repo" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build/repo" --target vbtree -j "$jobs"
  if [[ ! -f "$build/bench/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build/bench" -DCMAKE_BUILD_TYPE=Release \
      -DVBT_REPO_DIR="$repo" -DVBT_REPO_BUILD="$build/repo"
  fi
  cmake --build "$build/bench" -j "$jobs"
} >&2

bench=("$build/bench/vbt_bench" --out-dir "$here/out")
workloads=(hot_read scan_sharded read_write write_heavy)
smoke=0
given=0
args=("$@")
for i in "${!args[@]}"; do
  case "${args[i]}" in
    --smoke) smoke=1 ;;
    --workload) given=1; workloads=("${args[i + 1]:-}") ;;
  esac
done
if (( given && ! smoke )); then
  exec "${bench[@]}" "$@"
fi

status=0
if (( smoke )); then
  # Every workload, untraced and traced: each run must pass its oracle
  # and print every metric BENCHMARK.json declares, finite and in unit.
  for w in "${workloads[@]}"; do
    for trace in 0 1; do
      if "${bench[@]}" --workload "$w" --trace "$trace" "$@" |
          python3 "$here/compare.py" check --workload "$w" --trace "$trace"; then
        echo "smoke ok: $w trace=$trace" >&2
      else
        echo "smoke FAILED: $w trace=$trace" >&2
        status=1
      fi
    done
  done
else
  for w in "${workloads[@]}"; do
    "${bench[@]}" --workload "$w" "$@" || status=1
  done
fi
exit "$status"
