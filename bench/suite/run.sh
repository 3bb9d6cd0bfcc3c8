#!/usr/bin/env bash
# Builds a Release copy of the CEJ library plus the suite binary, then runs
# one workload (--workload NAME) or all four, each in its own process.
#
#   bash bench/suite/run.sh [--workload NAME] [--seed N] [--seconds S]
#                           [--trace 0|1]
#
# Defaults: seed 1, 20 s (BENCHMARK.json's run_seconds), untraced.
#
# A single-workload run passes cej_suite's output through: its last line
# is the JSON result. Without --workload every workload runs in turn and
# the run records are gathered into build-bench/out/results.json.
# The exit status is non-zero when the build fails, an op fails or the
# oracle finds a wrong output. Build files go to build-bench/suite/, run
# records and traces to build-bench/out/, both at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

workload="" seed=1 seconds=20 trace=0
while [ $# -gt 0 ]; do
  if [ $# -lt 2 ]; then
    echo "run.sh: missing value for $1" >&2
    exit 2
  fi
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src/cej" ]; then
  echo "run.sh: no library sources under $root; run from a full checkout" >&2
  exit 2
fi

build="$root/build-bench/suite"
out_dir=build-bench/out
log="$build/build.log"
mkdir -p "$build/tmp" "$root/$out_dir"
# Keep the compiler's temporary files inside the checkout.
export TMPDIR="$build/tmp"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCEJ_SANITIZE=OFF -DCEJ_SANITIZE_THREAD=OFF >"$log" 2>&1 || {
    tail -n 40 "$log" >&2
    echo "run.sh: configure failed (full log: $log)" >&2
    exit 1
  }
fi
# Timings from a debug or sanitizer build are meaningless: refuse them.
for setting in CMAKE_BUILD_TYPE:STRING=Release CEJ_SANITIZE:BOOL=OFF \
               CEJ_SANITIZE_THREAD:BOOL=OFF; do
  if ! grep -qx "$setting" "$build/CMakeCache.txt"; then
    echo "run.sh: $build is not a plain Release build ($setting expected);" \
         "delete it and rerun" >&2
    exit 1
  fi
done
jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4
cmake --build "$build" -j "$jobs" >>"$log" 2>&1 || {
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
}

commit=unknown
if command -v git >/dev/null 2>&1 &&
   top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" &&
   [ "$top" = "$root" ]; then
  commit="$(git -C "$root" rev-parse HEAD)"
fi

cd "$root"
run_one() {
  "$build/cej_suite" --workload "$1" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --commit "$commit"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit $?
fi

out="$out_dir/results.json"
suffix=""
[ "$trace" = 1 ] && suffix="-trace"
status=0
records=()
for name in scan_topk ingest_stream graph_pipeline serve_probe; do
  echo "## $name (seed $seed, ${seconds}s, trace $trace)"
  record="$out_dir/$name-seed$seed$suffix.json"
  rm -f "$record"
  run_one "$name" || status=1
  records+=("$record")
done
{
  printf '{"runs":['
  sep=""
  for record in "${records[@]}"; do
    if [ -f "$record" ]; then
      printf '%s' "$sep"
      cat "$record"
      sep=","
    fi
  done
  printf ']}\n'
} >"$out"
echo "## run records gathered in $out"
exit "$status"
