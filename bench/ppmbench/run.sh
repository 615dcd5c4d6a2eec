#!/usr/bin/env bash
# run.sh — build ppmbench (untraced and profiler builds) and run it.
#
#   bench/ppmbench/run.sh                 every workload, end-to-end then traced
#   bench/ppmbench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#   bench/ppmbench/run.sh --smoke         1% of every workload's work, all checks
#   bench/ppmbench/run.sh --calibrate     noise calibration; rewrites the bounds
#                                         in BENCHMARK.json
#
# Workloads: kmsg, admin, churn, collective.  Every metric is printed as
# "workload metric value unit".  With --workload the last line is one JSON
# object: the end-to-end metrics with --trace 0, the per-layer metrics with
# --trace 1; a copy goes to the build directory.  Exits non-zero when the
# build or any correctness or determinism check fails.
#
# Builds go to $CARGO_TARGET_DIR/ppmbench when that is set, otherwise to
# build-ppmbench at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="${CARGO_TARGET_DIR:+$CARGO_TARGET_DIR/ppmbench}"
build="${build:-$root/build-ppmbench}"
workloads=(kmsg admin churn collective)

# Configures (once) and builds one configuration: off = PPM_PROFILE=OFF,
# on = the profiler build.  Compiler output goes to a log that is shown
# only when the build fails.
build_config() {
  local dir="$build/$1" log="$build/$1.log" profile=OFF
  [[ $1 == on ]] && profile=ON
  local generator=()
  command -v ninja >/dev/null && generator=(-G Ninja)
  mkdir -p "$build"
  if [[ ! -f "$dir/CMakeCache.txt" ]] &&
    ! cmake -S "$here" -B "$dir" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
      -DPPM_PROFILE="$profile" >"$log" 2>&1; then
    cat "$log" >&2
    return 1
  fi
  if ! cmake --build "$dir" -j "$(nproc)" >"$log" 2>&1; then
    cat "$log" >&2
    return 1
  fi
}

# The value of `metric` in ppmbench output.
field() { awk -v m="$1" '$2 == m { print $3 }' <<<"$2"; }

# run_one WORKLOAD SEED SECONDS TRACE
run_one() {
  local w=$1 seed=$2 seconds=$3 trace=$4 out status=0
  if [[ $trace == 0 ]]; then
    out=$("$build/off/ppmbench" --workload "$w" --seed "$seed" --seconds "$seconds") || status=$?
  else
    # The traced run is paired with an untraced one of the same seed,
    # each given half the time and at least one repetition: the untraced
    # ops_per_s prices the tracing (obs.trace_overhead_pct) and its counts
    # must match the traced run's.
    local half base
    half=$(awk -v s="$seconds" 'BEGIN { print s / 2 }')
    base=$("$build/off/ppmbench" --workload "$w" --seed "$seed" --seconds "$half" \
      --min-reps 1) || {
      printf '%s\n' "$base" | sed '$d'
      return 1
    }
    out=$("$build/on/ppmbench" --workload "$w" --seed "$seed" --seconds "$half" \
      --untraced-ops-per-s "$(field ops_per_s "$base")" \
      --expect-fingerprint "$(field fingerprint "$base")") || status=$?
  fi
  printf '%s\n' "$out"
  tail -n 1 <<<"$out" >"$build/result-$w-seed$seed-trace$trace.json"
  return "$status"
}

workload="" seed=1 seconds=10 trace="" mode=run
while (($#)); do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --smoke) mode=smoke; shift ;;
    --calibrate) mode=calibrate; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
[[ -z $trace || $trace == 0 || $trace == 1 ]] || { echo "run.sh: --trace takes 0 or 1" >&2; exit 2; }

build_config off
build_config on

case "$mode" in
  smoke)
    for w in "${workloads[@]}"; do
      base=$("$build/off/ppmbench" --workload "$w" --smoke)
      printf '%s\n' "$base" | sed '$d'
      "$build/on/ppmbench" --workload "$w" --smoke \
        --expect-fingerprint "$(field fingerprint "$base")" | sed '$d'
    done
    ;;
  calibrate)
    exec python3 "$here/calibrate.py" "$here/run.sh" "$root/BENCHMARK.json"
    ;;
  run)
    if [[ -n $workload ]]; then
      run_one "$workload" "$seed" "$seconds" "${trace:-0}"
    else
      for w in "${workloads[@]}"; do
        for t in ${trace:-0 1}; do run_one "$w" "$seed" "$seconds" "$t" | sed '$d'; done
      done
    fi
    ;;
esac
