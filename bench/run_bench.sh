#!/usr/bin/env bash
# Benchmark-regression harness: runs the google-benchmark suites and writes
# the compact perf baselines BENCH_labeling.json / BENCH_netsim.json at the
# repo root. Future PRs rerun this and diff against the committed files to
# see the perf trajectory.
#
# Usage:
#   bench/run_bench.sh                  # both suites, refresh both baselines
#   bench/run_bench.sh --check          # correctness gate: seeded check_fuzz
#                                       # smoke, chaos + alloc suites, the
#                                       # repository benchmark's determinism
#                                       # test and the traced-run smoke
#                                       # before timing anything
#   bench/run_bench.sh --netsim         # netsim suite only, compared against
#                                       # the committed BENCH_netsim.json with
#                                       # a tolerance band; nonzero exit on
#                                       # regression; baseline NOT rewritten
#   bench/run_bench.sh --svc            # serving-runtime suite only, compared
#                                       # against the committed BENCH_svc.json
#                                       # the same way
#   bench/run_bench.sh --alloc          # allocation suite only, compared
#                                       # against the committed
#                                       # BENCH_alloc.json the same way
#   bench/run_bench.sh --svc-sweep      # closed-loop sweep: runs
#                                       # BM_SvcClosedLoop (the 1-shard
#                                       # service) at 1/2/4/8 query threads
#                                       # plus BM_SvcShardedClosedLoop (2/4
#                                       # shards x 1/2/4/8 query threads) and
#                                       # prints a qps table — the scaling
#                                       # evidence for the epoch-handle
#                                       # acquisition path and the
#                                       # tile-partitioned ingest; no
#                                       # baselines touched
#   bench/run_bench.sh --trace          # traced pipeline + netsim demo run:
#                                       # writes trace.jsonl / trace_chrome
#                                       # .json under $BUILD/bench/trace and
#                                       # prints the obs_report summary; no
#                                       # baselines touched
#   bench/run_bench.sh --chaos          # chaos soak: seed sweeps of the
#                                       # fault-injection load harness and
#                                       # the schedule explorer (ddmin repro
#                                       # one-liners on failure); no
#                                       # baselines touched
#   BUILD_DIR=out bench/run_bench.sh    # non-default build tree
#   BENCH_MIN_TIME=0.5 bench/run_bench.sh   # steadier timings (slower)
#   BENCH_FILTER=Frontier bench/run_bench.sh   # subset of benchmarks
#   BENCH_TOLERANCE=0.5 bench/run_bench.sh --netsim   # wider band
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
FILTER="${BENCH_FILTER:-}"
# Generous default band: these runs share one core with whatever else the
# machine is doing, and short timings swing 30-50% run to run.
TOLERANCE="${BENCH_TOLERANCE:-0.50}"
CHECK=0
NETSIM_ONLY=0
SVC_ONLY=0
ALLOC_ONLY=0
SVC_SWEEP=0
TRACE=0
CHAOS=0

for arg in "$@"; do
  case "$arg" in
    --check) CHECK=1 ;;
    --netsim) NETSIM_ONLY=1 ;;
    --svc) SVC_ONLY=1 ;;
    --alloc) ALLOC_ONLY=1 ;;
    --svc-sweep) SVC_SWEEP=1 ;;
    --trace) TRACE=1 ;;
    --chaos) CHAOS=1 ;;
    *)
      echo "error: unknown argument '$arg'" >&2
      echo "supported: --check --netsim --svc --alloc --svc-sweep --trace" \
           "--chaos" >&2
      exit 2
      ;;
  esac
done

# Stamped into compare-gate failure messages so a CI log names both sides:
# which code regressed against which committed baseline.
RUN_REF="$(git -C "$ROOT" rev-parse --short HEAD 2> /dev/null || echo unknown)"

# Runs the traced demo (pipeline + netsim at TraceLevel::Round) and
# summarizes the capture — the smoke that keeps the instrumentation, the
# exporters and the report parser agreeing with each other.
run_trace() {
  for bin in obs_trace obs_report; do
    if [ ! -x "$BUILD/bench/$bin" ]; then
      echo "error: $BUILD/bench/$bin not built." >&2
      exit 1
    fi
  done
  local out="$BUILD/bench/trace"
  echo "== obs_trace -> $out"
  "$BUILD/bench/obs_trace" --out-dir "$out" > /dev/null
  "$BUILD/bench/obs_report" --strict "$out/trace.jsonl"
  echo "trace artifacts: $out/trace.jsonl, $out/trace_chrome.json"
  echo "(load trace_chrome.json in chrome://tracing or ui.perfetto.dev)"
}

if [ "$TRACE" = 1 ]; then
  run_trace
  exit 0
fi

# --chaos: the fault-injection soak (kill/restart digest convergence,
# staleness drain, schedule exploration with ddmin repros).
if [ "$CHAOS" = 1 ]; then
  if [ ! -x "$BUILD/bench/chaos_soak" ]; then
    echo "error: $BUILD/bench/chaos_soak not built." >&2
    exit 1
  fi
  echo "== chaos_soak (seeded degraded-mode sweep)"
  "$BUILD/bench/chaos_soak" --seeds 8 --schedules 8
  exit 0
fi

# Comparison runs default to longer timings: a regression verdict from a
# 0.1-second sample is mostly noise.
if [ "$NETSIM_ONLY" = 1 ] || [ "$SVC_ONLY" = 1 ] || [ "$ALLOC_ONLY" = 1 ] ||
   [ "$SVC_SWEEP" = 1 ]; then
  MIN_TIME="${BENCH_MIN_TIME:-0.3}"
else
  MIN_TIME="${BENCH_MIN_TIME:-0.1}"
fi

for bin in perf_labeling perf_netsim svc_load alloc_load bench_to_json; do
  if [ ! -x "$BUILD/bench/$bin" ]; then
    echo "error: $BUILD/bench/$bin not built." >&2
    echo "build first: cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
done

# Suites timed as the median of several repetitions. One pass of the
# labeling, svc and alloc suites swings 10-36% with the host's busy and
# quiet phases on unchanged code; bench_to_json writes and compares the
# medians, so the --svc gate compares medians against BENCH_svc.json's
# medians.
REPEATED_SUITES="perf_labeling svc_load alloc_load"

# Runs one suite; writes its compact form to $3 in `write` mode, else
# compares the fresh run against the committed baseline $3 (exit 1 past the
# tolerance band).
run_suite() {
  local bin="$1" mode="$2" target="$3"
  local full="$BUILD/bench/$bin.full.json"
  local reps=()
  case " $REPEATED_SUITES " in
    *" $bin "*) reps=(--benchmark_repetitions=5) ;;
  esac
  "$BUILD/bench/$bin" \
    --benchmark_out="$full" \
    --benchmark_out_format=json \
    --benchmark_min_time="$MIN_TIME" \
    "${reps[@]}" \
    ${FILTER:+--benchmark_filter="$FILTER"} \
    >&2
  if [ "$mode" = write ]; then
    echo "== $bin -> $target"
    "$BUILD/bench/bench_to_json" "$full" > "$target"
  else
    echo "== $bin vs $target (tolerance +$TOLERANCE)"
    "$BUILD/bench/bench_to_json" "$full" \
      --compare "$target" --tolerance "$TOLERANCE" \
      --ref "$RUN_REF" > "$full.compact"
  fi
}

# --check: vet the labeling engine against the invariant oracle before
# publishing perf numbers — a fast perf baseline from a miscomputing engine
# is worthless. Same seeded smoke configuration as the `smoke`-labeled ctest
# entry, so failures reproduce under either driver.
if [ "$CHECK" = 1 ]; then
  if [ ! -x "$BUILD/bench/check_fuzz" ]; then
    echo "error: $BUILD/bench/check_fuzz not built." >&2
    exit 1
  fi
  echo "== check_fuzz (seeded invariant smoke)"
  "$BUILD/bench/check_fuzz" --seed 1 --instances 200 --max-size 16 \
    --trace-dir "$BUILD/bench" >&2
  # Chaos suite: the degraded-mode guarantees (kill/restart digest
  # convergence, bounded staleness, typed retries) must hold before timing
  # the serving runtime around them.
  echo "== ctest -L chaos (degraded-mode guarantees)"
  (cd "$BUILD" && ctest -L chaos --output-on-failure -j4) >&2
  # Allocation suite: overlap-freedom, index equivalence and eviction
  # completeness must hold before the placement numbers mean anything.
  echo "== ctest -L alloc (allocation invariants)"
  (cd "$BUILD" && ctest -L alloc --output-on-failure -j4) >&2
  # Repository benchmark (perfbench/, builds into .bench_build/): one seed
  # replays bit-identical digests, counts and util_peak, another differs,
  # every printed metric is declared in BENCHMARK.json and every run passes
  # its own correctness checks.
  echo "== perfbench/test_determinism.py (benchmark determinism)"
  (cd "$ROOT" && python3 perfbench/test_determinism.py --seconds 1) >&2
  # Traced-run smoke: the observability layer must keep producing parseable
  # traces before perf numbers recorded around it are trusted.
  run_trace >&2
fi

if [ "$NETSIM_ONLY" = 1 ]; then
  run_suite perf_netsim compare "$ROOT/BENCH_netsim.json"
  echo "netsim within tolerance of the committed baseline"
  echo "(fresh compact numbers: $BUILD/bench/perf_netsim.full.json.compact)"
  exit 0
fi

# --svc-sweep: the closed-loop generator at 1/2/4/8 query threads — the
# 1-shard service (BM_SvcClosedLoop) AND 2/4-shard fleets
# (BM_SvcShardedClosedLoop's first arg) — printed as a qps table. Pulls items_per_second straight out
# of the full benchmark JSON (one field per line) — the number
# BENCH_svc.json commits for the same benchmarks.
if [ "$SVC_SWEEP" = 1 ]; then
  full="$BUILD/bench/svc_load.sweep.json"
  "$BUILD/bench/svc_load" \
    --benchmark_out="$full" \
    --benchmark_out_format=json \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_filter='BM_SvcClosedLoop/|BM_SvcShardedClosedLoop/' \
    >&2
  echo "== closed-loop sweep (answers/s, real time; BM_SvcClosedLoop rows are"
  echo "   1 shard, BM_SvcShardedClosedLoop/<shards>/<query_threads> 2 or 4)"
  printf '%-38s %14s %10s %10s\n' "benchmark" "qps" "p50_us" "p99_us"
  awk '
    /"name":/            { gsub(/[",]/, ""); name = $2 }
    /"items_per_second":/ { gsub(/,/, ""); qps = $2 }
    /"p50_us":/          { gsub(/,/, ""); p50 = $2 }
    /"p99_us":/          { gsub(/,/, ""); p99 = $2 }
    /^    }/ && name != "" {
      printf "%-38s %14.0f %10.2f %10.2f\n", name, qps, p50, p99
      name = ""
    }
  ' "$full"
  echo "(full numbers: $full)"
  exit 0
fi

if [ "$SVC_ONLY" = 1 ]; then
  run_suite svc_load compare "$ROOT/BENCH_svc.json"
  echo "svc within tolerance of the committed baseline"
  echo "(fresh compact numbers: $BUILD/bench/svc_load.full.json.compact)"
  exit 0
fi

if [ "$ALLOC_ONLY" = 1 ]; then
  run_suite alloc_load compare "$ROOT/BENCH_alloc.json"
  echo "alloc within tolerance of the committed baseline"
  echo "(fresh compact numbers: $BUILD/bench/alloc_load.full.json.compact)"
  exit 0
fi

run_suite perf_labeling write "$ROOT/BENCH_labeling.json"
run_suite perf_netsim write "$ROOT/BENCH_netsim.json"
run_suite svc_load write "$ROOT/BENCH_svc.json"
run_suite alloc_load write "$ROOT/BENCH_alloc.json"

echo "wrote $ROOT/BENCH_labeling.json, $ROOT/BENCH_netsim.json," \
     "$ROOT/BENCH_svc.json and $ROOT/BENCH_alloc.json"
