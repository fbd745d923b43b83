#!/usr/bin/env bash
# Fixture test for bench_to_json's --compare gate:
#   1. matching run vs baseline           -> exit 0
#   2. regression beyond the tolerance    -> exit 1
#   3. benchmark unknown to the baseline  -> exit 1 (the bug this guards:
#      a new benchmark must not slip past the gate just because the
#      committed baseline predates it)
#   4. same, with --allow-new             -> exit 0
#   5. baseline-only benchmark (filtered run) -> exit 0, reported only
#   6. failure preamble names the baseline file, and --ref stamps the run's
#      git ref into it (a CI log line is then self-contained)
#   7. a passing run never prints the failure preamble
#   8. a run with repetitions is compacted to one median row per benchmark,
#      under the plain name, and compared by that median
#
# Usage: test_bench_to_json.sh <path-to-bench_to_json>
set -u

BIN="${1:?usage: test_bench_to_json.sh <bench_to_json>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
FAILURES=0

# Minimal google-benchmark-shaped output (one field per line, as the real
# tool emits) with two benchmarks.
make_full() {
  local file="$1" bm1_ns="$2" bm2_ns="$3"
  cat > "$file" <<EOF
{
  "context": {},
  "benchmarks": [
    {
      "name": "BM_One/16",
      "real_time": $bm1_ns,
      "cpu_time": $bm1_ns,
      "time_unit": "ns"
    },
    {
      "name": "BM_Two/32",
      "real_time": $bm2_ns,
      "cpu_time": $bm2_ns,
      "time_unit": "ns"
    }
  ]
}
EOF
}

expect() {
  local label="$1" want="$2"
  shift 2
  "$@" > /dev/null 2> "$TMP/stderr.log"
  local got=$?
  if [ "$got" != "$want" ]; then
    echo "FAIL $label: exit $got, expected $want" >&2
    sed 's/^/    /' "$TMP/stderr.log" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok   $label"
  fi
}

make_full "$TMP/run.json" 2000000 3000000
"$BIN" "$TMP/run.json" > "$TMP/baseline.json" || {
  echo "FAIL: could not write fixture baseline" >&2
  exit 1
}

# 1. Identical run passes.
expect "matching run" 0 \
  "$BIN" "$TMP/run.json" --compare "$TMP/baseline.json"

# 2. A 3x slowdown on BM_One fails under the default 30% band, and the
# failure message names the offender with its delta — not just a count.
make_full "$TMP/slow.json" 6000000 3000000
expect "regression" 1 \
  "$BIN" "$TMP/slow.json" --compare "$TMP/baseline.json"
if ! grep -q "failed the gate" "$TMP/stderr.log"; then
  echo "FAIL regression: no enumerated failure summary on stderr" >&2
  FAILURES=$((FAILURES + 1))
fi
if ! grep -q -- "- BM_One/16: .*->.*band" "$TMP/stderr.log"; then
  echo "FAIL regression: offender BM_One/16 not named with its delta" >&2
  FAILURES=$((FAILURES + 1))
fi
if grep -q -- "- BM_Two/32:" "$TMP/stderr.log"; then
  echo "FAIL regression: unregressed BM_Two/32 listed as an offender" >&2
  FAILURES=$((FAILURES + 1))
fi

# 3. A benchmark the baseline has never seen fails by default...
grep -v "BM_Two" "$TMP/baseline.json" > "$TMP/baseline_one.json"
expect "unknown benchmark" 1 \
  "$BIN" "$TMP/run.json" --compare "$TMP/baseline_one.json"
if ! grep -q "UNKNOWN" "$TMP/stderr.log"; then
  echo "FAIL unknown benchmark: no UNKNOWN line on stderr" >&2
  FAILURES=$((FAILURES + 1))
fi
if ! grep -q -- "- BM_Two/32: not in baseline" "$TMP/stderr.log"; then
  echo "FAIL unknown benchmark: offender not named in failure summary" >&2
  FAILURES=$((FAILURES + 1))
fi

# 4. ...and passes when explicitly allowed.
expect "unknown benchmark --allow-new" 0 \
  "$BIN" "$TMP/run.json" --compare "$TMP/baseline_one.json" --allow-new

# 5. A filtered run (baseline entry missing from the run) only reports.
make_full "$TMP/full2.json" 2000000 3000000
grep -v "BM_Two" "$TMP/full2.json" > "$TMP/filtered_raw.json"
# grep leaves a trailing comma on the BM_One entry; the parser tolerates it.
expect "baseline-only benchmark" 0 \
  "$BIN" "$TMP/filtered_raw.json" --compare "$TMP/baseline.json"

# 6. The failure preamble names the baseline path, and --ref stamps the
# run's git ref next to it.
expect "failure preamble with --ref" 1 \
  "$BIN" "$TMP/slow.json" --compare "$TMP/baseline.json" --ref cafe1234
if ! grep -q "baseline: $TMP/baseline.json" "$TMP/stderr.log"; then
  echo "FAIL failure preamble: baseline path not named" >&2
  FAILURES=$((FAILURES + 1))
fi
if ! grep -q "run ref:  cafe1234" "$TMP/stderr.log"; then
  echo "FAIL failure preamble: --ref value not stamped" >&2
  FAILURES=$((FAILURES + 1))
fi
# Without --ref the preamble still names the baseline but carries no ref.
expect "failure preamble without --ref" 1 \
  "$BIN" "$TMP/slow.json" --compare "$TMP/baseline.json"
if ! grep -q "baseline: $TMP/baseline.json" "$TMP/stderr.log"; then
  echo "FAIL failure preamble (no ref): baseline path not named" >&2
  FAILURES=$((FAILURES + 1))
fi
if grep -q "run ref:" "$TMP/stderr.log"; then
  echo "FAIL failure preamble (no ref): spurious run ref line" >&2
  FAILURES=$((FAILURES + 1))
fi

# 7. A passing run never prints the failure preamble.
expect "passing run stays quiet" 0 \
  "$BIN" "$TMP/run.json" --compare "$TMP/baseline.json" --ref cafe1234
if grep -q "baseline:" "$TMP/stderr.log"; then
  echo "FAIL passing run: failure preamble printed on success" >&2
  FAILURES=$((FAILURES + 1))
fi

# 8. Repetitions: BM_One's three runs read 9, 2 and 3 ms (median 3 ms,
# mean 4.67 ms). The compact row is the median under the plain name, and
# a baseline of 2 ms passes a 60% band on the median where the first run
# or the mean would fail it.
{
  printf '{\n  "context": {},\n  "benchmarks": [\n'
  for rep in 9000000 2000000 3000000; do
    printf '    {\n      "name": "BM_One/16",\n'
    printf '      "run_name": "BM_One/16",\n'
    printf '      "run_type": "iteration",\n'
    printf '      "real_time": %s,\n      "cpu_time": %s,\n' "$rep" "$rep"
    printf '      "time_unit": "ns"\n    },\n'
  done
  for agg in mean:4666666 median:3000000 stddev:3785939 cv:0.81; do
    printf '    {\n      "name": "BM_One/16_%s",\n' "${agg%%:*}"
    printf '      "run_name": "BM_One/16",\n'
    printf '      "run_type": "aggregate",\n'
    printf '      "aggregate_name": "%s",\n' "${agg%%:*}"
    printf '      "real_time": %s,\n      "cpu_time": %s,\n' \
      "${agg#*:}" "${agg#*:}"
    printf '      "time_unit": "ns"\n    },\n'
  done
  printf '    {\n      "name": "BM_Two/32",\n'
  printf '      "real_time": 3000000,\n      "cpu_time": 3000000,\n'
  printf '      "time_unit": "ns"\n    }\n  ]\n}\n'
} > "$TMP/reps.json"
"$BIN" "$TMP/reps.json" > "$TMP/reps_compact.json" 2> /dev/null
if [ "$(grep -c '"name"' "$TMP/reps_compact.json")" != 2 ] ||
   ! grep -q '"name": "BM_One/16", "real_time_ms": 3,' \
     "$TMP/reps_compact.json"; then
  echo "FAIL repetitions: compact rows are not one median per benchmark" >&2
  sed 's/^/    /' "$TMP/reps_compact.json" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok   repetitions compact to medians"
fi
expect "repetitions compare by median" 0 \
  "$BIN" "$TMP/reps.json" --compare "$TMP/baseline.json" --tolerance 0.6

if [ "$FAILURES" != 0 ]; then
  echo "$FAILURES case(s) failed" >&2
  exit 1
fi
echo "all bench_to_json compare cases passed"
