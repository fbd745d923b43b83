#!/usr/bin/env bash
# Negative-path fixture test for obs_report's trace checker: adversarial
# captures that a crashing or misbehaving exporter would actually produce.
#
#   1. clean capture                      -> exit 0, no malformed note
#   2. truncated file (cut mid-object)    -> lenient: summarized with a
#      malformed-line note; --strict: exit 1
#   3. NaN in a numeric field             -> not JSON, not a v1 number:
#      lenient skips the line, --strict fails the capture
#   4. duplicate keys on one line         -> structurally valid JSON; the
#      v1 parser deterministically takes the FIRST occurrence
#
# Every fixture record is a span or an instant, the only kinds a v1 trace
# holds; a `c` (counter) or `h` (histogram) line is an unknown kind and
# counts as malformed.
#   5. empty file / pure garbage / missing file -> exit 1 in any mode
#
# Usage: test_obs_report.sh <path-to-obs_report>
set -u

BIN="${1:?usage: test_obs_report.sh <obs_report>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
FAILURES=0

expect() {
  local label="$1" want="$2"
  shift 2
  "$@" > "$TMP/stdout.log" 2> "$TMP/stderr.log"
  local got=$?
  if [ "$got" != "$want" ]; then
    echo "FAIL $label: exit $got, expected $want" >&2
    sed 's/^/    /' "$TMP/stderr.log" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok   $label"
  fi
}

# A minimal healthy v1 capture: meta, one completed span, one instant.
make_clean() {
  cat > "$1" <<'EOF'
{"ev":"meta","schema":"ocpmesh-trace-v1"}
{"ev":"b","name":"work","ts_ns":100}
{"ev":"e","name":"work","ts_ns":300,"dur_ns":200}
{"ev":"i","name":"events","ts_ns":310,"value":3}
EOF
}

# 1. Clean capture passes in both modes with no malformed note.
make_clean "$TMP/clean.jsonl"
expect "clean capture" 0 "$BIN" "$TMP/clean.jsonl"
expect "clean capture --strict" 0 "$BIN" --strict "$TMP/clean.jsonl"
if grep -q "malformed" "$TMP/stdout.log"; then
  echo "FAIL clean capture: spurious malformed-line note" >&2
  FAILURES=$((FAILURES + 1))
fi

# 2. Truncated capture: the writer died mid-line (no trailing quote/brace).
make_clean "$TMP/truncated.jsonl"
printf '{"ev":"i","name":"cut","va' >> "$TMP/truncated.jsonl"
expect "truncated file (lenient)" 0 "$BIN" "$TMP/truncated.jsonl"
if ! grep -q "malformed line(s) skipped" "$TMP/stdout.log"; then
  echo "FAIL truncated file: malformed-line note missing" >&2
  FAILURES=$((FAILURES + 1))
fi
expect "truncated file --strict" 1 "$BIN" --strict "$TMP/truncated.jsonl"
if ! grep -q "structurally invalid JSON" "$TMP/stderr.log"; then
  echo "FAIL truncated --strict: structural diagnosis missing" >&2
  FAILURES=$((FAILURES + 1))
fi

# 3. NaN: JSON has no NaN literal, and the v1 integer parser must reject it
# rather than read 0.
make_clean "$TMP/nan.jsonl"
echo '{"ev":"i","name":"bad","ts_ns":400,"value":NaN}' >> "$TMP/nan.jsonl"
expect "NaN value (lenient)" 0 "$BIN" "$TMP/nan.jsonl"
if ! grep -q "malformed line(s) skipped" "$TMP/stdout.log"; then
  echo "FAIL NaN: malformed-line note missing" >&2
  FAILURES=$((FAILURES + 1))
fi
if grep -Eq '^bad ' "$TMP/stdout.log"; then
  echo "FAIL NaN: instant 'bad' summarized despite unparseable value" >&2
  FAILURES=$((FAILURES + 1))
fi
expect "NaN value --strict" 1 "$BIN" --strict "$TMP/nan.jsonl"

# 4. Duplicate keys: valid JSON (RFC 8259 leaves it undefined), so strict
# mode accepts it — but the summary must be deterministic: the first
# occurrence wins, so the instant's sum reads 1, not 7.
make_clean "$TMP/dup.jsonl"
echo '{"ev":"i","name":"twice","ts_ns":400,"value":1,"value":7}' >> "$TMP/dup.jsonl"
expect "duplicate keys --strict" 0 "$BIN" --strict "$TMP/dup.jsonl"
# instant table columns: name, count, sum, min, max
if ! grep -Eq '^twice +1 +1 +1 +1 *$' "$TMP/stdout.log"; then
  echo "FAIL duplicate keys: first-occurrence value not reported" >&2
  sed 's/^/    /' "$TMP/stdout.log" >&2
  FAILURES=$((FAILURES + 1))
fi

# 5. Nothing to summarize: empty, garbage, or unopenable input.
: > "$TMP/empty.jsonl"
expect "empty file" 1 "$BIN" "$TMP/empty.jsonl"
printf 'not json at all\nstill not\n' > "$TMP/garbage.jsonl"
expect "garbage file" 1 "$BIN" "$TMP/garbage.jsonl"
expect "missing file" 1 "$BIN" "$TMP/does_not_exist.jsonl"

if [ "$FAILURES" != 0 ]; then
  echo "$FAILURES case(s) failed" >&2
  exit 1
fi
echo "all obs_report negative-path cases passed"
