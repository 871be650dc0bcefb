#!/usr/bin/env bash
# End-to-end checks of the pristi_serve command line and stdin protocol.
#
# Usage: serve_cli_test.sh <path to pristi_serve>
#
#   1. An `impute` start outside [0, num_steps - window_len] — including one
#      where start + window_len would overflow int64 — answers
#      "out of range", and the session keeps serving.
#   2. Each flag value the session cannot run with exits 1 with a message on
#      stderr, never a CHECK abort.
#   3. With no PRISTI_* variable set, a fixed script prints the pinned
#      banner and median_mean values. The generated dataset and untrained
#      model are seeded, and a response is bit-identical at any batch
#      composition and thread count, so the values are exact.
#
# Exits 1 on any failure.

set -u

serve="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

while IFS= read -r name; do
  unset "$name"
done < <(compgen -e | grep '^PRISTI_')

# Strips the timing-dependent fields of a response line.
strip_timing() {
  sed -E 's/ batch=[0-9]+ queue_us=[0-9]+ total_us=[0-9]+//'
}

# ---- 1. out-of-range starts ------------------------------------------------
printf '%s\n' 'impute 9223372036854775807 1' 'impute 705 1' 'impute -1 1' \
  'impute 0 1' 'wait' 'quit' |
  "$serve" > "$tmp/range.out" 2> "$tmp/range.err"
code=$?
[ "$code" -eq 0 ] || fail "out-of-range script exited $code"
grep -q 'Check failed' "$tmp/range.err" && fail "out-of-range start aborted"
for start in 9223372036854775807 705 -1; do
  grep -qxF "impute: start $start out of range [0, 704]" "$tmp/range.out" ||
    fail "start $start did not answer out of range"
done
grep -q '^request 0: ok start=0 seed=1 ' "$tmp/range.out" ||
  fail "session stopped serving after an out-of-range start"

# ---- 2. bad flags ----------------------------------------------------------
for flag in --max-batch=0 --queue-cap=0 --max-wait-ms=-1 --samples=0 \
    --sampler=bogus; do
  echo quit | "$serve" "$flag" > "$tmp/flag.out" 2> "$tmp/flag.err"
  code=$?
  [ "$code" -eq 1 ] || fail "$flag exited $code, want 1"
  grep -q 'Check failed' "$tmp/flag.err" && fail "$flag aborted"
  grep -q '^pristi_serve: invalid-request: ' "$tmp/flag.err" ||
    fail "$flag printed no invalid-request status"
done

# ---- 3. pinned defaults ----------------------------------------------------
printf '%s\n' 'impute 0 1' 'impute 16 2' 'impute 100 7 plms 5' 'wait' 'quit' |
  "$serve" 2> "$tmp/pinned.err" | strip_timing > "$tmp/pinned.out"
cat > "$tmp/pinned.want" <<'EOF'
serving AQI-36-like: N=16 L=16 max_batch=8 max_wait_ms=5 queue_cap=64
submitted request 0
submitted request 1
submitted request 2
request 0: ok start=0 seed=1 median_mean=0.1547
request 1: ok start=16 seed=2 median_mean=0.2085
request 2: ok start=100 seed=7 median_mean=-0.2588
EOF
grep -v '^admitted=' "$tmp/pinned.out" > "$tmp/pinned.got"
if ! diff -u "$tmp/pinned.want" "$tmp/pinned.got"; then
  fail "default banner or median_mean values moved"
fi

if [ "$failures" -ne 0 ]; then
  echo "serve_cli: $failures failure(s)" >&2
  exit 1
fi
echo "serve_cli: OK"
