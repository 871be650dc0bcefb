#!/usr/bin/env bash
# An experiment's CSV does not depend on which other experiments ran first.
#
# Usage: paper_shared_fit_test.sh <path to pristi_paper>
#
# Runs `--only=fig6` alone and `--only=table5,fig6`, where Table V fits and
# uses the same AQI PriSTI model before Fig. 6 does, and requires the two
# fig6 CSVs to be byte-identical. The second run must fit that model once:
# it reports 4 imputer fits (BRITS, GRIN, CSDI, PriSTI), 2 of them diffusion.
#
# Exits 1 on any failure.

set -u

paper="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

while IFS= read -r name; do
  unset "$name"
done < <(compgen -e | grep '^PRISTI_')

# Runs pristi_paper with the given flags; stops the test if it fails.
run() {
  "$paper" "$@" > "$tmp/run.out" 2>&1
  local code=$?
  if [ "$code" -ne 0 ]; then
    cat "$tmp/run.out" >&2
    echo "FAIL: pristi_paper $* exited $code" >&2
    exit 1
  fi
}
run --only=fig6 --out="$tmp/alone"
run --only=table5,fig6 --out="$tmp/shared"

failures=0
if ! cmp "$tmp/alone/fig6_case_study.csv" "$tmp/shared/fig6_case_study.csv"
then
  echo "FAIL: fig6 CSV differs after table5 shared its fit" >&2
  failures=$((failures + 1))
fi
grep -q '^pristi_paper: 4 imputer fits (2 diffusion)' "$tmp/run.out" || {
  echo "FAIL: table5,fig6 did not fit each model once:" >&2
  grep '^pristi_paper: ' "$tmp/run.out" >&2
  failures=$((failures + 1))
}

if [ "$failures" -ne 0 ]; then
  echo "paper_shared_fit: $failures failure(s)" >&2
  exit 1
fi
echo "paper_shared_fit: OK"
