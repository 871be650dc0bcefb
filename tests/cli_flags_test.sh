#!/usr/bin/env bash
# Bad pristi_cli and pristi_paper inputs fail with a typed message, never a
# CHECK abort.
#
# Usage: cli_flags_test.sh <path to pristi_cli> <path to pristi_paper>
#
# Each case below — an unknown --preset, --pattern, --sampler or --method,
# --samples=0, a --heads that does not divide --channels, a CSDI --layers or
# --channels of 0, a --window longer
# than the training range, --nodes=0, --batch=0, --epochs=0, a --lr that is
# not > 0, --steps-diffusion below 2, a negative --steps, a `generate
# --steps` (the series length is --gen-steps in every subcommand), a --model
# checkpoint that cannot be
# loaded, a --data file that is a model checkpoint or of the retired
# PRISTI1D format, an `inspect` without --file, a --resume checkpoint that
# is missing, damaged or already past --epochs, and an --out, --csv or
# --model-out file that cannot be written — must exit 1 with a
# "pristi_cli: " line on stderr and no "Check failed".
# None may train first: an unwritable --model-out fails before epoch 0 and
# leaves an existing checkpoint there intact. A flag `train` does not read
# (a sampler flag, or --ema-decay) trains normally and is reported as unused.
#
# `inspect` lists meta.kind and the tensor shapes of a generated dataset and
# of a saved checkpoint and exits 0; one flipped payload byte makes it exit
# 1 with "damage detected".
#
# pristi_paper: an unknown flag, argument, --scale or --only name, and an
# --out where no CSV can be written, exit 1 with a "pristi_paper: " line
# before the first experiment starts.
#
# Exits 1 on any failure.

set -u

cli="$1"
paper="$2"
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

# A small dataset keeps the cases that train or impute before failing fast.
data="$tmp/d.bin"
"$cli" generate --preset=aqi --nodes=6 --gen-steps=96 --out="$data" \
  > "$tmp/setup.out" 2>&1 || { cat "$tmp/setup.out" >&2; exit 1; }
"$cli" evaluate --data="$data" --method=mean > "$tmp/setup.out" 2>&1 ||
  fail "evaluate --method=mean on a good dataset exited $?"

missing="$tmp/no_such_dir"
# `train` reads no sampler flag, so its small settings leave --samples out.
small="--data=$data --samples=2 --steps-diffusion=4"
train_small="--data=$data --steps-diffusion=4"
# A checkpoint whose save temporary cannot be opened (a directory sits at
# its name) must survive a train that fails on it.
kept="$tmp/kept.ckpt"
"$cli" save --data="$data" --out="$kept" > "$tmp/setup.out" 2>&1 ||
  { cat "$tmp/setup.out" >&2; exit 1; }
cp "$kept" "$tmp/kept.orig"
mkdir "$kept.tmp"
# A training checkpoint two epochs in, and a file that is not a checkpoint.
"$cli" train $train_small --epochs=2 --checkpoint-dir="$tmp/ck" \
  --model-out="$tmp/ck.model" > "$tmp/setup.out" 2>&1 ||
  { cat "$tmp/setup.out" >&2; exit 1; }
printf 'not a checkpoint' > "$tmp/damaged.ckpt"
# The header of a dataset written by the retired PRISTI1D format: its
# little-endian uint64 magic, a two-byte name and steps_per_day.
printf 'D1ITSIRP\002\0\0\0\0\0\0\0ds\030\0\0\0\0\0\0\0' > "$tmp/legacy.bin"
cases=(
  "generate --preset=bogus --out=$tmp/g.bin"
  "evaluate --preset=bogus --method=mean"
  "evaluate --data=$data --pattern=bogus --method=mean"
  "impute $small --sampler=bogus --out=$tmp/i.csv"
  "evaluate --data=$data --method=bogus"
  "impute --data=$data --samples=0 --out=$tmp/i.csv"
  "impute $small --model=/nonexistent --out=$tmp/i.csv"
  "evaluate --data=$kept --method=mean"
  "evaluate --data=$tmp/legacy.bin --method=mean"
  "inspect"
  "generate --preset=aqi --nodes=4 --gen-steps=48 --out=$missing/g.bin"
  "generate --preset=aqi --nodes=4 --gen-steps=48 --out=$tmp/g.bin --csv=$missing/g.csv"
  "impute $small --out=$missing/i.csv"
  "train $train_small --epochs=1 --model-out=$missing/m.ckpt"
  "train $train_small --epochs=1 --model-out=$kept"
  "impute $small --heads=3 --out=$tmp/i.csv"
  "train $train_small --epochs=1 --heads=0 --model-out=$tmp/m.ckpt"
  "evaluate --data=$data --method=csdi --epochs=1 --heads=5"
  "evaluate --data=$data --method=csdi --epochs=1 --layers=0"
  "evaluate --data=$data --method=csdi --epochs=1 --channels=0"
  "evaluate --data=$data --window=100000 --method=mean"
  "generate --preset=aqi --nodes=0 --out=$tmp/g.bin"
  "train $train_small --epochs=1 --resume=$missing/r.ckpt --model-out=$tmp/m.ckpt"
  "train $train_small --epochs=1 --resume=$tmp/damaged.ckpt --model-out=$tmp/m.ckpt"
  "train $train_small --epochs=1 --resume=$tmp/ck/ckpt-2.ckpt --model-out=$tmp/m.ckpt"
  "train $train_small --epochs=1 --batch=0 --model-out=$tmp/m.ckpt"
  "train $train_small --epochs=0 --model-out=$tmp/m.ckpt"
  "train $train_small --epochs=1 --lr=-1 --model-out=$tmp/m.ckpt"
  "train --data=$data --epochs=1 --steps-diffusion=0 --model-out=$tmp/m.ckpt"
  "evaluate --data=$data --method=pristi --epochs=1 --steps-diffusion=1"
  "impute $small --steps=-3 --out=$tmp/i.csv"
  "generate --preset=aqi --nodes=4 --steps=48 --out=$tmp/g.bin"
)
for args in "${cases[@]}"; do
  # shellcheck disable=SC2086  # each case is a word-split argument list
  "$cli" $args > "$tmp/case.out" 2> "$tmp/case.err"
  code=$?
  [ "$code" -eq 1 ] || fail "'$args' exited $code, want 1"
  grep -q 'Check failed' "$tmp/case.err" && fail "'$args' aborted"
  grep -q '^pristi_cli: ' "$tmp/case.err" ||
    fail "'$args' printed no pristi_cli: message"
  grep -q '^epoch' "$tmp/case.out" && fail "'$args' trained before failing"
done
# A regular file where --out needs a directory, and a CSV path taken by a
# directory.
touch "$tmp/file"
mkdir -p "$tmp/taken/table3_overall_mae_mse.csv"
paper_cases=(
  "--scale=Full"
  "--scale=mid"
  "--only=table7"
  "--only=,table3"
  "--seeds=5"
  "table3"
  "--out=$tmp/file"
  "--out=$tmp/file/sub --only=fig6"
  "--out=$tmp/taken --only=table3"
)
for args in "${paper_cases[@]}"; do
  # shellcheck disable=SC2086  # each case is a word-split argument list
  "$paper" $args > "$tmp/case.out" 2> "$tmp/case.err"
  code=$?
  [ "$code" -eq 1 ] || fail "pristi_paper '$args' exited $code, want 1"
  grep -q 'Check failed' "$tmp/case.err" && fail "pristi_paper '$args' aborted"
  grep -q '^pristi_paper: ' "$tmp/case.err" ||
    fail "pristi_paper '$args' printed no pristi_paper: message"
  [ -s "$tmp/case.out" ] && fail "pristi_paper '$args' ran before failing"
done

# The old series-length spelling names the one that replaced it.
"$cli" generate --preset=aqi --nodes=4 --steps=48 --out="$tmp/len.bin" \
  > /dev/null 2> "$tmp/case.err"
grep -q -- '--gen-steps' "$tmp/case.err" ||
  fail "'generate --steps' did not name --gen-steps"
[ -e "$tmp/len.bin" ] && fail "'generate --steps' wrote a dataset"

# `inspect` on a generated dataset and on a saved checkpoint; a flipped byte
# in the last tensor's payload (just before its CRC and the 20-byte end
# record) is reported as damage.
"$cli" inspect --file="$data" > "$tmp/inspect.out" 2>&1 ||
  fail "inspect on a dataset exited $?"
for want in 'meta.kind' 'dataset.name' 'dataset.steps_per_day' \
    'dataset.values .*shape \[96, 6\]' \
    'dataset.observed_mask .*shape \[96, 6\]' \
    'dataset.coords .*shape \[6, 2\]'; do
  grep -q "$want" "$tmp/inspect.out" ||
    fail "inspect on a dataset did not list '$want'"
done
"$cli" inspect --file="$tmp/kept.orig" > "$tmp/inspect.out" 2>&1 ||
  fail "inspect on a checkpoint exited $?"
grep -q 'meta.kind' "$tmp/inspect.out" ||
  fail "inspect on a checkpoint did not list meta.kind"
grep -q 'model\..*shape \[' "$tmp/inspect.out" ||
  fail "inspect on a checkpoint listed no tensor shape"
for file in "$data" "$tmp/kept.orig"; do
  cp "$file" "$tmp/flipped"
  size=$(wc -c < "$tmp/flipped")
  offset=$((size - 25))
  byte=$(od -An -tu1 -j "$offset" -N1 "$tmp/flipped" | tr -d ' ')
  printf "$(printf '\\%03o' $((byte ^ 1)))" |
    dd of="$tmp/flipped" bs=1 seek="$offset" conv=notrunc 2> /dev/null
  "$cli" inspect --file="$tmp/flipped" > "$tmp/inspect.out" 2>&1
  code=$?
  [ "$code" -eq 1 ] || fail "inspect on a flipped copy of $file exited $code"
  grep -q 'damage detected' "$tmp/inspect.out" ||
    fail "inspect on a flipped copy of $file reported no damage"
done

# `train` samples nothing: a sampler flag, or --ema-decay (the trainer keeps
# no weight EMA), trains normally and is reported as unused.
for flag in --steps=240 --ema-decay=0.99; do
  # shellcheck disable=SC2086  # $train_small is a word-split argument list
  "$cli" train $train_small --epochs=1 "$flag" --model-out="$tmp/u.ckpt" \
    > "$tmp/case.out" 2> "$tmp/case.err"
  code=$?
  [ "$code" -eq 0 ] || fail "'train $flag' exited $code, want 0"
  grep -q -- "unused flag ${flag%%=*}\$" "$tmp/case.err" ||
    fail "'train $flag' did not report ${flag%%=*} as unused"
done

cmp -s "$kept" "$tmp/kept.orig" ||
  fail "a failed train changed the checkpoint at its --model-out"

if [ "$failures" -ne 0 ]; then
  echo "cli_flags: $failures failure(s)" >&2
  exit 1
fi
echo "cli_flags: OK"
