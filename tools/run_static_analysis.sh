#!/usr/bin/env bash
# Static-analysis + sanitizer matrix driver.
#
# Legs, in order (each independently gating):
#   1. analyze     — build the pristi_analyze engine and run every pass
#                    over the checkout (seconds; also `--analyze-only`).
#   2. werror      — a -Werror leg: the tree already builds with
#                    -Wall -Wextra, this leg promotes them so new warnings
#                    gate instead of scrolling by.
#   3. sanitizers  — for each preset (default "address+undefined thread",
#                    override with PRISTI_SANITIZE_CONFIGS), a dedicated
#                    build tree with -DPRISTI_SANITIZE=<preset> running the
#                    gating ctest suite under instrumented binaries
#                    (`-LE bench`: the perf sweeps measure throughput and
#                    the parity sweep trains a model — their code paths
#                    are exercised by the gating suites, and a training
#                    run under TSan would dominate the matrix runtime).
#                    RelWithDebInfo keeps optimized codegen (so data races
#                    in the batch-parallel kernels still manifest) while
#                    retaining debug info; PRISTI_DEBUG_CHECKS=ON keeps
#                    PRISTI_DCHECK live despite NDEBUG; PRISTI_THREADS=4
#                    forces ParallelFor to actually spawn workers.
#   4. native-biteq — bit-identity suites on the host's native arch (the
#                    sanitizer legs build with PRISTI_NATIVE_ARCH=OFF,
#                    where baseline x86-64 has no FMA and can never
#                    contract mul/add chains — exactly the configuration
#                    that masks a missing -ffp-contract=off). Skip with
#                    PRISTI_NATIVE_BITEQ=0.
#
# Usage: run_static_analysis.sh [--analyze-only]
#   --analyze-only  run only leg 1: configure/build the analyzer and run
#                   `ctest -L analysis` (pristi_analyze + lint_test).
#                   The fast pre-commit gate.
#
# Exits nonzero if any configure, build, or test step fails (including a
# sanitizer report, since -fno-sanitize-recover=all makes reports fatal,
# and including any pristi_analyze violation).

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
configs="${PRISTI_SANITIZE_CONFIGS:-address+undefined thread}"
jobs="$(nproc 2>/dev/null || echo 4)"
status=0
analyze_only=0

for arg in "$@"; do
  case "$arg" in
    --analyze-only) analyze_only=1 ;;
    *)
      echo "usage: $0 [--analyze-only]" >&2
      exit 2
      ;;
  esac
done

# ---- leg 1: pristi_analyze -------------------------------------------------
build_dir="$repo_root/build-analyze"
echo "==== [analyze] configure -> $build_dir ===="
if cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
    && cmake --build "$build_dir" -j "$jobs" \
        --target pristi_analyze lint_test \
    && (cd "$build_dir" && ctest --output-on-failure -j "$jobs" -L analysis); then
  echo "==== [analyze] OK ===="
else
  echo "==== [analyze] FAILED ===="
  status=1
fi

if [ "$analyze_only" -eq 1 ]; then
  if [ "$status" -ne 0 ]; then
    echo "run_static_analysis: analyzer violations (see log above)"
  else
    echo "run_static_analysis: analyzer clean"
  fi
  exit "$status"
fi

# ---- leg 2: warnings-as-errors ---------------------------------------------
build_dir="$repo_root/build-werror"
echo "==== [werror] configure -> $build_dir ===="
if cmake -S "$repo_root" -B "$build_dir" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror \
    && cmake --build "$build_dir" -j "$jobs"; then
  echo "==== [werror] OK ===="
else
  echo "==== [werror] FAILED ===="
  status=1
fi

# ---- leg 3: sanitizer matrix -----------------------------------------------
for mode in $configs; do
  build_dir="$repo_root/build-san-${mode//+/-}"
  echo "==== [$mode] configure -> $build_dir ===="
  if ! cmake -S "$repo_root" -B "$build_dir" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPRISTI_SANITIZE="$mode" \
      -DPRISTI_NATIVE_ARCH=OFF \
      -DPRISTI_DEBUG_CHECKS=ON; then
    echo "==== [$mode] CONFIGURE FAILED ===="
    status=1
    continue
  fi
  echo "==== [$mode] build ===="
  if ! cmake --build "$build_dir" -j "$jobs"; then
    echo "==== [$mode] BUILD FAILED ===="
    status=1
    continue
  fi
  echo "==== [$mode] ctest ===="
  if ! (cd "$build_dir" && \
        ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
        UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
        TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:die_after_fork=0}" \
        PRISTI_THREADS="${PRISTI_THREADS:-4}" \
        ctest --output-on-failure -j "$jobs" -LE bench); then
    echo "==== [$mode] TESTS FAILED ===="
    status=1
    continue
  fi
  echo "==== [$mode] OK ===="
done

# ---- leg 4: native-arch bit-identity ---------------------------------------
if [ "${PRISTI_NATIVE_BITEQ:-1}" != "0" ]; then
  build_dir="$repo_root/build-native-biteq"
  echo "==== [native-biteq] configure -> $build_dir ===="
  if cmake -S "$repo_root" -B "$build_dir" \
      -DCMAKE_BUILD_TYPE=Release \
      -DPRISTI_NATIVE_ARCH=ON \
      -DPRISTI_DEBUG_CHECKS=ON \
      && cmake --build "$build_dir" -j "$jobs" \
      && (cd "$build_dir" && PRISTI_THREADS="${PRISTI_THREADS:-4}" \
          ctest --output-on-failure -j "$jobs" -LE bench); then
    echo "==== [native-biteq] OK ===="
  else
    echo "==== [native-biteq] FAILED ===="
    status=1
  fi
fi

# ---- leg 5: shard-parallel training bit-identity ---------------------------
# Trains the same seeded task twice through pristi_cli — 1 shard on 1 thread
# vs 4 shards on 4 threads — and byte-compares the final model checkpoints.
# This is the sharded engine's contract (diffusion/sharded_train.h) enforced
# end-to-end through the CLI, the env knob and the serializer. Skip with
# PRISTI_SHARD_BITEQ=0.
if [ "${PRISTI_SHARD_BITEQ:-1}" != "0" ]; then
  build_dir="$repo_root/build-shard-biteq"
  echo "==== [shard-biteq] configure -> $build_dir ===="
  shard_tmp="$build_dir/shard-biteq-out"
  if cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
      && cmake --build "$build_dir" -j "$jobs" --target pristi_cli \
      && mkdir -p "$shard_tmp" \
      && PRISTI_THREADS=1 PRISTI_TRAIN_SHARDS=1 "$build_dir/tools/pristi_cli" \
          train --preset=aqi --nodes=12 --gen-steps=120 --window=8 \
          --stride=8 --epochs=2 --batch=4 --steps-diffusion=8 \
          --model-out="$shard_tmp/k1.ckpt" > "$shard_tmp/k1.log" 2>&1 \
      && PRISTI_THREADS=4 PRISTI_TRAIN_SHARDS=4 "$build_dir/tools/pristi_cli" \
          train --preset=aqi --nodes=12 --gen-steps=120 --window=8 \
          --stride=8 --epochs=2 --batch=4 --steps-diffusion=8 \
          --model-out="$shard_tmp/k4.ckpt" > "$shard_tmp/k4.log" 2>&1 \
      && cmp "$shard_tmp/k1.ckpt" "$shard_tmp/k4.ckpt"; then
    echo "==== [shard-biteq] OK (1-shard/1-thread == 4-shard/4-thread) ===="
  else
    echo "==== [shard-biteq] FAILED ===="
    status=1
  fi
fi

# ---- leg 6: fused-attention sampler-output parity ---------------------------
# Trains a tiny seeded model once, then imputes the same task twice through
# pristi_cli — PRISTI_ATTN_FUSED=1 vs PRISTI_ATTN_FUSED=0 — and compares the
# completed-series CSVs cell by cell under a tolerance. The fused kernel's
# contract is <= 1e-5 vs the reference per attention forward; through the
# full reverse-diffusion chain and denormalization the divergence stays far
# below 0.05 in data units, while a wrong attention output diverges by
# orders of magnitude more. Skip with PRISTI_ATTN_PARITY=0.
if [ "${PRISTI_ATTN_PARITY:-1}" != "0" ]; then
  build_dir="$repo_root/build-shard-biteq"
  echo "==== [attn-parity] configure -> $build_dir ===="
  attn_tmp="$build_dir/attn-parity-out"
  attn_flags="--preset=aqi --nodes=12 --gen-steps=120 --window=8 --stride=8"
  if cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
      && cmake --build "$build_dir" -j "$jobs" --target pristi_cli \
      && mkdir -p "$attn_tmp" \
      && "$build_dir/tools/pristi_cli" train $attn_flags \
          --epochs=2 --batch=4 --steps-diffusion=8 \
          --model-out="$attn_tmp/model.ckpt" > "$attn_tmp/train.log" 2>&1 \
      && PRISTI_ATTN_FUSED=1 "$build_dir/tools/pristi_cli" impute \
          $attn_flags --steps-diffusion=8 --samples=4 --seed=5 \
          --model="$attn_tmp/model.ckpt" \
          --out="$attn_tmp/fused.csv" > "$attn_tmp/fused.log" 2>&1 \
      && PRISTI_ATTN_FUSED=0 "$build_dir/tools/pristi_cli" impute \
          $attn_flags --steps-diffusion=8 --samples=4 --seed=5 \
          --model="$attn_tmp/model.ckpt" \
          --out="$attn_tmp/reference.csv" > "$attn_tmp/reference.log" 2>&1 \
      && awk -F, -v tol=0.05 '
          NR == FNR { a[FNR] = $0; rows = FNR; next }
          {
            n = split(a[FNR], x, ",");
            if (n != NF) { print "column count mismatch at line " FNR; bad = 1; exit 1 }
            for (i = 1; i <= NF; ++i) {
              # Empty cells (masked-missing in the CSV format) must agree
              # on emptiness; numeric cells compare under tol.
              if (x[i] == "" || $i == "") {
                if (x[i] != $i) { print "emptiness mismatch line " FNR " col " i; bad = 1; exit 1 }
                continue;
              }
              d = x[i] - $i; if (d < 0) d = -d;
              if (d > max) max = d;
              if (d > tol) {
                print "parity exceeded at line " FNR " col " i ": " x[i] " vs " $i " (|d|=" d ")";
                bad = 1; exit 1;
              }
            }
          }
          END {
            if (!bad && FNR != rows) { print "row count mismatch"; bad = 1 }
            if (!bad) printf "max |fused - reference| = %.3g (tol %.3g)\n", max, tol;
            exit bad;
          }' "$attn_tmp/fused.csv" "$attn_tmp/reference.csv"; then
    echo "==== [attn-parity] OK (fused-on == fused-off within tolerance) ===="
  else
    echo "==== [attn-parity] FAILED ===="
    status=1
  fi
fi

if [ "$status" -ne 0 ]; then
  echo "run_static_analysis: FAILURES detected (see logs above)"
else
  echo "run_static_analysis: all legs clean"
fi
exit "$status"
