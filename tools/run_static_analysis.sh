#!/usr/bin/env bash
# Static-analysis + sanitizer matrix driver.
#
# Legs, in order (each independently gating):
#   1. analyze     — build the pristi_analyze engine and run every pass
#                    over the checkout (seconds; also `--analyze-only`).
#                    Also fails if git tracks build output (CMakeCache.txt,
#                    anything under CMakeFiles/, *.o); that check skips
#                    when the tree is not a git checkout.
#   2. werror      — a -Werror leg: the tree already builds with
#                    -Wall -Wextra, this leg promotes them so new warnings
#                    gate instead of scrolling by.
#   3. sanitizers  — for each preset (default "address+undefined thread",
#                    override with PRISTI_SANITIZE_CONFIGS), a dedicated
#                    build tree with -DPRISTI_SANITIZE=<preset> running the
#                    gating ctest suite under instrumented binaries
#                    (`-LE bench`: that label holds the slow assertion
#                    tests — sampler_parity and the quickstart example
#                    train a model and attention_bench peaks near 250 MB;
#                    their code paths are exercised by the gating suites,
#                    and a training run under TSan would dominate the
#                    matrix runtime).
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
#   5. impute-biteq — 1-thread vs 4-thread training, imputation and
#                    serving through pristi_cli: checkpoints, CSVs and
#                    `serve` transcripts (timing fields stripped)
#                    byte-compared.
#
# Training's shard/thread bit-identity and the fused-vs-reference attention
# imputation parity are in-process ctests (sharded_train_test,
# attention_fused_test), so legs 3 and 4 gate them.
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
if git -C "$repo_root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  tracked="$(git -C "$repo_root" ls-files |
    grep -E '(^|/)CMakeCache\.txt$|(^|/)CMakeFiles/|\.o$' || true)"
  if [ -n "$tracked" ]; then
    echo "==== [analyze] git tracks build artefacts: ===="
    echo "$tracked" | head -n 20
    status=1
  fi
else
  echo "==== [analyze] not a git checkout: tracked-artefact check skipped ===="
fi

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

# ---- leg 5: training and imputation thread-count bit-identity --------------
# Trains a tiny seeded model through pristi_cli at PRISTI_THREADS=1 and =4
# and byte-compares the checkpoints, then imputes the same task with it at
# both thread counts and byte-compares the CSVs, then pipes one fixed
# request script into `pristi_cli serve` with it at both thread counts and
# byte-compares the transcripts without their timing-dependent fields
# (batch sizes, latencies and the stats line). At 48 nodes, L=24 and S=4
# the activations exceed the elementwise split floor, so the pooled
# data-movement ops (permute, broadcast, concat/slice), the fused
# elementwise ops and their backward passes, and the per-worker GEMM packing
# really split; the unit suites' N=6 fixtures never do.
build_dir="$repo_root/build-impute-biteq"
echo "==== [impute-biteq] configure -> $build_dir ===="
imp_tmp="$build_dir/impute-biteq-out"
imp_flags="--preset=aqi --nodes=48 --gen-steps=240 --window=24 --stride=24"
serve_script="impute 0 1
impute 24 2
impute 48 3 ddpm 4
impute 100 4 plms 5
wait
impute 216 5 ddim 2
quit"
# Runs the serve script at PRISTI_THREADS=$1 and writes the transcript,
# timing fields stripped, to $2.
serve_transcript() {
  printf '%s\n' "$serve_script" |
    PRISTI_THREADS="$1" "$build_dir/tools/pristi_cli" serve $imp_flags \
      --steps-diffusion=8 --samples=4 --model="$imp_tmp/model.ckpt" \
      2> "$2.err" |
    sed -E 's/ batch=[0-9]+ queue_us=[0-9]+ total_us=[0-9]+//' |
    grep -v '^admitted=' > "$2"
}
if cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
    && cmake --build "$build_dir" -j "$jobs" --target pristi_cli \
    && mkdir -p "$imp_tmp" \
    && PRISTI_THREADS=1 "$build_dir/tools/pristi_cli" train $imp_flags \
        --epochs=1 --batch=4 --steps-diffusion=8 \
        --model-out="$imp_tmp/model.ckpt" > "$imp_tmp/train.log" 2>&1 \
    && PRISTI_THREADS=4 "$build_dir/tools/pristi_cli" train $imp_flags \
        --epochs=1 --batch=4 --steps-diffusion=8 \
        --model-out="$imp_tmp/model-t4.ckpt" > "$imp_tmp/train-t4.log" 2>&1 \
    && cmp "$imp_tmp/model.ckpt" "$imp_tmp/model-t4.ckpt" \
    && PRISTI_THREADS=1 "$build_dir/tools/pristi_cli" impute $imp_flags \
        --steps-diffusion=8 --samples=4 --seed=5 \
        --model="$imp_tmp/model.ckpt" \
        --out="$imp_tmp/t1.csv" > "$imp_tmp/t1.log" 2>&1 \
    && PRISTI_THREADS=4 "$build_dir/tools/pristi_cli" impute $imp_flags \
        --steps-diffusion=8 --samples=4 --seed=5 \
        --model="$imp_tmp/model.ckpt" \
        --out="$imp_tmp/t4.csv" > "$imp_tmp/t4.log" 2>&1 \
    && cmp "$imp_tmp/t1.csv" "$imp_tmp/t4.csv" \
    && serve_transcript 1 "$imp_tmp/serve-t1.out" \
    && serve_transcript 4 "$imp_tmp/serve-t4.out" \
    && grep -q '^request 4: ok ' "$imp_tmp/serve-t1.out" \
    && cmp "$imp_tmp/serve-t1.out" "$imp_tmp/serve-t4.out"; then
  echo "==== [impute-biteq] OK (1-thread == 4-thread training, imputation and serving) ===="
else
  echo "==== [impute-biteq] FAILED ===="
  status=1
fi

if [ "$status" -ne 0 ]; then
  echo "run_static_analysis: FAILURES detected (see logs above)"
else
  echo "run_static_analysis: all legs clean"
fi
exit "$status"
