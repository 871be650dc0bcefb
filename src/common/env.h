#ifndef PRISTI_COMMON_ENV_H_
#define PRISTI_COMMON_ENV_H_

// Environment-variable knobs: the accessors (GetEnvOr / GetEnvIntOr) and
// the registry of every PRISTI_* knob the tree reads.
//
// The block between the markers below is machine-checked by the
// env-registry pass of pristi_analyze: every `getenv`/`GetEnvOr` of a
// PRISTI_* name anywhere in src/, tools/, tests/ or bench/ (including
// tools/*.sh) must be declared here, and every declared knob must be read
// somewhere. Keep one `//   PRISTI_NAME  <default — effect>` line per
// knob; continuation lines are free-form.
//
// pristi-env-registry-begin
//
// Threads and debugging:
//   PRISTI_THREADS  0 — worker-thread count for the persistent
//          ParallelFor pool (src/common/parallel.cc); 0/unset means
//          hardware concurrency. Also honored by the sanitizer matrix in
//          tools/run_static_analysis.sh.
//   PRISTI_DEBUG_NANCHECK  0 — 1 enables the non-finite-value canary in
//          debug checks (src/common/check.cc): tensors are scanned for
//          NaN/Inf at checkpoints, at a large cost.
//
// Test and CI harness:
//   PRISTI_REGEN_GOLDEN  unset — when set, golden-file tests
//          (serialize_test, sharded_train_test, sampler_equivalence_test,
//          attention_fused_test, baselines_test) rewrite their checked-in
//          golden artifacts instead of comparing against them.
//   PRISTI_SANITIZE_CONFIGS  "address+undefined thread" — which sanitizer
//          configs tools/run_static_analysis.sh builds and tests.
//   PRISTI_NATIVE_BITEQ  1 — 0 skips the -march=native bit-identity leg
//          of tools/run_static_analysis.sh.
//
// pristi-env-registry-end

#include <cstdlib>
#include <string>

namespace pristi {

inline std::string GetEnvOr(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::string(value) : fallback;
}

inline int64_t GetEnvIntOr(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<int64_t>(parsed);
}

}  // namespace pristi

#endif  // PRISTI_COMMON_ENV_H_
