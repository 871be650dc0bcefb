// Tests for common utilities: RNG determinism, table/CSV emission, the
// fork-join parallel loop (including its argument-validation checks).

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace pristi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitStreamsAreIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.Split();
  double c1 = child.Uniform();
  // Re-derive: same parent seed, same split point -> same child stream.
  Rng parent2(7);
  Rng child2 = parent2.Split();
  EXPECT_DOUBLE_EQ(c1, child2.Uniform());
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 5);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(9);
  auto perm = rng.Permutation(20);
  std::vector<bool> seen(20, false);
  for (int64_t v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 20);
    EXPECT_FALSE(seen[static_cast<size_t>(v)]);
    seen[static_cast<size_t>(v)] = true;
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(TablePrinter, TextLayout) {
  TablePrinter table({"method", "mae"});
  table.AddRow({"PriSTI", TablePrinter::Num(1.2345, 2)});
  std::string text = table.ToText();
  EXPECT_NE(text.find("method"), std::string::npos);
  EXPECT_NE(text.find("PriSTI"), std::string::npos);
  EXPECT_NE(text.find("1.23"), std::string::npos);
}

TEST(TablePrinter, CsvEscaping) {
  TablePrinter table({"a", "b"});
  table.AddRow({"with,comma", "with\"quote"});
  std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Env, FallbacksApply) {
  // Deliberately-unset name; not a real knob, so keep it out of the
  // env.h registry.
  // pristi-lint: allow-env-registry
  EXPECT_EQ(GetEnvOr("PRISTI_DEFINITELY_UNSET_VAR", "dflt"), "dflt");
  // pristi-lint: allow-env-registry
  EXPECT_EQ(GetEnvIntOr("PRISTI_DEFINITELY_UNSET_VAR", 17), 17);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const int64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroLengthRangeIsNoOp) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, [&](int64_t, int64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, LargeMinChunkRunsInline) {
  // min_chunk >= total caps the worker count at one, so the whole range
  // arrives in a single inline call.
  std::atomic<int> calls{0};
  ParallelFor(
      0, 100,
      [&](int64_t begin, int64_t end) {
        calls++;
        EXPECT_EQ(begin, 0);
        EXPECT_EQ(end, 100);
      },
      /*min_chunk=*/100);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForDeathTest, InvertedRangeIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ParallelFor(10, 0, [](int64_t, int64_t) {}),
               "begin <= end");
}

TEST(ParallelForDeathTest, NonPositiveMinChunkIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ParallelFor(0, 10, [](int64_t, int64_t) {}, /*min_chunk=*/0),
               "min_chunk >= 1");
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  // A ParallelFor issued from inside a worker must not re-enter the pool
  // (the pool has no free threads to give it); it runs inline on the
  // calling worker. Every inner index must still be covered exactly once.
  const int64_t outer = 64, inner = 32;
  std::vector<std::atomic<int>> hits(static_cast<size_t>(outer * inner));
  for (auto& h : hits) h.store(0);
  std::atomic<int> nested_inline{0};
  ParallelFor(0, outer, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      EXPECT_TRUE(InParallelRegion());
      ParallelFor(0, inner, [&](int64_t ib, int64_t ie) {
        if (InParallelRegion()) nested_inline++;
        for (int64_t j = ib; j < ie; ++j) {
          hits[static_cast<size_t>(i * inner + j)]++;
        }
      });
    }
  });
  EXPECT_FALSE(InParallelRegion());
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "flat index " << i;
  }
  EXPECT_GT(nested_inline.load(), 0);
}

TEST(ParallelFor, PropagatesFirstExceptionToCaller) {
  int64_t restore = ParallelThreadCount();
  SetParallelThreadCount(4);
  EXPECT_THROW(
      ParallelFor(0, 1000,
                  [](int64_t begin, int64_t end) {
                    // Thrown by exactly the chunk that covers index 500,
                    // whatever the chunking (including the inline path).
                    if (begin <= 500 && 500 < end) {
                      throw std::runtime_error("chunk failed");
                    }
                  }),
      std::runtime_error);
  SetParallelThreadCount(restore);
  // The pool must stay usable after an exception drained a region.
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ParallelFor, WorkerIdsAreStableAcrossCalls) {
  // The pool is persistent: repeated ParallelFor calls must reuse the same
  // workers (ids drawn from 1..W) instead of spawning fresh threads, and the
  // caller itself participates with its off-pool id 0.
  int64_t restore = ParallelThreadCount();
  SetParallelThreadCount(4);
  EXPECT_EQ(CurrentWorkerId(), 0);
  auto collect_ids = [] {
    std::mutex mu;
    std::set<int64_t> ids;
    ParallelFor(
        0, 64,
        [&](int64_t, int64_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          std::lock_guard<std::mutex> lock(mu);
          ids.insert(CurrentWorkerId());
        },
        /*min_chunk=*/1);
    return ids;
  };
  std::set<int64_t> first = collect_ids();
  for (int64_t id : first) {
    EXPECT_GE(id, 0);
    EXPECT_LE(id, 4);
  }
  // Ten more rounds: no id outside the first round's pool ever appears
  // above the pool size — worker threads are reused, not respawned.
  for (int round = 0; round < 10; ++round) {
    for (int64_t id : collect_ids()) {
      EXPECT_LE(id, 4) << "round " << round;
    }
  }
  SetParallelThreadCount(restore);
}

TEST(ParallelFor, ThreadCountRoundTrip) {
  int64_t restore = ParallelThreadCount();
  SetParallelThreadCount(2);
  EXPECT_EQ(ParallelThreadCount(), 2);
  SetParallelThreadCount(1);
  // Single-threaded: everything runs inline on the caller.
  ParallelFor(0, 10, [](int64_t, int64_t) {
    EXPECT_EQ(CurrentWorkerId(), 0);
    EXPECT_TRUE(InParallelRegion());
  });
  SetParallelThreadCount(restore);
  EXPECT_EQ(ParallelThreadCount(), restore);
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 10000; ++i) sink += i;
  (void)sink;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace pristi
