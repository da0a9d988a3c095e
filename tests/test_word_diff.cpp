// Differential suite for the word-parallel sequential engine: every dispatch
// level available on the host must produce output bit-identical to the
// scalar oracle (canonicalized sequential_xor), the systolic machine, and
// the string-based reference, over random and adversarial rows.  The CI
// build matrix runs this file both with and without the AVX2 kernel
// compiled, so a lane-width bug cannot hide behind the build host's ISA.

#include "baseline/word_diff.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "baseline/sequential_diff.hpp"
#include "baseline/simd_dispatch.hpp"
#include "common/assert.hpp"
#include "core/systolic_diff.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

using sysrle::testing::random_row;
using sysrle::testing::reference_xor;

/// All word levels (everything but kScalar) usable on this host.
std::vector<SimdLevel> word_levels() {
  std::vector<SimdLevel> out;
  for (const SimdLevel level : supported_simd_levels())
    if (level != SimdLevel::kScalar) out.push_back(level);
  return out;
}

/// Canonical XOR via the scalar oracle.
RleRow oracle(const RleRow& a, const RleRow& b) {
  RleRow out = sequential_xor(a, b).output;
  out.canonicalize();
  return out;
}

/// Restores the ambient dispatch level when a test overrides it.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : saved_(active_simd_level()) {
    set_simd_level(level);
  }
  ~ScopedSimdLevel() { set_simd_level(saved_); }

 private:
  SimdLevel saved_;
};

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSwar64,
                                SimdLevel::kAvx2, SimdLevel::kNeon})
    EXPECT_EQ(parse_simd_level(to_string(level)), level);
  EXPECT_THROW(parse_simd_level("avx512"), contract_error);
  EXPECT_THROW(parse_simd_level(""), contract_error);
}

TEST(SimdDispatch, ScalarAndSwarAlwaysSupported) {
  EXPECT_TRUE(simd_level_supported(SimdLevel::kScalar));
  EXPECT_TRUE(simd_level_supported(SimdLevel::kSwar64));
  // The best level is never the oracle: scalar exists for differential
  // testing, not as a dispatch target of choice.
  EXPECT_NE(detect_best_simd_level(), SimdLevel::kScalar);
}

TEST(SimdDispatch, SetAndReadBack) {
  for (const SimdLevel level : supported_simd_levels()) {
    ScopedSimdLevel guard(level);
    EXPECT_EQ(active_simd_level(), level);
  }
}

TEST(SimdDispatch, RejectsUnsupportedLevel) {
  for (const SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (!simd_level_supported(level)) {
      EXPECT_THROW(set_simd_level(level), contract_error);
    }
  }
}

// ---------------------------------------------------------------- identity

/// Adversarial row pairs targeting the packing/extraction boundaries.
std::vector<std::pair<RleRow, RleRow>> adversarial_pairs() {
  std::vector<std::pair<RleRow, RleRow>> out;
  // Runs ending exactly at 64-bit word boundaries.
  out.push_back({RleRow{{0, 64}}, RleRow{{32, 64}}});
  out.push_back({RleRow{{0, 64}, {128, 64}}, RleRow{{64, 64}}});
  // Runs starting exactly at word boundaries.
  out.push_back({RleRow{{64, 1}}, RleRow{{63, 2}}});
  out.push_back({RleRow{{64, 64}, {192, 64}}, RleRow{{64, 64}, {192, 64}}});
  // Single-pixel runs straddling word boundaries.
  out.push_back({RleRow{{63, 1}}, RleRow{{64, 1}}});
  out.push_back({RleRow{{63, 2}}, RleRow{{127, 2}}});
  // All-ones multi-word extents.
  out.push_back({RleRow{{0, 256}}, RleRow{{0, 256}}});
  out.push_back({RleRow{{0, 256}}, RleRow{}});
  out.push_back({RleRow{{0, 300}}, RleRow{{100, 100}}});
  // Empty rows and empty diffs.
  out.push_back({RleRow{}, RleRow{}});
  out.push_back({RleRow{{5, 3}}, RleRow{{5, 3}}});
  // Full-width-style runs with interior single-bit flips.
  out.push_back({RleRow{{0, 1000}}, RleRow{{0, 511}, {512, 488}}});
  // Far-apart sparse runs (exercises the sparse scalar fallback guard).
  out.push_back({RleRow{{0, 1}}, RleRow{{1000000, 1}}});
  out.push_back({RleRow{{3, 2}, {999999, 3}}, RleRow{{500000, 1}}});
  // Adjacent runs in the input (legal, non-canonical).
  out.push_back({RleRow{{0, 4}, {4, 4}}, RleRow{{2, 4}}});
  // Identical-pair skips on the merge branch: wide sparse rows stay under
  // the run-density guard.
  const RleRow sparse{{10, 5}, {1000, 7}, {5000, 3}, {9000, 9}};
  out.push_back({sparse, sparse});  // identical: empty XOR
  out.push_back({sparse, RleRow{{11, 4}, {1000, 7}, {5000, 3}, {9000, 9}}});
  out.push_back({sparse, RleRow{{10, 5}, {1000, 7}, {5000, 3}, {9000, 8}}});
  // b splits a's second run: the later identical pairs sit at shifted
  // indices.
  out.push_back({sparse,
                 RleRow{{10, 5}, {1000, 2}, {1004, 3}, {5000, 3}, {9000, 9}}});
  // A mismatched window ending exactly at a skipped pair, and one whose
  // diff run [995, 999] ends right before the skipped run at 1000 (the
  // output must not merge across, nor split, at the skip).
  out.push_back({sparse, RleRow{{10, 10}, {1000, 7}, {5000, 3}, {9000, 9}}});
  out.push_back({RleRow{{10, 5}, {990, 5}, {1000, 7}, {5000, 3}},
                 RleRow{{10, 5}, {990, 10}, {1000, 7}, {5000, 3}}});
  // Adjacent (non-canonical) input runs next to a skipped pair.
  out.push_back({RleRow{{10, 5}, {15, 5}, {1000, 7}, {5000, 3}},
                 RleRow{{10, 10}, {1000, 7}, {5000, 3}}});
  out.push_back({RleRow{{10, 5}, {1000, 7}, {1007, 2}, {5000, 3}},
                 RleRow{{10, 5}, {1000, 7}, {5000, 3}}});
  // One empty side: a canonical copy of the other.
  out.push_back({RleRow{{10, 5}, {15, 5}, {1000, 7}}, RleRow{}});
  out.push_back({RleRow{}, sparse});
  return out;
}

TEST(WordDiff, AdversarialRowsMatchOracleAtEveryLevel) {
  for (const auto& [a, b] : adversarial_pairs()) {
    const RleRow expected = oracle(a, b);
    for (const SimdLevel level : supported_simd_levels()) {
      ScopedSimdLevel guard(level);
      const SequentialDiffResult r = sequential_engine_xor(a, b);
      EXPECT_EQ(r.output, expected)
          << "level=" << to_string(level) << " a=" << a << " b=" << b;
      EXPECT_TRUE(r.output.is_canonical());
    }
  }
}

TEST(WordDiff, WordParallelCoreMatchesOracleDirectly) {
  // word_parallel_xor without the wrapper: non-empty rows at every word
  // level, including boundary-heavy shapes.
  WordDiffScratch scratch;
  for (const auto& [a, b] : adversarial_pairs()) {
    if (a.empty() || b.empty()) continue;
    const RleRow expected = oracle(a, b);
    for (const SimdLevel level : word_levels()) {
      const SequentialDiffResult r = word_parallel_xor(a, b, scratch, level);
      EXPECT_EQ(r.output, expected) << "level=" << to_string(level);
      EXPECT_GT(r.iterations, 0u);
    }
  }
}

TEST(WordDiff, RandomRowsMatchOracleSystolicAndReferenceAtEveryLevel) {
  Rng rng(9001);
  for (int trial = 0; trial < 200; ++trial) {
    const pos_t width = rng.uniform(1, 700);
    const RleRow a = random_row(rng, width, rng.uniform01());
    const RleRow b = random_row(rng, width, rng.uniform01());
    const RleRow expected = reference_xor(a, b, width);
    ASSERT_EQ(oracle(a, b), expected);
    ASSERT_EQ(systolic_xor(a, b).output.canonical(), expected);
    for (const SimdLevel level : supported_simd_levels()) {
      ScopedSimdLevel guard(level);
      EXPECT_EQ(sequential_engine_xor(a, b).output, expected)
          << "trial " << trial << " level=" << to_string(level);
    }
  }
}

TEST(WordDiff, GeneratedWorkloadPairsMatchAtEveryLevel) {
  // The bench workload generator (wide sparse rows + error injection),
  // i.e. the distribution θ was re-calibrated on.
  Rng rng(9002);
  RowGenParams rp;
  ErrorGenParams ep;
  for (int trial = 0; trial < 50; ++trial) {
    ep.error_fraction = rng.uniform01() * 0.3;
    const RowPairSample s = generate_pair(rng, rp, ep);
    const RleRow expected = oracle(s.first, s.second);
    for (const SimdLevel level : supported_simd_levels()) {
      ScopedSimdLevel guard(level);
      EXPECT_EQ(sequential_engine_xor(s.first, s.second).output, expected);
    }
  }
}

TEST(WordDiff, SparseGuardRoutesUltraSparseWideRowsToScalar) {
  // Two single-pixel runs a megapixel apart: the packed pass would scan
  // ~15k words for k1+k2 = 2 runs.  The engine must not pay that; its
  // iteration count stays within the scalar merge's Θ(k1+k2) regime.
  const RleRow a{{0, 1}};
  const RleRow b{{1000000, 1}};
  for (const SimdLevel level : word_levels()) {
    ScopedSimdLevel guard(level);
    const SequentialDiffResult r = sequential_engine_xor(a, b);
    EXPECT_EQ(r.output, oracle(a, b));
    EXPECT_LE(r.iterations, a.run_count() + b.run_count())
        << "sparse guard missing at level " << to_string(level);
  }
}

TEST(WordDiff, IterationsAreDeterministicAcrossThreads) {
  // The engine keeps thread_local scratch; the routing decision and the
  // iteration count depend only on the inputs, so concurrent use from many
  // threads must agree with the serial answer.
  Rng rng(9003);
  std::vector<std::pair<RleRow, RleRow>> pairs;
  for (int i = 0; i < 64; ++i) {
    const pos_t width = rng.uniform(1, 500);
    pairs.push_back(
        {random_row(rng, width, 0.4), random_row(rng, width, 0.4)});
  }
  std::vector<SequentialDiffResult> serial;
  for (const auto& [a, b] : pairs) serial.push_back(sequential_engine_xor(a, b));

  std::vector<SequentialDiffResult> parallel(pairs.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < pairs.size();
           i += 4)
        parallel[i] = sequential_engine_xor(pairs[i].first, pairs[i].second);
    });
  for (auto& w : workers) w.join();

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(parallel[i].output, serial[i].output);
    EXPECT_EQ(parallel[i].iterations, serial[i].iterations);
  }
}

}  // namespace
}  // namespace sysrle
