// Exhaustive small-universe verification: EVERY pair of binary rows of width
// 7 (128 x 128 = 16384 pairs) is pushed through the systolic machine, the
// bus variant and the sequential merge, and compared against string-level
// XOR.  With the per-cell state space fully enumerated in test_diff_cell,
// this closes the gap between "random testing" and "checked everywhere" for
// small instances.

#include <gtest/gtest.h>

#include <string>

#include "baseline/sequential_diff.hpp"
#include "baseline/simd_dispatch.hpp"
#include "baseline/word_diff.hpp"
#include "core/bus_variant.hpp"
#include "core/systolic_diff.hpp"
#include "rle/encode.hpp"

namespace sysrle {
namespace {

constexpr int kWidth = 7;

std::string bits_of(unsigned value) {
  std::string s(kWidth, '0');
  for (int i = 0; i < kWidth; ++i)
    if (value & (1u << i)) s[static_cast<std::size_t>(i)] = '1';
  return s;
}

TEST(Exhaustive, AllWidth7PairsAllEngines) {
  for (unsigned va = 0; va < (1u << kWidth); ++va) {
    const std::string sa = bits_of(va);
    const RleRow a = encode_bitstring(sa);
    for (unsigned vb = 0; vb < (1u << kWidth); ++vb) {
      const std::string sb = bits_of(vb);
      const RleRow b = encode_bitstring(sb);
      const RleRow expected = encode_bitstring(bits_of(va ^ vb));

      const SystolicResult sys = systolic_xor(a, b);
      ASSERT_EQ(sys.output.canonical(), expected)
          << "systolic: " << sa << " ^ " << sb;
      ASSERT_LE(sys.counters.iterations, a.run_count() + b.run_count())
          << "Theorem 1: " << sa << " ^ " << sb;
      // Canonical inputs (encode_bitstring output is canonical): the
      // Observation bound applies.
      ASSERT_LE(sys.counters.iterations, sys.output.run_count() + 1)
          << "Observation: " << sa << " ^ " << sb;

      const BusResult bus = bus_systolic_xor(a, b);
      ASSERT_EQ(bus.output.canonical(), expected)
          << "bus: " << sa << " ^ " << sb;

      const SequentialDiffResult seq = sequential_xor(a, b);
      ASSERT_EQ(seq.output.canonical(), expected)
          << "sequential: " << sa << " ^ " << sb;
    }
  }
}

/// The same row with every run of length >= 2 split in two adjacent pieces
/// (legal, non-canonical input).
RleRow split_runs(const RleRow& row) {
  RleRow out;
  for (const Run& r : row) {
    if (r.length < 2) {
      out.push_back(r);
      continue;
    }
    out.push_back(Run{r.start, 1});
    out.push_back(Run{r.start + 1, r.length - 1});
  }
  return out;
}

TEST(Exhaustive, AllWidth7PairsThroughTheEngineAtEveryLevel) {
  // The production engine (merge branch with identical-pair skips, the word
  // path, and the scalar oracle level) on every width-7 pair, canonical and
  // split inputs alike: output equals string XOR and is canonical.
  const SimdLevel saved = active_simd_level();
  for (const SimdLevel level : supported_simd_levels()) {
    set_simd_level(level);
    for (unsigned va = 0; va < (1u << kWidth); ++va) {
      const RleRow a = encode_bitstring(bits_of(va));
      const RleRow as = split_runs(a);
      for (unsigned vb = 0; vb < (1u << kWidth); ++vb) {
        const RleRow b = encode_bitstring(bits_of(vb));
        const RleRow expected = encode_bitstring(bits_of(va ^ vb));
        const RleRow bs = split_runs(b);
        for (const RleRow* x : {&a, &as}) {
          for (const RleRow* y : {&b, &bs}) {
            const SequentialDiffResult r = sequential_engine_xor(*x, *y);
            ASSERT_EQ(r.output, expected)
                << to_string(level) << ": " << *x << " ^ " << *y;
            ASSERT_TRUE(r.output.is_canonical());
          }
        }
      }
    }
  }
  set_simd_level(saved);
}

TEST(Exhaustive, Theorem1BoundIsTight) {
  // The k1+k2 bound is not just safe but reachable: the exhaustive sweep
  // must contain at least one input pair that needs exactly k1+k2
  // iterations (with both inputs non-empty).  Record one witness.
  bool found = false;
  std::string witness;
  for (unsigned va = 0; va < (1u << kWidth) && !found; ++va) {
    const RleRow a = encode_bitstring(bits_of(va));
    if (a.empty()) continue;
    for (unsigned vb = 0; vb < (1u << kWidth); ++vb) {
      const RleRow b = encode_bitstring(bits_of(vb));
      if (b.empty()) continue;
      const SystolicResult r = systolic_xor(a, b);
      if (r.counters.iterations == a.run_count() + b.run_count()) {
        found = true;
        witness = bits_of(va) + " ^ " + bits_of(vb);
        break;
      }
    }
  }
  EXPECT_TRUE(found) << "no tight witness in the width-7 universe";
  SCOPED_TRACE("tight witness: " + witness);
}

TEST(Exhaustive, AllWidth7PairsInvariantChecked) {
  // A sparser sub-lattice with the full section-4 invariant checkers armed
  // (every 7th left operand to keep the runtime in check).
  SystolicConfig cfg;
  cfg.check_invariants = true;
  for (unsigned va = 0; va < (1u << kWidth); va += 7) {
    const RleRow a = encode_bitstring(bits_of(va));
    for (unsigned vb = 0; vb < (1u << kWidth); ++vb) {
      const RleRow b = encode_bitstring(bits_of(vb));
      const SystolicResult sys = systolic_xor(a, b, cfg);
      ASSERT_EQ(sys.output.canonical(), encode_bitstring(bits_of(va ^ vb)));
    }
  }
}

}  // namespace
}  // namespace sysrle
