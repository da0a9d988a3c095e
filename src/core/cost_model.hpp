#pragma once
// The analytic cost model of section 5: predictors for how long the systolic
// machine and the sequential merge will take on a given input pair, plus the
// bound/correlation bookkeeping the experiments report.
//
//   * sequential cost        ~ k1 + k2        (best = worst = average)
//   * systolic upper bound   = k1 + k2        (Theorem 1)
//   * observation bound      = k3_raw + 1     (unproven Observation, where
//                              k3_raw counts runs in the *machine's* output,
//                              which may contain adjacent runs)
//   * similar-image estimate ~ |k1 - k2|      (the Figure-5 correlation)
//
// The model has two tiers.  estimate_costs() is O(1) off the run counts and
// is the only tier a hot path may call.  measure_costs() additionally
// reports k3 — which requires computing the XOR itself — and exists for
// analysis, experiments and tests only.

#include <cstdint>

#include "rle/rle_row.hpp"

namespace sysrle {

/// The adaptive dispatcher's default similarity threshold θ, re-calibrated
/// against the word-parallel sequential engine (bench_scaling
/// --dispatch-json; evidence in BENCH_pr10.json, method in
/// docs/PERFORMANCE.md).  θ prices a systolic cycle against sequential
/// work: the machine costs ~|k1-k2| cycles on similar rows (the Figure-5
/// correlation, re-verified by the sweep), the sequential side Θ(k1+k2)
/// steps, and the previous θ = 0.5 encoded the scalar merge's per-step
/// cost.  The word engine cut that per-step cost ~3.2x on run-dense rows
/// (the regime where sequential work actually hurts), so the break-even
/// dissimilarity shrinks by the same factor: θ = 0.5 / 3.2 ≈ 0.15.  The
/// sweep also shows the *simulator* never beats the engine in host
/// wall-clock (it pays O(k) cell setup per row) — θ is a hardware-model
/// knob: DiffEngine::kAdaptive runs the host engine on every row and only
/// reports the route θ picks and the modelled systolic iterations.
inline constexpr double kDefaultSimilarityThreshold = 0.15;

/// The O(1) tier: everything the model can say from the run counts alone.
/// Safe on the hot path — never touches pixel data, never computes an XOR.
struct DiffCostEstimate {
  std::uint64_t k1 = 0;  ///< runs in row a
  std::uint64_t k2 = 0;  ///< runs in row b

  std::uint64_t sequential_cost() const { return k1 + k2; }
  std::uint64_t theorem1_bound() const { return k1 + k2; }
  std::uint64_t run_count_difference() const {
    return k1 > k2 ? k1 - k2 : k2 - k1;
  }
};

/// Builds the cheap estimate for one row pair in O(1).
DiffCostEstimate estimate_costs(const RleRow& a, const RleRow& b);

/// The measured tier: the estimate plus the k3 counts, which require
/// performing the entire sequential diff.  NOT a prediction in the cheap
/// sense and never safe on a hot path — callers wanting a routing decision
/// use estimate_costs()/choose_adaptive_route() instead.  Deliberately kept
/// on the scalar merge: its piecewise (possibly adjacent-run) output
/// mirrors the systolic machine's, which is what the Observation's k3_raw
/// counts; the word-parallel engine's canonical output would undercount it.
struct DiffCostMeasurement {
  std::uint64_t k1 = 0;  ///< runs in row a
  std::uint64_t k2 = 0;  ///< runs in row b
  /// Runs in the raw (uncompacted) XOR — the Observation's k3.  Measured
  /// with the sequential merge, whose piecewise output mirrors the machine's.
  std::uint64_t k3_raw = 0;
  /// Runs in the fully compacted XOR.
  std::uint64_t k3_canonical = 0;

  std::uint64_t sequential_cost() const { return k1 + k2; }
  std::uint64_t theorem1_bound() const { return k1 + k2; }
  std::uint64_t observation_bound() const { return k3_raw + 1; }
  std::uint64_t run_count_difference() const {
    return k1 > k2 ? k1 - k2 : k2 - k1;
  }
};

/// Builds the measurement for one row pair by running the sequential merge.
DiffCostMeasurement measure_costs(const RleRow& a, const RleRow& b);

/// Which engine the adaptive model routes one row to.  Reported, not
/// executed: kAdaptive runs the host engine on every row.
enum class AdaptiveRoute {
  kSystolic,    ///< similar rows: the machine finishes in ~|k1 - k2| cycles
  kSequential,  ///< dissimilar rows: the merge's k1 + k2 is the better deal
};

/// The *cheap* half of the model, usable per row on the hot path: it needs
/// only k1, k2 and |k1 - k2| — no k3, which would require computing the XOR
/// itself.  The Figure-5 correlation says systolic iterations track
/// |k1 - k2| when the rows are similar, while the sequential merge always
/// pays Θ(k1 + k2); a row is routed to the machine when
///
///     |k1 - k2| <= similarity_threshold * (k1 + k2)
///
/// (boundary inclusive), and to the merge otherwise.  Two empty rows are
/// trivially similar.  The default threshold sends a row sequential once
/// the run counts diverge past the measured engine-crossover ratio — see
/// kDefaultSimilarityThreshold above.  kAdaptive reports this route and,
/// for array rows, run_count_difference() as the modelled iterations.
AdaptiveRoute choose_adaptive_route(
    std::uint64_t k1, std::uint64_t k2,
    double similarity_threshold = kDefaultSimilarityThreshold);

}  // namespace sysrle
