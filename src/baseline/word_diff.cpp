#include "baseline/word_diff.hpp"

#include <algorithm>

#include "bitmap/convert.hpp"
#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

namespace {

/// XORs a row's boundary toggles into the buffer: one bit at each run's
/// start and one just past its end.  Branchless per run; consecutive
/// toggles that land in the same word are batched in a register so
/// fragmented rows (many runs per word) do not serialize on
/// store-to-load forwarding.
void toggle_row(const RleRow& row, pos_t base, std::uint64_t* words) {
  std::size_t cur = 0;        // word index the accumulator belongs to
  std::uint64_t acc = 0;      // pending toggles for words[cur]
  for (const Run& r : row) {
    // Unsigned bit arithmetic: positions are non-negative by contract, and
    // the cast lets >> 6 / & 63 compile to plain shifts (signed division
    // needs a rounding correction the optimizer cannot elide).
    const auto s = static_cast<std::uint64_t>(r.start - base);
    const auto e1 = static_cast<std::uint64_t>(r.end() + 1 - base);
    const std::size_t ws = s >> 6;
    const std::size_t we = e1 >> 6;
    if (ws != cur) {
      words[cur] ^= acc;
      acc = 0;
      cur = ws;
    }
    acc ^= std::uint64_t{1} << (s & 63);
    if (we != cur) {
      words[cur] ^= acc;
      acc = 0;
      cur = we;
    }
    acc ^= std::uint64_t{1} << (e1 & 63);
  }
  words[cur] ^= acc;
}

/// The oracle plus canonicalize: the engine's output contract is canonical
/// at every level, and the bit domain the word path diffs in has no notion
/// of adjacent runs, so the scalar level must compress to match.
SequentialDiffResult scalar_canonical_xor(const RleRow& a, const RleRow& b) {
  SequentialDiffResult r = sequential_xor(a, b);
  r.output.canonicalize();
  return r;
}

/// One row's boundary toggles in order: toggle t is run t/2's start when t
/// is even and one past its end when t is odd.  Unsigned, so the end toggle
/// of a run reaching past the i64 maximum does not overflow, and the
/// exhausted value sorts after every real toggle.
struct ToggleCursor {
  static constexpr std::uint64_t kDone = ~std::uint64_t{0};

  const Run* runs;
  std::size_t toggles;  // 2 * run count
  std::size_t t = 0;
  std::uint64_t at = kDone;

  explicit ToggleCursor(const RleRow& row)
      : runs(row.runs().data()), toggles(2 * row.run_count()) {
    load();
  }
  void load() {
    if (t >= toggles) {
      at = kDone;
      return;
    }
    // The masked add and take()'s two unrolled steps each read 5-7% faster
    // per 3.5%-error row than an `if (t & 1)` add and a `while (at == p)`.
    const Run& r = runs[t >> 1];
    const std::uint64_t odd = std::uint64_t{0} - (t & 1);
    at = static_cast<std::uint64_t>(r.start) +
         (static_cast<std::uint64_t>(r.length) & odd);
  }
  /// Consumes the toggles at position p — two where adjacent runs meet —
  /// and returns their count.
  unsigned take(std::uint64_t p) {
    if (at != p) return 0;
    ++t;
    load();
    if (at != p) return 1;
    ++t;
    load();
    return 2;
  }
  bool outside_run() const { return (t & 1) == 0; }
  std::size_t run() const { return t >> 1; }
};

/// The merge branch: one walk over both rows' boundary toggles.  A position
/// toggled an odd number of times flips the XOR, so output runs come out
/// already canonical — toggles meeting where adjacent runs touch cancel
/// before any run is emitted.  Whenever both rows sit outside a run, every
/// identical run pair at the cursors cancels whole in one compare loop:
/// that is where a similar pair's cost goes to its differences.
/// `iterations` counts the input runs touched, one per skipped pair, so it
/// stays within k1 + k2 and above 0 for non-empty input.
/// xor_rows (rle/ops.cpp) walks the same toggles, but it is the independent
/// oracle the tests compare this engine against, so the skip lives here.
SequentialDiffResult toggle_merge_xor(const RleRow& a, const RleRow& b) {
  thread_local std::vector<Run> out;
  out.clear();
  ToggleCursor ca(a), cb(b);
  const std::size_t ka = a.run_count(), kb = b.run_count();
  std::uint64_t skipped = 0;
  bool on = false;
  std::uint64_t open = 0;
  for (;;) {
    if (ca.outside_run() & cb.outside_run()) {
      std::size_t i = ca.run(), j = cb.run();
      const std::size_t i0 = i;
      while (i < ka && j < kb && a[i] == b[j]) {
        ++i;
        ++j;
      }
      if (i != i0) {
        skipped += i - i0;
        ca.t = 2 * i;
        cb.t = 2 * j;
        ca.load();
        cb.load();
      }
    }
    const std::uint64_t p = std::min(ca.at, cb.at);
    if (p == ToggleCursor::kDone) break;
    if (((ca.take(p) + cb.take(p)) & 1) == 0) continue;
    if (on)
      out.emplace_back(static_cast<pos_t>(open),
                       static_cast<len_t>(p - open));
    open = p;
    on = !on;
  }
  SequentialDiffResult result;
  result.iterations = ka + kb - skipped;
  result.output.append(out.data(), out.size());
  return result;
}

}  // namespace

namespace detail {

void prefix_fill_swar(std::uint64_t* words, std::size_t n) {
  std::uint64_t carry = 0;  // 0 or ~0: fill state entering the word
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t x = words[i];
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    x ^= carry;
    carry = std::uint64_t{0} - (x >> 63);
    words[i] = x;
  }
}

}  // namespace detail

SequentialDiffResult word_parallel_xor(const RleRow& a, const RleRow& b,
                                       WordDiffScratch& scratch,
                                       SimdLevel level) {
  SYSRLE_REQUIRE(level != SimdLevel::kScalar,
                 "word_parallel_xor: kScalar is not a word level");
  SYSRLE_REQUIRE(!a.empty() && !b.empty(),
                 "word_parallel_xor: rows must be non-empty");

  // Cover only the joint word-aligned extent, so a small diff near the end
  // of a wide row does not pay for the empty prefix.  One extra word holds
  // the end-toggle of a run finishing exactly at the extent's last bit.
  const pos_t lo = std::min(a.first_pixel(), b.first_pixel());
  const pos_t hi = std::max(a.last_pixel(), b.last_pixel());
  const pos_t base = (lo / 64) * 64;
  const std::size_t word_count =
      static_cast<std::size_t>(hi / 64 - lo / 64) + 1;

  scratch.words.assign(word_count + 1, 0);
  toggle_row(a, base, scratch.words.data());
  toggle_row(b, base, scratch.words.data());

  switch (level) {
#if defined(SYSRLE_AVX2_COMPILED)
    case SimdLevel::kAvx2:
      detail::prefix_fill_avx2(scratch.words.data(), word_count + 1);
      break;
#endif
    default:
      // kSwar64 and the NEON stub share the plain 64-bit loop.
      detail::prefix_fill_swar(scratch.words.data(), word_count + 1);
      break;
  }

  SequentialDiffResult result;
  result.iterations = word_count;
  append_word_runs(scratch.words.data(), word_count + 1, base, result.output);
  return result;
}

SequentialDiffResult sequential_engine_xor(const RleRow& a, const RleRow& b) {
  const SimdLevel level = active_simd_level();

  if (level == SimdLevel::kScalar) {
    if (telemetry_enabled()) global_metrics().add("engine.dispatch.rows_scalar");
    return scalar_canonical_xor(a, b);
  }

  // An empty side makes the diff a canonical copy of the other row — the
  // merge does that in k steps; packing would only add work.
  if (a.empty() || b.empty()) {
    if (telemetry_enabled()) global_metrics().add("engine.dispatch.rows_merge");
    return toggle_merge_xor(a, b);
  }

  // Run-density guard: the word path pays O(extent/64) words plus two
  // toggles per run, and only wins where run boundaries are dense enough
  // that the merge's branchy Θ(k1+k2) walk mispredicts its way to a loss.
  // Sparse or smooth rows — few runs per extent word — route to the merge,
  // which also keeps ultra-sparse ultra-wide rows within the scalar bound.
  const pos_t lo = std::min(a.first_pixel(), b.first_pixel());
  const pos_t hi = std::max(a.last_pixel(), b.last_pixel());
  const std::uint64_t words = static_cast<std::uint64_t>(hi / 64 - lo / 64) + 1;
  const std::uint64_t k = a.run_count() + b.run_count();
  if (k < kMinRunsPerWord * words) {
    if (telemetry_enabled()) {
      MetricsRegistry& m = global_metrics();
      m.add("engine.dispatch.rows_merge");
      m.add("engine.dispatch.sparse_fallbacks");
    }
    return toggle_merge_xor(a, b);
  }

  if (telemetry_enabled()) global_metrics().add("engine.dispatch.rows_word");
  thread_local WordDiffScratch scratch;
  return word_parallel_xor(a, b, scratch, level);
}

}  // namespace sysrle
