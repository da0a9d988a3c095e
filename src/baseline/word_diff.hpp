#pragma once
// Word-parallel sequential diff engine (ROADMAP open item 2, first half).
//
// The scalar merge in sequential_diff.hpp walks runs one boundary at a time
// — Θ(k1 + k2) data-dependent branches.  This engine works in the packed
// bit domain instead, following Breuel's packed-binary technique
// (arXiv:0712.0121):
//
//   1. *Toggle*: each run contributes two branchless XORs — a toggle bit at
//      its start and one past its end — into a single word buffer covering
//      the rows' joint extent.  Both rows toggle the same buffer, which IS
//      the word-wise XOR of the two packed rows (XOR composes).
//   2. *Prefix fill*: a carry-propagating prefix-XOR pass turns the toggle
//      bits into filled pixels (bit j = parity of toggles at positions
//      <= j).  This is the SIMD-dispatched kernel: a SWAR64 loop, or four
//      lanes per step with cross-lane carry resolution on AVX2.
//   3. *Extract*: runs come back out with the transition-mask scan in
//      bitmap/convert.hpp (countr_zero + clear-lowest-bit per run).
//
// Contract: the output is bit-identical to the scalar oracle at every
// dispatch level, and — unlike raw sequential_xor — always canonical (the
// bit domain has no notion of adjacent runs, and the scalar path
// canonicalizes to match).  tests/test_word_diff.cpp pins this across all
// levels compiled into the binary.
//
// Dispatch guard: the packed pass wins when run boundaries are dense per
// word — fragmented rows are exactly where a merge drowns in mispredicted
// branches — and loses when runs are few and far apart, where the merge's
// Θ(k1 + k2) is small and packing the extent is pure overhead.
// sequential_engine_xor routes to the word path only when
// k1 + k2 >= kMinRunsPerWord * extent_words, which also caps its cost at a
// constant factor of min(O(k1+k2), O(width/64)) for every input.  Sparse
// rows and rows with an empty side take a toggle merge: one walk over both
// rows' boundary toggles that emits canonical runs directly and skips every
// identical run pair whenever both rows sit outside a run, so a similar
// pair costs what its differences cost (the paper's §5 result, on the
// host).

#include <cstdint>
#include <vector>

#include "baseline/sequential_diff.hpp"
#include "baseline/simd_dispatch.hpp"
#include "rle/rle_row.hpp"

namespace sysrle {

/// Reusable toggle/fill buffer so per-row diffs do not allocate.  One
/// scratch per thread; sequential_engine_xor keeps its own thread_local
/// instance.
struct WordDiffScratch {
  std::vector<std::uint64_t> words;
};

/// Minimum run-boundary density (runs per 64-bit extent word) for the word
/// path to beat the scalar merge, measured on this repo's fragmented-row
/// sweep (bench_scaling --dispatch-json).  Below it the engine routes to
/// the scalar merge.
inline constexpr std::uint64_t kMinRunsPerWord = 6;

/// Diffs both rows in the packed bit domain at the given dispatch level
/// (toggle + prefix fill + extract).  `iterations` counts the 64-bit words
/// of the joint extent (the packed analogue of the scalar merge's loop
/// count).  Precondition: level is a word level (not kScalar) and both
/// rows are non-empty.  Output is canonical.
SequentialDiffResult word_parallel_xor(const RleRow& a, const RleRow& b,
                                       WordDiffScratch& scratch,
                                       SimdLevel level);

/// Production entry point for every sequential call site: dispatches on
/// active_simd_level(), applies the run-density guard, and always returns
/// canonical output (the scalar level canonicalizes the oracle's result so
/// all levels agree bit-for-bit).  `iterations` is words scanned on the
/// word path, input runs touched on the toggle merge (one per skipped
/// identical pair, so within k1 + k2 and above 0 for non-empty input), and
/// sequential_xor's merge iterations at the scalar level.
SequentialDiffResult sequential_engine_xor(const RleRow& a, const RleRow& b);

namespace detail {
/// In-place prefix-XOR fill: turns boundary-toggle words into filled-pixel
/// words (bit j of the result = parity of toggle bits at positions <= j
/// across the whole buffer).  Plain SWAR loop with a scalar carry.
void prefix_fill_swar(std::uint64_t* words, std::size_t n);

#if defined(SYSRLE_AVX2_COMPILED)
/// Same contract, four words per step with cross-lane carry resolution;
/// only in AVX2-enabled builds.
void prefix_fill_avx2(std::uint64_t* words, std::size_t n);
#endif
}  // namespace detail

}  // namespace sysrle
