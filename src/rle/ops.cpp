#include "rle/ops.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace sysrle {
namespace {

constexpr pos_t kInf = std::numeric_limits<pos_t>::max();

/// Boundary-event parity sweep over two run lists.  Both lists are sorted and
/// non-overlapping (RleRow invariant), so the sweep visits each boundary once
/// and runs in O(ka + kb).  `pred(inA, inB)` decides output membership for
/// every maximal segment with constant membership; adjacent true segments are
/// coalesced, so the result is canonical.
template <typename Pred>
RleRow combine(const RleRow& a, const RleRow& b, Pred pred) {
  std::size_t ia = 0, ib = 0;
  bool in_a = false, in_b = false;

  auto next_a = [&]() -> pos_t {
    if (ia >= a.run_count()) return kInf;
    return in_a ? a[ia].end() + 1 : a[ia].start;
  };
  auto next_b = [&]() -> pos_t {
    if (ib >= b.run_count()) return kInf;
    return in_b ? b[ib].end() + 1 : b[ib].start;
  };

  RleRow out;
  bool open = false;
  pos_t open_start = 0;

  for (;;) {
    const pos_t pa = next_a();
    const pos_t pb = next_b();
    const pos_t p = std::min(pa, pb);
    if (p == kInf) break;
    // A run that starts where the previous one ended (adjacent runs: legal,
    // non-canonical input) keeps the list inside across the boundary.
    if (pa == p) {
      if (in_a) {
        ++ia;
        in_a = ia < a.run_count() && a[ia].start == p;
      } else {
        in_a = true;
      }
    }
    if (pb == p) {
      if (in_b) {
        ++ib;
        in_b = ib < b.run_count() && b[ib].start == p;
      } else {
        in_b = true;
      }
    }
    const bool want = pred(in_a, in_b);
    if (want && !open) {
      open = true;
      open_start = p;
    } else if (!want && open) {
      open = false;
      out.push_back(Run::from_bounds(open_start, p - 1));
    }
  }
  // pred(false,false) is false for every operation here, so once both inputs
  // are exhausted no segment can remain open.
  SYSRLE_CHECK(!open, "combine: segment left open past all boundaries");
  return out;
}

}  // namespace

RleRow xor_rows(const RleRow& a, const RleRow& b) {
  return combine(a, b, [](bool x, bool y) { return x != y; });
}

RleRow and_rows(const RleRow& a, const RleRow& b) {
  return combine(a, b, [](bool x, bool y) { return x && y; });
}

RleRow or_rows(const RleRow& a, const RleRow& b) {
  return combine(a, b, [](bool x, bool y) { return x || y; });
}

RleRow subtract_rows(const RleRow& a, const RleRow& b) {
  return combine(a, b, [](bool x, bool y) { return x && !y; });
}

RleRow complement_row(const RleRow& a, pos_t width) {
  SYSRLE_REQUIRE(width >= 0, "complement_row: negative width");
  SYSRLE_REQUIRE(a.fits_width(width), "complement_row: row exceeds width");
  RleRow out;
  pos_t cursor = 0;
  for (const Run& r : a) {
    if (r.start > cursor) out.push_back(Run::from_bounds(cursor, r.start - 1));
    cursor = r.end() + 1;
  }
  if (cursor < width) out.push_back(Run::from_bounds(cursor, width - 1));
  return out;
}

len_t intersection_pixels(const RleRow& a, const RleRow& b) {
  len_t total = 0;
  std::size_t ia = 0, ib = 0;
  while (ia < a.run_count() && ib < b.run_count()) {
    const Run& ra = a[ia];
    const Run& rb = b[ib];
    const pos_t lo = std::max(ra.start, rb.start);
    const pos_t hi = std::min(ra.end(), rb.end());
    if (lo <= hi) total += hi - lo + 1;
    if (ra.end() < rb.end()) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return total;
}

len_t hamming_distance(const RleRow& a, const RleRow& b) {
  // |A xor B| = |A| + |B| - 2|A and B|, avoiding an intermediate row.
  return a.foreground_pixels() + b.foreground_pixels() -
         2 * intersection_pixels(a, b);
}

RleRow xor_run_multiset(std::vector<Run> runs) {
  // Each run contributes two parity-toggle events: one at start, one at
  // end+1.  After sorting, positions with an odd number of toggles flip the
  // output parity; maximal parity-1 segments form the result.
  std::vector<pos_t> toggles;
  toggles.reserve(runs.size() * 2);
  for (const Run& r : runs) {
    SYSRLE_REQUIRE(r.length >= 1, "xor_run_multiset: empty run");
    toggles.push_back(r.start);
    toggles.push_back(r.end() + 1);
  }
  std::sort(toggles.begin(), toggles.end());

  RleRow out;
  bool parity = false;
  pos_t open_start = 0;
  std::size_t i = 0;
  while (i < toggles.size()) {
    const pos_t p = toggles[i];
    std::size_t same = 0;
    while (i < toggles.size() && toggles[i] == p) {
      ++same;
      ++i;
    }
    if (same % 2 == 1) {
      if (!parity) {
        parity = true;
        open_start = p;
      } else {
        parity = false;
        out.push_back(Run::from_bounds(open_start, p - 1));
      }
    }
  }
  SYSRLE_CHECK(!parity, "xor_run_multiset: unbalanced toggles");
  return out;
}

}  // namespace sysrle
