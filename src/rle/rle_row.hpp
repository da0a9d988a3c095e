#pragma once
// One run-length-encoded image row: an ordered, non-overlapping sequence of
// foreground runs.  This is the unit the systolic array and the sequential
// merge baseline both consume.

#include <initializer_list>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "rle/run.hpp"
#include "rle/validate.hpp"

namespace sysrle {

/// Ordered sequence of non-overlapping runs.  Invariants (checked on every
/// mutating entry point, by run_ok in rle/validate.hpp):
///   * each run has length >= 1 and start >= 0,
///   * starts strictly increase and runs do not overlap.
/// Runs MAY be adjacent (end+1 == next.start); the paper permits this in both
/// inputs and output.  canonicalize() merges such pairs.
class RleRow {
 public:
  RleRow() = default;

  /// Builds from a run list, validating ordering/overlap.
  explicit RleRow(std::vector<Run> runs);
  RleRow(std::initializer_list<Run> runs);

  /// Builds from (start,length) pairs, e.g. {{10,3},{16,2}} — handy for
  /// transcribing the paper's figures.
  static RleRow from_pairs(std::initializer_list<std::pair<pos_t, len_t>> ps);

  /// Appends a run; it must begin after the current last run ends.
  /// Inline: this sits on the per-run hot path of every diff engine.
  void push_back(const Run& r) {
    SYSRLE_REQUIRE(r.length >= 1, "RleRow::push_back: non-positive length");
    SYSRLE_REQUIRE(r.start >= 0, "RleRow::push_back: negative start");
    if (!runs_.empty())
      SYSRLE_REQUIRE(run_ok(r, run_end_u64(runs_.back()) + 1),
                     "RleRow::push_back: run does not follow previous run");
    runs_.push_back(r);
  }

  /// Appends an ordered batch of runs (the first must begin after the
  /// current last run ends): one validation pass plus one bulk insert — the
  /// batch analogue of push_back for hot extraction loops, which would
  /// otherwise pay the per-run contract checks and vector growth per run.
  void append(const Run* runs, std::size_t count);

  /// Number of runs (the paper's k).
  std::size_t run_count() const { return runs_.size(); }
  bool empty() const { return runs_.empty(); }

  /// Total number of foreground pixels.
  len_t foreground_pixels() const;

  /// First pixel of the first run / last pixel of the last run.
  /// Precondition: !empty().
  pos_t first_pixel() const;
  pos_t last_pixel() const;

  const Run& operator[](std::size_t i) const { return runs_[i]; }
  const std::vector<Run>& runs() const { return runs_; }

  auto begin() const { return runs_.begin(); }
  auto end() const { return runs_.end(); }

  /// True when no two consecutive runs are adjacent (maximally compressed).
  bool is_canonical() const;

  /// Merges adjacent runs in place; afterwards is_canonical() holds.
  /// Returns the number of merges performed.
  std::size_t canonicalize();

  /// Returns a canonicalized copy.
  RleRow canonical() const;

  /// True if no run extends beyond position width-1 (for bounds checks).
  bool fits_width(pos_t width) const;

  friend bool operator==(const RleRow&, const RleRow&) = default;

  /// Renders as "(10,3) (16,2) ..." like the paper's Figure 1 rows.
  std::string to_string() const;
  friend std::ostream& operator<<(std::ostream& os, const RleRow& r) {
    return os << r.to_string();
  }

 private:
  /// Adopts runs checked_row (rle/serialize.cpp) has already validated
  /// against the image width, a superset of the row invariant, so a decoded
  /// row is checked once.
  struct Checked {};
  RleRow(std::vector<Run> runs, Checked) : runs_(std::move(runs)) {}
  friend RleRow checked_row(std::vector<Run> runs, pos_t width);

  void validate() const;
  std::vector<Run> runs_;
};

}  // namespace sysrle
