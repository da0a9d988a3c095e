#include "rle/rle_row.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <utility>

namespace sysrle {

namespace {

/// Throws contract_error naming the first invariant `runs` breaks, if any.
/// Accepting costs one well-predicted branch per run; validate_runs, which
/// checks the same run_ok, names the finding only on failure.
void require_valid(std::span<const Run> runs, const char* who) {
  std::uint64_t next_min = 0;
  for (const Run& r : runs) {
    if (!run_ok(r, next_min)) {
      const RowValidationReport report = validate_runs(runs);
      SYSRLE_REQUIRE(report.ok(),
                     std::string(who) + ": run #" +
                         std::to_string(report.findings.front().run_index) +
                         ": " + to_string(report.findings.front().issue));
    }
    next_min = run_end_u64(r) + 1;
  }
}

}  // namespace

RleRow::RleRow(std::vector<Run> runs) : runs_(std::move(runs)) { validate(); }

RleRow::RleRow(std::initializer_list<Run> runs) : runs_(runs) { validate(); }

RleRow RleRow::from_pairs(std::initializer_list<std::pair<pos_t, len_t>> ps) {
  std::vector<Run> rs;
  rs.reserve(ps.size());
  for (const auto& [s, l] : ps) rs.emplace_back(s, l);
  return RleRow(std::move(rs));
}

void RleRow::validate() const { require_valid(runs_, "RleRow"); }

void RleRow::append(const Run* runs, std::size_t count) {
  if (count == 0) return;
  const std::span<const Run> batch(runs, count);
  require_valid(batch, "RleRow::append");
  if (!runs_.empty())
    SYSRLE_REQUIRE(run_ok(batch.front(), run_end_u64(runs_.back()) + 1),
                   "RleRow::append: batch does not follow previous run");
  runs_.insert(runs_.end(), batch.begin(), batch.end());
}

len_t RleRow::foreground_pixels() const {
  len_t total = 0;
  for (const Run& r : runs_) total += r.length;
  return total;
}

pos_t RleRow::first_pixel() const {
  SYSRLE_REQUIRE(!runs_.empty(), "RleRow::first_pixel on empty row");
  return runs_.front().start;
}

pos_t RleRow::last_pixel() const {
  SYSRLE_REQUIRE(!runs_.empty(), "RleRow::last_pixel on empty row");
  return runs_.back().end();
}

bool RleRow::is_canonical() const {
  for (std::size_t i = 1; i < runs_.size(); ++i)
    if (runs_[i - 1].end() + 1 == runs_[i].start) return false;
  return true;
}

std::size_t RleRow::canonicalize() {
  if (runs_.size() < 2) return 0;
  std::size_t merges = 0;
  std::vector<Run> out;
  out.reserve(runs_.size());
  out.push_back(runs_.front());
  for (std::size_t i = 1; i < runs_.size(); ++i) {
    if (out.back().end() + 1 == runs_[i].start) {
      out.back().length += runs_[i].length;
      ++merges;
    } else {
      out.push_back(runs_[i]);
    }
  }
  runs_ = std::move(out);
  return merges;
}

RleRow RleRow::canonical() const {
  RleRow copy = *this;
  copy.canonicalize();
  return copy;
}

bool RleRow::fits_width(pos_t width) const {
  return runs_.empty() ||
         (width >= 0 && run_end_u64(runs_.back()) <
                            static_cast<std::uint64_t>(width));
}

std::string RleRow::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (i) s += ' ';
    s += runs_[i].to_string();
  }
  return s;
}

}  // namespace sysrle
