#pragma once
// Event counters for the systolic simulator.  Everything the evaluation
// section reports (iterations) plus the internal activity that explains it
// (the "chain reaction" shifts discussed in section 5).

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace sysrle {

/// Activity counters accumulated over one systolic run (or, summed, over a
/// whole image).
struct SystolicCounters {
  cycle_t iterations = 0;        ///< main-loop iterations until termination
  std::uint64_t swaps = 0;       ///< step-1 register swaps
  std::uint64_t promotions = 0;  ///< step-1 RegBig -> RegSmall moves
  std::uint64_t xors = 0;        ///< step-2 executions with both regs full
  std::uint64_t shifts = 0;      ///< step-3 moves of a non-empty RegBig
  std::uint64_t bus_moves = 0;   ///< bus-variant long-hop deliveries
  std::uint64_t bus_cycles = 0;  ///< extra cycles serialising bus deliveries
  std::uint64_t cells_used = 0;  ///< 1 + highest cell index ever non-empty

  /// Element-wise accumulation (iterations add; cells_used takes the max).
  SystolicCounters& operator+=(const SystolicCounters& o);
  bool operator==(const SystolicCounters&) const = default;

  /// One-line human-readable summary.
  std::string to_string() const;
};

}  // namespace sysrle
