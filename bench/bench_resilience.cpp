// Resilience extension: what does fault tolerance cost?
//
// Three questions, three tables:
//   1. Checking tax — wall-clock of the checked engine (invariant checkers
//      armed every iteration + watchdog) vs the bare systolic simulator and
//      the sequential merge baseline, on a healthy machine.
//   2. Recovery tax — cycles burned per row when a permanent / transient /
//      intermittent fault is present, split into retry cost and fallback
//      cost, from a small fault-injection campaign.
//   3. Degraded farm — board makespan when machines die mid-board and their
//      in-flight rows are re-dispatched to survivors.

#include <chrono>
#include <iostream>

#include "common/fixed_table.hpp"
#include "core/campaign.hpp"
#include "core/checked_diff.hpp"
#include "core/machine_farm.hpp"
#include "core/systolic_diff.hpp"
#include "baseline/sequential_diff.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace {

using namespace sysrle;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Board {
  RleImage a{0, 0};
  RleImage b{0, 0};
};

Board make_board(pos_t width, pos_t height, double error_fraction) {
  Rng rng(20260805);
  RowGenParams rp;
  rp.width = width;
  Board board;
  board.a = generate_image(rng, height, rp);
  board.b = RleImage(width, height);
  for (pos_t y = 0; y < height; ++y) {
    ErrorGenParams ep;
    ep.error_fraction = error_fraction;
    board.b.set_row(y, inject_errors(rng, board.a.row(y), width, ep));
  }
  return board;
}

void checking_tax(const Board& board) {
  std::cout << "--- 1. checking tax (healthy machine, "
            << board.a.height() << " rows of " << board.a.width()
            << " px) ---\n\n";
  FixedTable table;
  table.set_header({"engine", "wall-s", "rows/s", "vs-unchecked"});

  const int kRepeats = 5;
  auto time_rows = [&](auto&& per_row) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kRepeats; ++rep)
      for (pos_t y = 0; y < board.a.height(); ++y)
        per_row(board.a.row(y), board.b.row(y));
    return seconds_since(t0);
  };

  const double rows =
      static_cast<double>(board.a.height()) * static_cast<double>(kRepeats);
  const double bare = time_rows([](const RleRow& ra, const RleRow& rb) {
    (void)systolic_xor(ra, rb);
  });
  const double checked = time_rows([](const RleRow& ra, const RleRow& rb) {
    (void)checked_xor(ra, rb, false);
  });
  const double sequential = time_rows([](const RleRow& ra, const RleRow& rb) {
    (void)sequential_xor(ra, rb);
  });

  auto add = [&](const char* name, double s) {
    table.add_row({name, FixedTable::num(s, 4), FixedTable::num(rows / s, 0),
                   FixedTable::num(s / bare, 2)});
  };
  add("systolic (unchecked)", bare);
  add("checked (invariants+watchdog)", checked);
  add("sequential merge", sequential);
  std::cout << table.str() << '\n';
  std::cout << "CSV:\n" << table.csv() << '\n';
}

void recovery_tax(const Board& board) {
  std::cout << "--- 2. recovery tax (fault-injection campaign) ---\n\n";
  FixedTable table;
  table.set_header({"model", "trials", "detected", "retried", "fell-back",
                    "wasted-cycles", "wasted/detected"});

  for (const FaultActivation activation :
       {FaultActivation::kPermanent, FaultActivation::kTransient,
        FaultActivation::kIntermittent}) {
    CampaignConfig cfg;
    cfg.activations = {activation};
    cfg.cell_stride = 4;  // thin the sweep; this is a cost probe
    const CampaignResult r = run_fault_campaign(board.a, board.b, cfg);
    const double per_detected =
        r.total.detected
            ? static_cast<double>(r.total.wasted_cycles) /
                  static_cast<double>(r.total.detected)
            : 0.0;
    table.add_row({to_string(activation), FixedTable::num(r.total.trials),
                   FixedTable::num(r.total.detected),
                   FixedTable::num(r.total.recovered_by_retry),
                   FixedTable::num(r.total.fell_back),
                   FixedTable::num(r.total.wasted_cycles),
                   FixedTable::num(per_detected, 1)});
  }
  std::cout << table.str() << '\n';
  std::cout << "CSV:\n" << table.csv() << '\n';
}

void degraded_farm(const Board& board) {
  std::cout << "--- 3. degraded farm (machines dying mid-board) ---\n\n";
  FixedTable table;
  table.set_header({"deaths", "makespan", "vs-healthy", "redispatched",
                    "lost-cycles", "utilisation"});

  FarmConfig healthy;
  healthy.machines = 8;
  const FarmResult base = simulate_row_farm(board.a, board.b, healthy);

  for (const std::size_t deaths : {0u, 1u, 2u, 4u}) {
    FarmConfig cfg = healthy;
    for (std::size_t i = 0; i < deaths; ++i)
      cfg.failures.push_back({i, base.makespan / 4 * (i + 1)});
    const FarmResult r = simulate_row_farm(board.a, board.b, cfg);
    table.add_row(
        {FixedTable::num(static_cast<std::uint64_t>(deaths)),
         FixedTable::num(r.makespan),
         FixedTable::num(static_cast<double>(r.makespan) /
                             static_cast<double>(base.makespan),
                         3),
         FixedTable::num(r.redispatched_rows),
         FixedTable::num(r.lost_cycles), FixedTable::num(r.utilisation, 3)});
  }
  std::cout << table.str() << '\n';
  std::cout << "CSV:\n" << table.csv() << '\n';
}

}  // namespace

int main() {
  std::cout << "=== Fault-tolerance cost model ===\n\n";
  const Board board = make_board(2048, 64, 0.02);
  checking_tax(board);
  recovery_tax(board);
  degraded_farm(board);
  std::cout << "reading: checking costs a constant factor over the bare\n"
               "simulator; transient faults are absorbed by retry (cheap),\n"
               "permanent ones by fallback (bounded by the sequential merge\n"
               "cost); a dying machine adds its lost work plus re-dispatch\n"
               "latency to the makespan but never changes the image result.\n";
  return 0;
}
