// Extends Table 1's second regime to demonstrate the paper's headline claim
// at scale: with a fixed number of defects the systolic iteration count is
// *constant in image size* while the sequential merge is linear.  Also
// reports the modelled pixel-parallel comparator (section 6), whose O(1) XOR
// is swamped by decompress/recompress conversions.
//
// Flags: --json FILE writes a sysrle.bench.v1 report; --threads-json FILE
// additionally runs the row-parallel thread sweep and writes its own
// sysrle.bench.v1 report; --dispatch-json FILE runs the word-parallel
// engine speedup + θ recalibration sweep (the BENCH_pr10.json evidence);
// --smoke shrinks every sweep for CI.  Exits 1 when any check a written
// report holds is false, 2 on a usage error.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/pixel_parallel.hpp"
#include "baseline/sequential_diff.hpp"
#include "baseline/simd_dispatch.hpp"
#include "baseline/word_diff.hpp"
#include "common/fixed_table.hpp"
#include "common/stats.hpp"
#include "core/cost_model.hpp"
#include "core/image_diff.hpp"
#include "core/systolic_diff.hpp"
#include "telemetry/bench_report.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace {

using namespace sysrle;

/// Row-parallel executor sweep: wall time of a whole-image adaptive diff at
/// 1, 2, 4, ... threads on one fixed workload.  Emits wall_us / rows_per_sec
/// / speedup series plus a `hardware_threads` scalar so the 4-thread >= 2x
/// expectation is only enforced where the silicon can deliver it (a 1-core
/// CI runner cannot speed anything up; see docs/PERFORMANCE.md).  Returns
/// whether every check holds.
bool run_thread_sweep(const std::string& json_path, bool smoke) {
  const pos_t rows = smoke ? 512 : 2048;
  const pos_t width = smoke ? 2048 : 8192;
  const int reps = smoke ? 3 : 5;

  Rng rng(20260806);
  RowGenParams gp;
  gp.width = width;
  const RleImage a = generate_image(rng, rows, gp);
  RleImage b(width, rows);
  ErrorGenParams ep;
  ep.error_fraction = 0.05;
  for (pos_t y = 0; y < rows; ++y)
    b.set_row(y, inject_errors(rng, a.row(y), width, ep));

  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t hardware_threads = hw == 0 ? 1 : hw;

  std::cout << "\n=== Row-parallel thread sweep (adaptive engine, " << rows
            << " x " << width << ", " << hardware_threads
            << " hardware threads) ===\n";

  FixedTable table;
  table.set_header({"threads", "wall-us", "rows/s", "speedup", "used"});

  std::vector<double> xs, wall, rps, speedup, used;
  double serial_wall = 0.0;
  bool deterministic = true;
  std::string serial_diff;
  for (std::size_t t = 1; t <= 8; t *= 2) {
    ImageDiffOptions options;
    options.engine = DiffEngine::kAdaptive;
    options.threads = t;
    double best_us = 0.0;
    std::size_t threads_used = 1;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const ImageDiffResult r = image_diff(a, b, options);
      const auto t1 = std::chrono::steady_clock::now();
      const double us = static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count());
      if (rep == 0 || us < best_us) best_us = us;
      threads_used = std::max(threads_used, r.threads_used);
      if (rep == 0) {
        std::string rendered;
        for (pos_t y = 0; y < r.diff.height(); ++y)
          rendered += r.diff.row(y).to_string() + '\n';
        if (t == 1) serial_diff = rendered;
        else if (rendered != serial_diff) deterministic = false;
      }
    }
    if (t == 1) serial_wall = best_us;
    const double sp = best_us > 0.0 ? serial_wall / best_us : 1.0;
    table.add_row({FixedTable::num(static_cast<std::int64_t>(t)),
                   FixedTable::num(best_us, 0),
                   FixedTable::num(best_us > 0.0 ? static_cast<double>(rows) *
                                                       1e6 / best_us
                                                 : 0.0,
                                   0),
                   FixedTable::num(sp, 2),
                   FixedTable::num(static_cast<std::int64_t>(threads_used))});
    xs.push_back(static_cast<double>(t));
    wall.push_back(best_us);
    rps.push_back(best_us > 0.0 ? static_cast<double>(rows) * 1e6 / best_us
                                : 0.0);
    speedup.push_back(sp);
    used.push_back(static_cast<double>(threads_used));
  }
  std::cout << table.str();

  double speedup_at_4 = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (xs[i] == 4.0) speedup_at_4 = speedup[i];
  // Only machines with >= 4 real threads can be held to the 2x bar.
  const bool scaling_ok = hardware_threads < 4 || speedup_at_4 >= 2.0;
  std::cout << "speedup at 4 threads: x" << FixedTable::num(speedup_at_4, 2)
            << (hardware_threads < 4
                    ? "  [not enforced: fewer than 4 hardware threads]"
                    : (scaling_ok ? "  [>= 2x ok]" : "  [BELOW 2x]"))
            << '\n';

  BenchReport report("thread_scaling");
  report.set_param("rows", static_cast<std::int64_t>(rows));
  report.set_param("width", static_cast<std::int64_t>(width));
  report.set_param("error_fraction", 0.05);
  report.set_param("engine", "adaptive");
  report.set_param("reps", static_cast<std::int64_t>(reps));
  report.set_param("mode", smoke ? "smoke" : "full");
  report.set_x("threads", xs);
  report.add_series("wall_us", wall);
  report.add_series("rows_per_sec", rps);
  report.add_series("speedup", speedup);
  report.add_series("threads_used", used);
  report.set_scalar("hardware_threads",
                    static_cast<double>(hardware_threads));
  report.set_scalar("speedup_at_4_threads", speedup_at_4);
  report.set_check("thread_scaling_ok", scaling_ok);
  report.set_check("deterministic_across_threads", deterministic);
  report.write_file(json_path);
  std::cout << "wrote " << json_path << '\n';
  return report.all_checks_pass();
}

/// Best-of-`reps` wall time of `fn` over every pair, in microseconds *per
/// pair*.  `fn` returns a cheap checksum so the optimizer cannot elide the
/// diff; the folded checksum is returned through `sink`.
template <typename Fn>
double time_pairs_us(const std::vector<std::pair<RleRow, RleRow>>& pairs,
                     int reps, std::uint64_t& sink, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t checksum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [a, b] : pairs) checksum += fn(a, b);
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        1000.0;
    if (rep == 0 || us < best) best = us;
    sink ^= checksum;
  }
  return best / static_cast<double>(pairs.size());
}

/// Deletes exactly round(fraction * k) runs of `base` at random indices —
/// the θ-sweep workload.  Unlike inject_errors (which keeps k1 ≈ k2 and so
/// never exercises the routing boundary), run deletion dials the
/// dissimilarity ratio |k1-k2|/(k1+k2) = p/(2-p) across the whole [0, 1]
/// range as the deleted fraction p goes 0 → 1.
RleRow delete_run_fraction(Rng& rng, const RleRow& base, double fraction) {
  const std::size_t k = base.run_count();
  const std::size_t to_delete = static_cast<std::size_t>(
      fraction * static_cast<double>(k) + 0.5);
  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  for (std::size_t i = k; i > 1; --i) {  // Fisher-Yates off the bench rng
    const auto j = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  std::vector<bool> keep(k, true);
  for (std::size_t i = 0; i < to_delete && i < k; ++i) keep[order[i]] = false;
  RleRow out;
  for (std::size_t i = 0; i < k; ++i)
    if (keep[i]) out.push_back(base[i]);
  return out;
}

/// The PR-10 evidence sweep, two phases in one sysrle.bench.v1 report:
///
///  1. Speedup: the word-parallel sequential engine vs the scalar
///     sequential_xor merge on the fragmented sparse-row workload (1-2
///     pixel runs at density 0.35 — the run-dense regime the engine's
///     dispatch guard selects for), across error densities.  Output is
///     cross-checked bit-identical to the canonicalized oracle at every
///     dispatch level supported on the host, and the paper's smooth
///     workload gets a no-harm row (the guard must route it to the scalar
///     merge at scalar-merge cost).
///
///  2. θ recalibration: run-deletion pairs whose dissimilarity ratio
///     |k1-k2|/(k1+k2) sweeps [0, 0.8] re-verify the two facts the
///     dispatcher prices with — systolic iterations track the ratio
///     (Figure 5) and never exceed k1+k2 (Theorem 1) — and record the
///     wall-clock series showing the host-side *simulator* never beats
///     the engine (it pays O(k) cell setup per row; θ is a hardware-model
///     knob, not a host-wall-clock one).  The recalibrated θ is the old
///     scalar-tuned 0.5 divided by the engine's measured headline
///     speedup; checks pin the constant to that derivation and require it
///     to split the sweep into a systolic side and a sequential side.
///
/// Perf-dependent bands are relaxed in --smoke (CI wiring run on noisy
/// shared hardware); the committed BENCH_pr10.json comes from a full run.
/// Returns whether every check holds.
bool run_dispatch_sweep(const std::string& json_path, bool smoke) {
  const int pairs_per_point = smoke ? 24 : 192;
  const int reps = smoke ? 2 : 5;

  // The run-dense regime: 1-2 pixel runs at density 0.35 put ~30 run
  // boundaries in every 64-bit word, which is where the scalar merge's
  // branch misprediction tax peaks and the word path's fixed per-word cost
  // amortizes best.  Error bursts are kept short (1-2 px) so injected
  // errors fragment rather than smooth the rows.
  RowGenParams frag;
  frag.min_run_length = 1;
  frag.max_run_length = 2;
  frag.density = 0.35;

  std::uint64_t sink = 0;
  BenchReport report("dispatch");
  report.set_param("width", static_cast<std::int64_t>(frag.width));
  report.set_param("fragmented_density", frag.density);
  report.set_param("fragmented_run_length", "1-2");
  report.set_param("pairs_per_point",
                   static_cast<std::int64_t>(pairs_per_point));
  report.set_param("reps", static_cast<std::int64_t>(reps));
  report.set_param("simd", to_string(active_simd_level()));
  report.set_param("mode", smoke ? "smoke" : "full");

  // ---- Phase 1: speedup vs the scalar merge on fragmented rows.
  std::cout << "\n=== Word-parallel engine speedup (fragmented rows, width "
            << frag.width << ", simd=" << to_string(active_simd_level())
            << ") ===\n";
  FixedTable speed_table;
  speed_table.set_header({"err-%", "scalar-us/row", "word-us/row", "speedup"});
  const std::vector<double> error_pcts =
      smoke ? std::vector<double>{10, 30} : std::vector<double>{10, 20, 30, 50};
  bool identical = true;
  double headline_speedup = 0.0;  // the 30%-error point
  for (const double err : error_pcts) {
    Rng rng(715001 + static_cast<std::uint64_t>(err));
    ErrorGenParams ep;
    ep.error_fraction = err / 100.0;
    ep.min_error_length = 1;
    ep.max_error_length = 2;
    std::vector<std::pair<RleRow, RleRow>> pairs;
    for (int i = 0; i < pairs_per_point; ++i) {
      RowPairSample s = generate_pair(rng, frag, ep);
      pairs.emplace_back(std::move(s.first), std::move(s.second));
    }
    // Bit-identity against the canonicalized oracle at every level the
    // host supports, not just the active one.
    const SimdLevel restore = active_simd_level();
    for (const SimdLevel level : supported_simd_levels()) {
      set_simd_level(level);
      for (const auto& [a, b] : pairs) {
        RleRow expected = sequential_xor(a, b).output;
        expected.canonicalize();
        if (sequential_engine_xor(a, b).output != expected) identical = false;
      }
    }
    set_simd_level(restore);
    const double t_scalar =
        time_pairs_us(pairs, reps, sink, [](const RleRow& a, const RleRow& b) {
          return sequential_xor(a, b).output.run_count();
        });
    const double t_word =
        time_pairs_us(pairs, reps, sink, [](const RleRow& a, const RleRow& b) {
          return sequential_engine_xor(a, b).output.run_count();
        });
    const double sp = t_word > 0.0 ? t_scalar / t_word : 0.0;
    if (err == 30) headline_speedup = sp;
    speed_table.add_row({FixedTable::num(err, 0), FixedTable::num(t_scalar, 2),
                         FixedTable::num(t_word, 2), FixedTable::num(sp, 2)});
    report.set_scalar("scalar_us_at_" + std::to_string(static_cast<int>(err)) +
                          "pct",
                      t_scalar);
    report.set_scalar(
        "word_us_at_" + std::to_string(static_cast<int>(err)) + "pct", t_word);
    report.set_scalar(
        "speedup_at_" + std::to_string(static_cast<int>(err)) + "pct", sp);
  }
  std::cout << speed_table.str();
  std::cout << "headline speedup (30% errors): x"
            << FixedTable::num(headline_speedup, 2)
            << (headline_speedup >= 3.0 ? "  [>= 3x ok]" : "  [BELOW 3x]")
            << (identical ? "" : "  [OUTPUT MISMATCH]") << '\n';

  // No-harm row: on the paper's smooth workload (4-20 px runs) the density
  // guard must route to the scalar merge, so the engine may cost at most
  // the merge plus canonicalize + dispatch overhead.
  double no_harm_ratio = 0.0;
  {
    Rng rng(715999);
    RowGenParams paper;  // the paper's §5 defaults
    ErrorGenParams ep;
    std::vector<std::pair<RleRow, RleRow>> pairs;
    for (int i = 0; i < pairs_per_point; ++i) {
      RowPairSample s = generate_pair(rng, paper, ep);
      pairs.emplace_back(std::move(s.first), std::move(s.second));
    }
    const double t_scalar =
        time_pairs_us(pairs, reps, sink, [](const RleRow& a, const RleRow& b) {
          return sequential_xor(a, b).output.run_count();
        });
    const double t_engine =
        time_pairs_us(pairs, reps, sink, [](const RleRow& a, const RleRow& b) {
          return sequential_engine_xor(a, b).output.run_count();
        });
    no_harm_ratio = t_scalar > 0.0 ? t_engine / t_scalar : 0.0;
    std::cout << "paper-workload no-harm ratio (engine/scalar): "
              << FixedTable::num(no_harm_ratio, 2) << '\n';
  }

  // ---- Phase 2: θ sweep on run-deletion pairs.
  std::cout << "\n=== Theta sweep: systolic simulator vs engine "
               "(run-deletion pairs, paper workload) ===\n";
  FixedTable theta_table;
  theta_table.set_header({"ratio", "sys-iters/k", "systolic-us/row",
                          "engine-us/row", "route@theta"});
  const std::vector<double> target_ratios =
      smoke ? std::vector<double>{0.0, 0.25, 0.5, 0.8}
            : std::vector<double>{0.0,  0.05, 0.1, 0.15, 0.2, 0.25,
                                  0.3,  0.35, 0.4, 0.5,  0.65, 0.8};
  std::vector<double> ratios, sys_us, eng_us, iter_fracs;
  bool theorem1_ok = true;
  bool wallclock_dominated = true;
  bool first_routes_systolic = false, last_routes_sequential = false;
  RowGenParams paper;
  for (const double target : target_ratios) {
    // ratio r = p/(2-p)  <=>  deleted fraction p = 2r/(1+r).
    const double p = 2.0 * target / (1.0 + target);
    Rng rng(825001 + static_cast<std::uint64_t>(target * 1000.0));
    std::vector<std::pair<RleRow, RleRow>> pairs;
    double ratio_acc = 0.0;
    for (int i = 0; i < pairs_per_point; ++i) {
      RleRow a = generate_row(rng, paper);
      RleRow b = delete_run_fraction(rng, a, p);
      const auto k1 = static_cast<double>(a.run_count());
      const auto k2 = static_cast<double>(b.run_count());
      if (k1 + k2 > 0.0) ratio_acc += (k1 - k2) / (k1 + k2);
      pairs.emplace_back(std::move(a), std::move(b));
    }
    const double achieved = ratio_acc / pairs_per_point;
    SystolicDiffMachine machine;  // recycled, as the row executor does
    SystolicConfig cfg;
    cfg.canonicalize_output = true;
    // Untimed model pass: iteration counts for the Figure-5/Theorem-1
    // checks (deterministic, unlike the wall-clock series).
    double iter_frac_acc = 0.0;
    for (const auto& [a, b] : pairs) {
      const auto iters = static_cast<double>(
          systolic_xor(a, b, cfg, machine).counters.iterations);
      const auto k = static_cast<double>(a.run_count() + b.run_count());
      if (iters > k) theorem1_ok = false;
      if (k > 0.0) iter_frac_acc += iters / k;
    }
    const double iter_frac = iter_frac_acc / pairs_per_point;
    const double t_sys =
        time_pairs_us(pairs, reps, sink,
                      [&machine, &cfg](const RleRow& a, const RleRow& b) {
                        return systolic_xor(a, b, cfg, machine)
                            .output.run_count();
                      });
    const double t_eng =
        time_pairs_us(pairs, reps, sink, [](const RleRow& a, const RleRow& b) {
          return sequential_engine_xor(a, b).output.run_count();
        });
    if (t_eng >= t_sys) wallclock_dominated = false;
    const AdaptiveRoute route = choose_adaptive_route(
        100, static_cast<std::uint64_t>(100.0 * (1.0 - p) + 0.5));
    const bool routed_systolic = route == AdaptiveRoute::kSystolic;
    if (target == target_ratios.front()) first_routes_systolic = routed_systolic;
    if (target == target_ratios.back()) last_routes_sequential = !routed_systolic;
    theta_table.add_row(
        {FixedTable::num(achieved, 3), FixedTable::num(iter_frac, 3),
         FixedTable::num(t_sys, 2), FixedTable::num(t_eng, 2),
         routed_systolic ? "systolic" : "sequential"});
    ratios.push_back(achieved);
    sys_us.push_back(t_sys);
    eng_us.push_back(t_eng);
    iter_fracs.push_back(iter_frac);
  }
  std::cout << theta_table.str();

  // Figure-5 correlation: systolic iterations per unit k must climb with
  // the dissimilarity ratio (monotone up to a small noise slack) and span
  // a real range across the sweep.
  bool fig5_ok = iter_fracs.back() > iter_fracs.front() + 0.3;
  for (std::size_t i = 1; i < iter_fracs.size(); ++i)
    if (iter_fracs[i] < iter_fracs[i - 1] - 0.02) fig5_ok = false;

  // The recalibration itself: θ prices a systolic cycle against sequential
  // work, so the old scalar-tuned 0.5 shrinks by the engine's measured
  // headline speedup.
  const double theta_derived =
      headline_speedup > 0.0 ? 0.5 / headline_speedup : 0.0;
  const double theta_band = smoke ? 0.15 : 0.05;
  std::cout << "derived theta = 0.5 / " << FixedTable::num(headline_speedup, 2)
            << " = " << FixedTable::num(theta_derived, 3)
            << "  (pinned kDefaultSimilarityThreshold = "
            << FixedTable::num(kDefaultSimilarityThreshold, 3) << ")\n";

  report.set_x("dissimilarity_ratio", ratios);
  report.add_series("systolic_us_per_row", sys_us);
  report.add_series("engine_us_per_row", eng_us);
  report.add_series("systolic_iter_fraction", iter_fracs);
  report.set_scalar("paper_no_harm_ratio", no_harm_ratio);
  report.set_scalar("headline_speedup", headline_speedup);
  report.set_scalar("theta_derived_from_speedup", theta_derived);
  report.set_scalar("recalibrated_theta", kDefaultSimilarityThreshold);
  report.set_check("word_engine_3x_on_sparse",
                   headline_speedup >= (smoke ? 1.5 : 3.0));
  report.set_check("bit_identical_to_scalar_oracle", identical);
  report.set_check("paper_workload_no_harm",
                   no_harm_ratio > 0.0 && no_harm_ratio <= (smoke ? 1.6 : 1.25));
  report.set_check("theorem1_holds_on_sweep", theorem1_ok);
  report.set_check("figure5_iterations_track_dissimilarity", fig5_ok);
  report.set_check("simulator_wallclock_dominated", wallclock_dominated);
  report.set_check("theta_tracks_engine_speedup",
                   theta_derived > 0.0 &&
                       kDefaultSimilarityThreshold - theta_derived <= theta_band &&
                       theta_derived - kDefaultSimilarityThreshold <= theta_band);
  report.set_check("theta_splits_sweep",
                   first_routes_systolic && last_routes_sequential);
  report.write_file(json_path);
  std::cout << "wrote " << json_path << '\n';
  if (sink == 0xdeadbeef) std::cout << "";  // keep the checksums alive
  return report.all_checks_pass();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sysrle;

  std::string json_path;
  std::string threads_json_path;
  std::string dispatch_json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--threads-json" && i + 1 < argc) {
      threads_json_path = argv[++i];
    } else if (a == "--dispatch-json" && i + 1 < argc) {
      dispatch_json_path = argv[++i];
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_scaling [--json FILE] [--threads-json FILE] "
                   "[--dispatch-json FILE] [--smoke]\n";
      return 2;
    }
  }

  const int kSeeds = smoke ? 5 : 25;
  const pos_t max_width = smoke ? 8192 : 131072;
  FixedTable table;
  table.set_header({"width", "runs(k1)", "systolic-iters", "sequential-iters",
                    "pixel-parallel-steps", "systolic-cells"});

  std::cout << "=== Scaling with 6 fixed error runs of 4 px ===\n";
  std::cout << "(systolic should stay flat; sequential and pixel-parallel "
               "grow with size)\n\n";

  std::vector<double> xs, k1s, sys_iters, seq_iters, pp_steps, cells;
  double sys_first = 0, sys_last = 0, seq_first = 0, seq_last = 0;
  for (pos_t width = 128; width <= max_width; width *= 4) {
    RowGenParams rp;
    rp.width = width;
    RunningStat sys_stat, seq_stat, k1_stat, cells_stat;
    for (int seed = 0; seed < kSeeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(width) * 131 +
              static_cast<std::uint64_t>(seed));
      const RowPairSample s = generate_pair_fixed_errors(rng, rp, 6, 4);
      const SystolicResult r = systolic_xor(s.first, s.second);
      sys_stat.add(static_cast<double>(r.counters.iterations));
      seq_stat.add(
          static_cast<double>(sequential_xor(s.first, s.second).iterations));
      k1_stat.add(static_cast<double>(s.first.run_count()));
      cells_stat.add(static_cast<double>(r.counters.cells_used));
    }
    const auto pp = pixel_parallel_cost(width);
    table.add_row({FixedTable::num(static_cast<std::int64_t>(width)),
                   FixedTable::num(k1_stat.mean(), 0),
                   FixedTable::num(sys_stat.mean(), 2),
                   FixedTable::num(seq_stat.mean(), 0),
                   FixedTable::num(pp.total_steps()),
                   FixedTable::num(cells_stat.mean(), 0)});
    xs.push_back(static_cast<double>(width));
    k1s.push_back(k1_stat.mean());
    sys_iters.push_back(sys_stat.mean());
    seq_iters.push_back(seq_stat.mean());
    pp_steps.push_back(static_cast<double>(pp.total_steps()));
    cells.push_back(cells_stat.mean());
    if (width == 128) {
      sys_first = sys_stat.mean();
      seq_first = seq_stat.mean();
    }
    sys_last = sys_stat.mean();
    seq_last = seq_stat.mean();
  }

  const bool claim_holds = sys_last / sys_first < 3.0;
  std::cout << table.str() << '\n';
  std::cout << "growth 128 -> " << max_width << ": systolic x"
            << FixedTable::num(sys_last / sys_first, 2) << ", sequential x"
            << FixedTable::num(seq_last / seq_first, 1)
            << (claim_holds ? "  [constant-time claim holds]"
                            : "  [CLAIM VIOLATED]")
            << '\n';
  std::cout << "\nCSV:\n" << table.csv();

  bool all_ok = true;
  if (!json_path.empty()) {
    BenchReport report("scaling");
    report.set_param("seeds", static_cast<std::int64_t>(kSeeds));
    report.set_param("error_runs", static_cast<std::int64_t>(6));
    report.set_param("error_run_length", static_cast<std::int64_t>(4));
    report.set_param("mode", smoke ? "smoke" : "full");
    report.set_x("width", xs);
    report.add_series("k1", k1s);
    report.add_series("systolic_iterations", sys_iters);
    report.add_series("sequential_iterations", seq_iters);
    report.add_series("pixel_parallel_steps", pp_steps);
    report.add_series("systolic_cells", cells);
    report.set_scalar("growth_systolic", sys_last / sys_first);
    report.set_scalar("growth_sequential", seq_last / seq_first);
    report.set_check("constant_time_claim", claim_holds);
    report.write_file(json_path);
    all_ok = report.all_checks_pass();
    std::cout << "\nwrote " << json_path << '\n';
  }

  if (!threads_json_path.empty())
    all_ok = run_thread_sweep(threads_json_path, smoke) && all_ok;
  if (!dispatch_json_path.empty())
    all_ok = run_dispatch_sweep(dispatch_json_path, smoke) && all_ok;
  return all_ok ? 0 : 1;
}
