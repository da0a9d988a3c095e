// batch_diff: an offline batch of paper-width image pairs, one caller.
//
// Closed loop: the caller loads a scan from its SRLB bytes (read_rle), diffs
// it against its pre-parsed reference with image_diff (DiffEngine::kAdaptive,
// threads = 0: the row executor uses every core), and checks the result
// against the oracle before the next call.  Pairs follow the paper's §5
// generator at 10000 px: two calls in the similar regime (about 3.5% error)
// for every call in the run-dense regime (about 30% error), since the
// systolic machine's cost tracks dissimilarity (Figure 5).

#include <memory>
#include <sstream>

#include "core/image_diff.hpp"
#include "harness.hpp"
#include "rle/serialize.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace sysrle;

namespace {

constexpr pos_t kWidth = 10000;
constexpr pos_t kHeight = 48;
constexpr std::size_t kPairsPerRegime = 24;
constexpr double kSimilarError = 0.035;
constexpr double kDenseError = 0.30;
/// Goodput latency limit per call (load + diff).
constexpr double kCallLimitMs = 1000.0;

struct Pair {
  std::string ref_srlb;
  std::string scan_srlb;
  std::uint64_t expected = 0;
};

struct Inputs {
  std::vector<Pair> similar;
  std::vector<Pair> dense;
};

Pair make_pair(Rng& rng, double error) {
  RowGenParams rp;
  rp.width = kWidth;
  ErrorGenParams ep;
  ep.error_fraction = error;
  std::vector<RleRow> a, b;
  for (pos_t y = 0; y < kHeight; ++y) {
    RowPairSample s = generate_pair(rng, rp, ep);
    a.push_back(std::move(s.first));
    b.push_back(std::move(s.second));
  }
  const RleImage ref(kWidth, std::move(a)), scan(kWidth, std::move(b));
  return {srlb_bytes(ref), srlb_bytes(scan), oracle_fingerprint(ref, scan)};
}

Inputs build_inputs(const Options& opts) {
  Inputs in;
  Rng rng = rng_for(opts.seed, 21);
  for (std::size_t i = 0; i < kPairsPerRegime; ++i) {
    in.similar.push_back(make_pair(rng, kSimilarError));
    in.dense.push_back(make_pair(rng, kDenseError));
  }
  return in;
}

RleImage load(const std::string& srlb) {
  std::istringstream bytes(srlb);
  return read_rle(bytes);
}

/// Call i's pair: two similar-regime calls, then one run-dense call.  The
/// pattern repeats every kCycle calls, covering every dense pair once and
/// every similar pair twice.
struct Pick {
  bool dense = false;
  std::size_t index = 0;
};
constexpr std::size_t kCycle = 3 * kPairsPerRegime;

Pick pick(std::size_t call) {
  const std::size_t k = call / 3;
  if (call % 3 == 2) return {true, k % kPairsPerRegime};
  return {false, (2 * k + call % 3) % kPairsPerRegime};
}

Report run_phase(const Inputs& in, const Options& opts, Tracer& tracer) {
  Report rep;
  ImageDiffOptions diff_opts;
  diff_opts.engine = DiffEngine::kAdaptive;
  diff_opts.threads = 0;

  // ---- set-up, repeated: load the reference library, one warm call per
  // regime (spawns the row executor's pool on first use) --------------------
  std::vector<double> setup_s;
  std::vector<RleImage> similar_refs, dense_refs;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    similar_refs.clear();
    dense_refs.clear();
    const TimePoint t0 = Clock::now();
    for (const Pair& p : in.similar) similar_refs.push_back(load(p.ref_srlb));
    for (const Pair& p : in.dense) dense_refs.push_back(load(p.ref_srlb));
    const ImageDiffResult w1 = image_diff(
        similar_refs[0], load(in.similar[0].scan_srlb), diff_opts);
    const ImageDiffResult w2 =
        image_diff(dense_refs[0], load(in.dense[0].scan_srlb), diff_opts);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    rep.gate(canonical_fingerprint(w1.diff) == in.similar[0].expected &&
                 canonical_fingerprint(w2.diff) == in.dense[0].expected,
             "warm-up diff differs from the oracle");
  }

  // ---- measured closed loop -----------------------------------------------
  Samples diff_ms, load_ms, fp_us;
  double diff_seconds = 0.0, check_seconds = 0.0;
  std::uint64_t calls = 0, good = 0, mismatches = 0;
  // Exact work counts, summed over the first cycle of calls.
  std::uint64_t iterations = 0, seq_iterations = 0, max_row_iterations = 0,
                systolic_rows = 0, sequential_rows = 0, parallel_rows = 0;
  double threads_used = 0.0;
  const TimePoint start = Clock::now();
  const TimePoint stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opts.seconds));
  TimePoint now = start;
  for (std::size_t i = 0; now < stop || i < kCycle; ++i) {
    const Pick pk = pick(i);
    const Pair& p = (pk.dense ? in.dense : in.similar)[pk.index];
    const RleImage& ref = (pk.dense ? dense_refs : similar_refs)[pk.index];
    double load_us = 0.0, diff_us = 0.0;
    const TimePoint t0 = Clock::now();
    const RleImage scan = timed(tracer, i, "rle.read_rle", load_us,
                                [&] { return load(p.scan_srlb); });
    const ImageDiffResult r =
        timed(tracer, i, "core.image_diff", diff_us,
              [&] { return image_diff(ref, scan, diff_opts); });
    const TimePoint t1 = Clock::now();
    ++calls;
    const bool ok = canonical_fingerprint(r.diff) == p.expected;
    const double check_us = us_between(t1, Clock::now());
    fp_us.add(check_us);
    check_seconds += check_us / 1e6;
    if (tracer.enabled()) tracer.span(i, "op", t0, t1);
    if (i < kCycle) {
      iterations += r.counters.iterations;
      seq_iterations += r.sequential_iterations;
      max_row_iterations =
          std::max<std::uint64_t>(max_row_iterations, r.max_row_iterations);
      systolic_rows += r.adaptive_systolic_rows;
      sequential_rows += r.adaptive_sequential_rows;
      parallel_rows += r.parallel_rows;
      threads_used =
          std::max(threads_used, static_cast<double>(r.threads_used));
    }
    now = Clock::now();
    if (!ok) {
      ++mismatches;
      continue;
    }
    const double ms = ms_between(t0, t1);
    diff_ms.add(diff_us / 1000.0);
    load_ms.add(load_us / 1000.0);
    diff_seconds += diff_us / 1e6;
    if (ms <= kCallLimitMs) ++good;
  }
  // The oracle checks are not part of the batch's own time.
  const double busy_s = ms_between(start, now) / 1000.0 - check_seconds;

  rep.attempted = calls;
  rep.failed = mismatches;
  rep.gate(mismatches == 0,
           std::to_string(mismatches) + " diffs differ from the oracle");

  const double pixels = static_cast<double>(kWidth) * kHeight;
  rep.foreground_p50_ms = diff_ms.pct(0.5);
  rep.setup(std::move(setup_s));
  rep.e2e("p50_ms", diff_ms.pct(0.5), "ms");
  rep.layer("p99_ms", diff_ms.pct(0.99), "ms");
  rep.layer("batch_p99_ms", diff_ms.pct(0.99), "ms");
  rep.layer("ingest_p99_ms", load_ms.pct(0.99), "ms");
  rep.e2e("goodput_rps", static_cast<double>(good) / busy_s, "1/s");
  const double mpix = static_cast<double>(diff_ms.size()) * pixels / 1e6;
  rep.e2e("diff_mpix_s", diff_seconds > 0 ? mpix / diff_seconds : 0.0,
          "Mpix/s");

  rep.layer("bench.p99_samples", static_cast<double>(diff_ms.size()), "count");
  rep.layer("rle.read_us_p50", load_ms.pct(0.5) * 1000.0, "us");
  rep.layer("rle.fingerprint_us_p50", fp_us.pct(0.5), "us");
  rep.layer("core.image_diff_ms_p50", diff_ms.pct(0.5), "ms");
  rep.layer("core.threads_used", threads_used, "count");
  const auto count = [&](const char* name, std::uint64_t value) {
    rep.layer(name, static_cast<double>(value), "count");
  };
  count("core.parallel_rows", parallel_rows);
  count("core.adaptive_systolic_rows", systolic_rows);
  count("core.adaptive_sequential_rows", sequential_rows);
  count("systolic.iterations", iterations);
  count("core.sequential_iterations", seq_iterations);
  count("core.max_row_iterations", max_row_iterations);
  return rep;
}

}  // namespace

Runner prepare_batch_diff(const Options& opts) {
  auto in = std::make_shared<const Inputs>(build_inputs(opts));
  return [in](const Options& o, Tracer& tracer) {
    return run_phase(*in, o, tracer);
  };
}

}  // namespace perfbench
