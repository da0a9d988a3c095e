// sysrle_perfbench: runs one benchmark workload against the sysrle library
// and prints its metrics.
//
//   sysrle_perfbench --workload <serve_scan|serve_store|batch_diff>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  The line before it is the full record of the run: seed, host
// context, every metric, and the correctness violations, if any.
//
// --trace 1 runs the workload twice on the same inputs: untraced for the full
// seconds, exactly as --trace 0 does, then for half the seconds with the
// benchmark's spans recorded.  The client tail figures (p99_ms, batch_p99_ms,
// ingest_p99_ms, bench.p99_samples) come from the untraced phase, so they hold
// as many samples as a normal run; every other per-layer figure comes from the
// traced phase.  The change in foreground median latency between the two
// phases is reported as bench.trace_overhead_share.
//
// Exit codes: 0 when a result was printed, 2 on a usage error or when the
// run could not complete.

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/simd_dispatch.hpp"
#include "harness.hpp"

namespace {

using perfbench::Clock;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n"
            << "usage: sysrle_perfbench --workload <serve_scan|serve_store|"
               "batch_diff> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() ||
      !std::isfinite(v))
    usage_error(flag + " expects a number, got '" + text + "'");
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const double s = parse_number(flag, value);
      if (s < 0 || s != std::floor(s))
        usage_error("--seed expects a whole number");
      o.seed = static_cast<std::uint64_t>(s);
    } else if (flag == "--seconds") {
      o.seconds = parse_number(flag, value);
      if (o.seconds <= 0 || o.seconds > 120)
        usage_error("--seconds must be in (0, 120]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace expects 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ec == std::errc() ? end : buf);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Report::Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": {\"value\": " + num(metric.value) +
           ", \"unit\": " + quoted(metric.unit) + "}";
  }
  return out + "}";
}

volatile std::uint64_t g_probe_sink = 0;  // keeps the probe loop alive

/// Host context recorded next to every result: core count, SIMD level, and a
/// short parallel-capacity probe (the same busy loop on one thread, then on
/// every core at once).  Context, not a compared metric.
std::string host_context() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const auto busy = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20'000'000; ++i)
      x ^= (x << 7) ^ (x >> 9) ^ static_cast<std::uint64_t>(i);
    return x;
  };
  auto t0 = Clock::now();
  g_probe_sink = g_probe_sink ^ busy();
  const double one_ms = perfbench::ms_between(t0, Clock::now());
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> sinks(nproc);
  t0 = Clock::now();
  for (unsigned t = 0; t < nproc; ++t)
    threads.emplace_back([&sinks, &busy, t] { sinks[t] = busy(); });
  for (auto& t : threads) t.join();
  const double all_ms = perfbench::ms_between(t0, Clock::now());
  for (const std::uint64_t s : sinks) g_probe_sink = g_probe_sink ^ s;
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"simd\": "
      << quoted(sysrle::to_string(sysrle::active_simd_level()))
      << ", \"probe_one_ms\": " << num(one_ms)
      << ", \"probe_all_ms\": " << num(all_ms)
      << ", \"parallel_slowdown\": " << num(one_ms > 0 ? all_ms / one_ms : 0.0)
      << "}";
  return out.str();
}

/// Every metric of `table` present in `m` (absent ones, i.e. layers the
/// workload bypasses, read 0).
void complete(std::map<std::string, Report::Metric>& m,
              const std::vector<std::pair<std::string, std::string>>& table) {
  for (const auto& [name, unit] : table)
    if (!m.count(name)) m[name] = {0.0, unit};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  try {
    if (!opts.out_dir.empty())
      std::filesystem::create_directories(opts.out_dir);
    perfbench::Runner run;
    if (opts.workload == "serve_scan")
      run = perfbench::prepare_serve_scan(opts);
    else if (opts.workload == "serve_store")
      run = perfbench::prepare_serve_store(opts);
    else if (opts.workload == "batch_diff")
      run = perfbench::prepare_batch_diff(opts);
    else
      usage_error("unknown workload '" + opts.workload + "'");

    const std::string host = host_context();
    // The inputs are built; peak RSS counts what the run adds on top of them.
    const perfbench::RssBaseline rss = perfbench::start_peak_rss();
    perfbench::Tracer off(false);
    Report result = run(opts, off);
    result.e2e("peak_rss_mb", perfbench::peak_rss_mb() - rss.mb, "MB");
    Report full = result;
    std::uint64_t attempted = result.attempted, failed = result.failed;
    std::vector<std::string> violations = result.violations;
    if (opts.trace) {
      Options half = opts;
      half.seconds = opts.seconds / 2;
      perfbench::Tracer on(true);
      Report traced = run(half, on);
      perfbench::add_trace_metrics(traced, on, opts);
      const double base = result.foreground_p50_ms;
      traced.layer("bench.trace_overhead_share",
                   base > 0 ? traced.foreground_p50_ms / base - 1.0 : 0.0,
                   "share");
      for (const char* tail :
           {"p99_ms", "batch_p99_ms", "ingest_p99_ms", "bench.p99_samples"})
        traced.per_layer[tail] = result.per_layer.at(tail);
      attempted += traced.attempted;
      failed += traced.failed;
      violations.insert(violations.end(), traced.violations.begin(),
                        traced.violations.end());
      full.per_layer = traced.per_layer;
    }
    complete(full.end_to_end, perfbench::end_to_end_metrics());
    complete(full.per_layer, perfbench::per_layer_metrics());

    for (const std::string& v : violations)
      std::cerr << "perfbench: INVALID: " << v << "\n";
    const bool correct = violations.empty();

    std::string viol = "[";
    for (const std::string& v : violations)
      viol += (viol.size() > 1 ? ", " : "") + quoted(v);
    viol += "]";
    std::string reps = "[";
    for (const double r : result.setup_reps_s)
      reps += (reps.size() > 1 ? ", " : "") + num(r);
    reps += "]";
    std::cout << "{\"perfbench_record\": {\"workload\": "
              << quoted(opts.workload) << ", \"seed\": " << opts.seed
              << ", \"seconds\": " << num(opts.seconds)
              << ", \"trace\": " << (opts.trace ? 1 : 0)
              << ", \"host\": " << host
              << ", \"rss_baseline_mb\": " << num(rss.mb)
              << ", \"rss_peak_reset\": " << (rss.reset ? "true" : "false") << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"violations\": " << viol
              << ", \"setup_reps_s\": " << reps
              << ", \"end_to_end\": " << metrics_json(full.end_to_end)
              << ", \"per_layer\": " << metrics_json(full.per_layer) << "}}\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": "
              << metrics_json(opts.trace ? full.per_layer : full.end_to_end)
              << "}" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
