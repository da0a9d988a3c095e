#include "cli/cli.hpp"

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>

#include "baseline/simd_dispatch.hpp"
#include "bitmap/convert.hpp"
#include "bitmap/pbm_io.hpp"
#include "common/assert.hpp"
#include "common/fixed_table.hpp"
#include "core/campaign.hpp"
#include "core/image_diff.hpp"
#include "core/stream_diff.hpp"
#include "core/systolic_diff.hpp"
#include "inspect/pipeline.hpp"
#include "inspect/report.hpp"
#include "rle/rle_stats.hpp"
#include "rle/serialize.hpp"
#include "service/service.hpp"
#include "service/shard_router.hpp"
#include "store/durable_store.hpp"
#include "store/image_store.hpp"
#include "store/result_cache.hpp"
#include "systolic/verilog_gen.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/generator.hpp"
#include "workload/pcb.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

// ---------------------------------------------------------------- utilities

[[noreturn]] void usage_error(const std::string& message) {
  throw contract_error("usage: " + message);
}

/// Parses a whole string as a signed integer; anything else — garbage,
/// trailing junk, overflow — is a usage error, never a crash.
std::int64_t parse_i64(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(text, &used);
  } catch (const std::exception&) {
    usage_error(what + " expects an integer (got '" + text + "')");
  }
  if (used != text.size())
    usage_error(what + " expects an integer (got '" + text + "')");
  return v;
}

/// Same contract as parse_i64, for floating point values.
double parse_f64(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    usage_error(what + " expects a number (got '" + text + "')");
  }
  if (used != text.size())
    usage_error(what + " expects a number (got '" + text + "')");
  return v;
}

/// Loads an image file, auto-detecting PBM vs sysrle RLE by magic bytes.
RleImage load_image(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SYSRLE_REQUIRE(in.is_open(), "cannot open: " + path);
  char magic[2] = {};
  in.read(magic, 2);
  SYSRLE_REQUIRE(in.good(), "cannot read: " + path);
  in.seekg(0);
  if (magic[0] == 'P' && (magic[1] == '1' || magic[1] == '4'))
    return bitmap_to_rle(read_pbm(in));
  return read_rle(in);
}

/// Saves an image; format chosen by extension (.pbm / .srlt / default SRLB).
void save_image(const std::string& path, const RleImage& img) {
  auto ends_with = [&path](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".pbm")) {
    write_pbm_file(path, rle_to_bitmap(img));
  } else if (ends_with(".srlt")) {
    write_rle_file(path, img, RleFormat::kText);
  } else {
    write_rle_file(path, img, RleFormat::kBinary);
  }
}

/// Simple flag parser: positional arguments plus --key value / --key flags.
class ArgParser {
 public:
  explicit ArgParser(std::vector<std::string> args) : args_(std::move(args)) {}

  /// Splits into positionals and options.  `value_flags` lists options that
  /// consume a value; everything else starting with "--" is boolean.
  void parse(const std::vector<std::string>& value_flags) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& a = args_[i];
      if (a.rfind("--", 0) == 0) {
        const bool takes_value =
            std::find(value_flags.begin(), value_flags.end(), a) !=
            value_flags.end();
        if (takes_value) {
          SYSRLE_REQUIRE(i + 1 < args_.size(), "missing value for " + a);
          options_[a] = args_[++i];
        } else {
          options_[a] = "";
        }
      } else if (a == "-o") {
        SYSRLE_REQUIRE(i + 1 < args_.size(), "missing value for -o");
        options_["--output"] = args_[++i];
      } else {
        positional_.push_back(a);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& key) const { return options_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    return parse_i64(it->second, key);
  }

  double get_double(const std::string& key, double fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    return parse_f64(it->second, key);
  }

 private:
  std::vector<std::string> args_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
};

// ------------------------------------------------------------ JSON helpers
//
// Shared serialisation between `stats --json`, `diff --stats --json` and
// `perf`, so the three subcommands cannot drift apart field by field.
// Schemas ("sysrle.stats.v1" etc.) follow the versioning policy in
// docs/OBSERVABILITY.md: additions are compatible, removals bump the suffix.

/// Emits the members of an image-statistics object (caller opens/closes it).
void write_image_stats_members(JsonWriter& w, const RleImage& img) {
  const RleImageStats s = img.stats();
  const CompressionStats c = compression_stats(img);
  w.member("width", static_cast<std::int64_t>(img.width()));
  w.member("height", static_cast<std::int64_t>(img.height()));
  w.member("foreground_pixels", static_cast<std::int64_t>(s.foreground_pixels));
  w.member("density", s.density);
  w.member("total_runs", static_cast<std::uint64_t>(s.total_runs));
  w.member("max_runs_per_row", static_cast<std::uint64_t>(s.max_runs_per_row));
  w.key("compression");
  w.begin_object();
  w.member("bitmap_bytes", c.bitmap_bytes);
  w.member("rle_bytes", c.rle_bytes);
  w.member("ratio", c.ratio());
  w.end_object();
}

/// Emits a SystolicCounters value as an object.
void write_counters_json(JsonWriter& w, const SystolicCounters& c) {
  w.begin_object();
  w.member("iterations", c.iterations);
  w.member("swaps", c.swaps);
  w.member("promotions", c.promotions);
  w.member("xors", c.xors);
  w.member("shifts", c.shifts);
  w.member("bus_moves", c.bus_moves);
  w.member("bus_cycles", c.bus_cycles);
  w.member("cells_used", c.cells_used);
  w.end_object();
}

/// Emits a {count,min,max,mean,p50,p95,p99} summary of a histogram, or null
/// when the metric never fired (e.g. a non-systolic engine was selected).
void write_hist_summary(JsonWriter& w, std::string_view key,
                        const Histogram* h) {
  w.key(key);
  if (h == nullptr || h->stat().count() == 0) {
    w.null();
    return;
  }
  const RunningStat& st = h->stat();
  w.begin_object();
  w.member("count", static_cast<std::uint64_t>(st.count()));
  w.member("min", st.min());
  w.member("max", st.max());
  w.member("mean", st.mean());
  w.member("p50", st.p50());
  w.member("p95", st.p95());
  w.member("p99", st.p99());
  w.end_object();
}

DiffEngine parse_engine(const std::string& name) {
  if (name == "systolic") return DiffEngine::kSystolic;
  if (name == "bus") return DiffEngine::kBusSystolic;
  if (name == "sequential") return DiffEngine::kSequentialMerge;
  if (name == "adaptive") return DiffEngine::kAdaptive;
  usage_error("unknown engine '" + name +
              "' (systolic|bus|sequential|adaptive)");
}

/// Resolves --threads: absent = 0 (auto); present values must be >= 1 —
/// "--threads 0" is ambiguous enough to refuse rather than guess.
std::size_t parse_threads(const ArgParser& args) {
  if (!args.has("--threads")) return 0;
  const std::int64_t v = args.get_int("--threads", 0);
  if (v < 1) usage_error("--threads must be >= 1");
  return static_cast<std::size_t>(v);
}

/// Emits the effective-parallelism members shared by diff and perf JSON:
/// a serial fallback is visible as threads_used == 1 / parallel_rows == 0.
void write_parallelism_members(JsonWriter& w, const ImageDiffResult& r) {
  w.member("threads_used", r.threads_used);
  w.member("parallel_rows", r.parallel_rows);
  w.key("adaptive");
  w.begin_object();
  w.member("picked_systolic", r.adaptive_systolic_rows);
  w.member("picked_sequential", r.adaptive_sequential_rows);
  w.member("modelled_iterations", r.adaptive_modelled_iterations);
  w.end_object();
}

// ------------------------------------------------------------- subcommands

int cmd_diff(ArgParser& args, std::ostream& out) {
  args.parse({"--engine", "--output", "--threads"});
  if (args.positional().size() != 2)
    usage_error(
        "diff <a> <b> [-o FILE] [--engine E] [--threads N] [--canonical] "
        "[--stats] [--json]");
  const RleImage a = load_image(args.positional()[0]);
  const RleImage b = load_image(args.positional()[1]);

  ImageDiffOptions options;
  options.engine = parse_engine(args.get("--engine", "systolic"));
  options.threads = parse_threads(args);
  options.canonicalize_output = args.has("--canonical");
  const ImageDiffResult result = image_diff(a, b, options);

  if (args.has("--output")) {
    save_image(args.get("--output", ""), result.diff);
    if (!args.has("--json"))
      out << "wrote " << args.get("--output", "") << '\n';
  }

  if (args.has("--json")) {
    JsonWriter w(out);
    w.begin_object();
    w.member("schema", "sysrle.diff.v1");
    w.member("engine", to_string(options.engine));
    w.member("simd", to_string(active_simd_level()));
    w.member("canonical", options.canonicalize_output);
    w.key("diff");
    w.begin_object();
    write_image_stats_members(w, result.diff);
    w.end_object();
    w.member("max_row_iterations", result.max_row_iterations);
    w.member("sequential_iterations", result.sequential_iterations);
    write_parallelism_members(w, result);
    w.key("counters");
    write_counters_json(w, result.counters);
    w.end_object();
    out << '\n';
    return 0;
  }

  const RleImageStats stats = result.diff.stats();
  out << "engine: " << to_string(options.engine) << '\n';
  out << "differing pixels: " << stats.foreground_pixels << '\n';
  out << "difference runs : " << stats.total_runs << '\n';
  if (args.has("--stats")) {
    if (result.counters.iterations > 0)
      out << "machine: " << result.counters.to_string() << '\n';
    if (result.sequential_iterations > 0)
      out << "sequential iterations: " << result.sequential_iterations << '\n';
    out << "worst-row iterations: " << result.max_row_iterations << '\n';
    out << "threads used: " << result.threads_used << "  (parallel rows "
        << result.parallel_rows << ")\n";
    if (options.engine == DiffEngine::kAdaptive)
      out << "adaptive mix: " << result.adaptive_systolic_rows
          << " systolic, " << result.adaptive_sequential_rows
          << " sequential, " << result.adaptive_modelled_iterations
          << " modelled systolic iterations\n";
  }
  return 0;
}

int cmd_inspect(ArgParser& args, std::ostream& out) {
  args.parse({"--engine", "--align", "--min-area", "--threads"});
  if (args.positional().size() != 2)
    usage_error(
        "inspect <ref> <scan> [--align R] [--min-area N] [--engine E] "
        "[--threads N]");
  const RleImage ref = load_image(args.positional()[0]);
  const RleImage scan = load_image(args.positional()[1]);

  InspectionOptions options;
  options.engine = parse_engine(args.get("--engine", "systolic"));
  options.threads = parse_threads(args);
  options.alignment_radius = args.get_int("--align", 0);
  options.min_defect_area = args.get_int("--min-area", 2);
  const InspectionReport report = inspect(ref, scan, options);
  out << format_report(report);
  return report.pass ? 0 : 1;
}

int cmd_gen(ArgParser& args, std::ostream& out) {
  args.parse({"--seed", "--width", "--height", "--density", "--defects",
              "--error"});
  if (args.positional().size() != 2)
    usage_error("gen pcb|random <out> [--seed N] [--width W] [--height H] "
                "[--density D] [--defects N]");
  const std::string& kind = args.positional()[0];
  const std::string& path = args.positional()[1];
  Rng rng(static_cast<std::uint64_t>(args.get_int("--seed", 42)));

  if (kind == "pcb") {
    PcbParams p;
    p.width = args.get_int("--width", 1024);
    p.height = args.get_int("--height", 256);
    BitmapImage board = generate_pcb_artwork(rng, p);
    const std::int64_t defects = args.get_int("--defects", 0);
    if (defects > 0) {
      DefectParams dp;
      dp.count = static_cast<std::size_t>(defects);
      const auto injected = inject_pcb_defects(rng, board, dp);
      for (const InjectedDefect& d : injected)
        out << "injected: " << d.to_string() << '\n';
    }
    save_image(path, bitmap_to_rle(board));
  } else if (kind == "random") {
    RowGenParams p;
    p.width = args.get_int("--width", 1024);
    p.density = args.get_double("--density", 0.3);
    const pos_t height = args.get_int("--height", 64);
    save_image(path, generate_image(rng, height, p));
  } else {
    usage_error("gen: unknown kind '" + kind + "' (pcb|random)");
  }
  out << "wrote " << path << '\n';
  return 0;
}

int cmd_convert(ArgParser& args, std::ostream& out) {
  args.parse({});
  if (args.positional().size() != 2) usage_error("convert <in> <out>");
  save_image(args.positional()[1], load_image(args.positional()[0]));
  out << "wrote " << args.positional()[1] << '\n';
  return 0;
}

int cmd_stats(ArgParser& args, std::ostream& out) {
  args.parse({});
  if (args.positional().size() != 1) usage_error("stats <file> [--json]");
  const RleImage img = load_image(args.positional()[0]);

  if (args.has("--json")) {
    const RunLengthHistogram h = run_length_histogram(img);
    JsonWriter w(out);
    w.begin_object();
    w.member("schema", "sysrle.stats.v1");
    w.member("file", args.positional()[0]);
    write_image_stats_members(w, img);
    w.key("run_lengths");
    w.begin_object();
    w.member("total_runs", h.total_runs);
    w.member("min_length", static_cast<std::int64_t>(h.min_length));
    w.member("max_length", static_cast<std::int64_t>(h.max_length));
    w.member("mean_length", h.mean_length);
    w.key("buckets");
    w.begin_array();
    for (const std::uint64_t b : h.buckets) w.value(b);
    w.end_array();
    w.end_object();
    w.end_object();
    out << '\n';
    return 0;
  }

  const RleImageStats s = img.stats();
  out << "size: " << img.width() << " x " << img.height() << '\n';
  out << "foreground pixels: " << s.foreground_pixels << '\n';
  out << "density: " << s.density << '\n';
  out << "total runs: " << s.total_runs << '\n';
  out << "max runs per row (k): " << s.max_runs_per_row << '\n';
  out << "compression: " << compression_stats(img).to_string() << '\n';
  out << "run lengths: " << run_length_histogram(img).to_string();
  return 0;
}

/// Parses a run list like "10,3 16,2 23,2" into an RleRow.
RleRow parse_run_list(const std::string& text) {
  std::vector<Run> runs;
  std::istringstream in(text);
  std::string item;
  while (in >> item) {
    const std::size_t comma = item.find(',');
    SYSRLE_REQUIRE(comma != std::string::npos,
                   "run list items must be start,length (got '" + item + "')");
    runs.emplace_back(parse_i64(item.substr(0, comma), "run start"),
                      parse_i64(item.substr(comma + 1), "run length"));
  }
  return RleRow(std::move(runs));
}

int cmd_trace(ArgParser& args, std::ostream& out) {
  args.parse({"--cells"});
  if (args.positional().size() != 2)
    usage_error("trace \"<s,l> <s,l> ...\" \"<s,l> ...\" [--cells N]");
  const RleRow a = parse_run_list(args.positional()[0]);
  const RleRow b = parse_run_list(args.positional()[1]);

  TraceRecorder trace;
  SystolicConfig cfg;
  cfg.capacity = static_cast<std::size_t>(
      args.get_int("--cells",
                   static_cast<std::int64_t>(a.run_count() + b.run_count() + 1)));
  cfg.trace = &trace;
  cfg.check_invariants = true;
  const SystolicResult r = systolic_xor(a, b, cfg);

  out << "row a : " << a.to_string() << '\n';
  out << "row b : " << b.to_string() << "\n\n";
  out << trace.render() << '\n';
  out << "difference : " << r.output.to_string() << '\n';
  out << "iterations : " << r.counters.iterations << "  (Theorem-1 bound "
      << a.run_count() + b.run_count() << ", Observation bound "
      << r.output.run_count() + 1 << ")\n";
  return 0;
}

FaultKind parse_fault_kind(const std::string& name) {
  if (name == "no-swap") return FaultKind::kNoSwap;
  if (name == "corrupt-xor-end") return FaultKind::kCorruptXorEnd;
  if (name == "drop-shift") return FaultKind::kDropShift;
  if (name == "stuck-complete-high") return FaultKind::kStuckCompleteHigh;
  usage_error("unknown fault kind '" + name +
              "' (no-swap|corrupt-xor-end|drop-shift|stuck-complete-high)");
}

FaultActivation parse_fault_activation(const std::string& name) {
  if (name == "permanent") return FaultActivation::kPermanent;
  if (name == "transient") return FaultActivation::kTransient;
  if (name == "intermittent") return FaultActivation::kIntermittent;
  usage_error("unknown fault model '" + name +
              "' (permanent|transient|intermittent)");
}

int cmd_campaign(ArgParser& args, std::ostream& out) {
  args.parse({"--rows", "--width", "--seed", "--error", "--kind", "--model",
              "--retries", "--cell-stride"});
  if (!args.positional().empty())
    usage_error("campaign [--rows N] [--width W] [--seed S] [--error F] "
                "[--kind K] [--model M] [--retries R] [--cell-stride N] "
                "[--no-fallback] [--csv]");
  const std::int64_t rows = args.get_int("--rows", 16);
  const std::int64_t width = args.get_int("--width", 512);
  if (rows < 1) usage_error("--rows must be >= 1");
  if (width < 1) usage_error("--width must be >= 1");
  const double error_fraction = args.get_double("--error", 0.02);
  if (error_fraction < 0.0 || error_fraction > 1.0)
    usage_error("--error must be in [0, 1]");
  const std::int64_t seed = args.get_int("--seed", 42);
  const std::int64_t retries = args.get_int("--retries", 2);
  if (retries < 0) usage_error("--retries must be >= 0");
  const std::int64_t stride = args.get_int("--cell-stride", 1);
  if (stride < 1) usage_error("--cell-stride must be >= 1");

  // Reference rows plus error-injected scans, like the paper's experiments.
  Rng rng(static_cast<std::uint64_t>(seed));
  RowGenParams gp;
  gp.width = width;
  RleImage a = generate_image(rng, rows, gp);
  RleImage b(width, rows);
  ErrorGenParams ep;
  ep.error_fraction = error_fraction;
  for (pos_t y = 0; y < rows; ++y)
    b.set_row(y, inject_errors(rng, a.row(y), width, ep));

  CampaignConfig cfg;
  if (args.has("--kind"))
    cfg.kinds.push_back(parse_fault_kind(args.get("--kind", "")));
  if (args.has("--model"))
    cfg.activations.push_back(
        parse_fault_activation(args.get("--model", "")));
  cfg.policy.max_retries = static_cast<int>(retries);
  cfg.policy.fallback_to_sequential = !args.has("--no-fallback");
  cfg.cell_stride = static_cast<std::size_t>(stride);
  cfg.seed = static_cast<std::uint64_t>(seed);
  const CampaignResult r = run_fault_campaign(a, b, cfg);

  FixedTable table;
  table.set_header({"fault", "model", "trials", "clean", "detected",
                    "retried", "fell-back", "unrecovered", "silent",
                    "wasted-cycles"});
  auto add = [&table](const std::string& fault, const std::string& model,
                      const CampaignCounts& c) {
    table.add_row({fault, model, FixedTable::num(c.trials),
                   FixedTable::num(c.clean), FixedTable::num(c.detected),
                   FixedTable::num(c.recovered_by_retry),
                   FixedTable::num(c.fell_back),
                   FixedTable::num(c.unrecovered),
                   FixedTable::num(c.silent_corruptions),
                   FixedTable::num(c.wasted_cycles)});
  };
  for (const CampaignResult::Group& g : r.groups)
    add(to_string(g.kind), to_string(g.activation), g.counts);
  add("total", "*", r.total);
  out << (args.has("--csv") ? table.csv() : table.str());
  out << "verdict: "
      << (r.all_recovered() ? "all faults contained"
                            : "RESILIENCE GAP (silent corruption or "
                              "unrecovered rows)")
      << '\n';
  return r.all_recovered() ? 0 : 1;
}

int cmd_perf(ArgParser& args, std::ostream& out) {
  args.parse({"--rows", "--width", "--seed", "--error", "--engine",
              "--threads"});
  if (!args.positional().empty())
    usage_error(
        "perf [--rows N] [--width W] [--seed S] [--error F] [--engine E] "
        "[--threads N]");
  const std::int64_t rows = args.get_int("--rows", 256);
  const std::int64_t width = args.get_int("--width", 4096);
  if (rows < 1) usage_error("--rows must be >= 1");
  if (width < 1) usage_error("--width must be >= 1");
  const double error_fraction = args.get_double("--error", 0.03);
  if (error_fraction < 0.0 || error_fraction > 1.0)
    usage_error("--error must be in [0, 1]");
  const std::int64_t seed = args.get_int("--seed", 42);
  const std::string engine_name = args.get("--engine", "systolic");

  ImageDiffOptions options;
  options.engine = parse_engine(engine_name);
  options.threads = parse_threads(args);
  // Raw (non-canonical) output keeps the Observation-bound telemetry armed:
  // canonicalisation shrinks k3, which would fake violations.
  options.canonicalize_output = false;

  Rng rng(static_cast<std::uint64_t>(seed));
  RowGenParams gp;
  gp.width = width;
  const RleImage a = generate_image(rng, rows, gp);
  RleImage b(width, rows);
  ErrorGenParams ep;
  ep.error_fraction = error_fraction;
  for (pos_t y = 0; y < rows; ++y)
    b.set_row(y, inject_errors(rng, a.row(y), width, ep));

  // perf measures the instrumented pipeline whether or not --metrics was
  // passed; restore the caller's enable state afterwards so a plain
  // `sysrle perf` leaves telemetry off.
  const bool was_enabled = telemetry_enabled();
  reset_telemetry();
  set_telemetry_enabled(true);

  StreamDiffer differ(options, [](pos_t, const RleRow&) {});
  const auto t0 = std::chrono::steady_clock::now();
  for (pos_t y = 0; y < rows; ++y) differ.push_row(a.row(y), b.row(y));
  const auto t1 = std::chrono::steady_clock::now();
  const StreamSummary& summary = differ.finish();

  // Second phase: the whole-image row-parallel path, on the same inputs and
  // engine.  This is where --threads takes effect.
  const auto t2 = std::chrono::steady_clock::now();
  const ImageDiffResult image_result = image_diff(a, b, options);
  const auto t3 = std::chrono::steady_clock::now();

  const MetricsSnapshot snap = global_metrics().snapshot();
  set_telemetry_enabled(was_enabled);

  const double wall_us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
  const double image_wall_us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(t3 - t2).count());

  JsonWriter w(out);
  w.begin_object();
  w.member("schema", "sysrle.perf.v1");
  w.key("params");
  w.begin_object();
  w.member("rows", rows);
  w.member("width", width);
  w.member("seed", seed);
  w.member("error_fraction", error_fraction);
  w.member("engine", engine_name);
  w.member("simd", to_string(active_simd_level()));
  w.end_object();
  w.member("wall_time_us", wall_us);
  w.member("rows_per_sec", wall_us > 0.0
                               ? static_cast<double>(summary.rows) * 1e6 /
                                     wall_us
                               : 0.0);
  w.key("summary");
  w.begin_object();
  w.member("rows", summary.rows);
  w.member("difference_pixels",
           static_cast<std::int64_t>(summary.difference_pixels));
  w.member("max_row_iterations", summary.max_row_iterations);
  w.member("sequential_iterations", summary.sequential_iterations);
  w.member("pipelined_cycles", summary.pipelined_cycles);
  w.member("fallback_rows", summary.fallback_rows);
  w.member("poisoned_rows", summary.poisoned_rows);
  w.end_object();
  w.key("image_diff");
  w.begin_object();
  w.member("wall_time_us", image_wall_us);
  w.member("rows_per_sec", image_wall_us > 0.0
                               ? static_cast<double>(rows) * 1e6 /
                                     image_wall_us
                               : 0.0);
  write_parallelism_members(w, image_result);
  w.end_object();
  w.key("counters");
  write_counters_json(w, summary.counters);
  write_hist_summary(w, "row_iterations",
                     snap.histogram("systolic.row_iterations"));
  write_hist_summary(w, "row_latency_us",
                     snap.histogram("stream.row_latency_us"));
  w.member("observation_bound_ok",
           snap.counter("systolic.obs_bound_violations") == 0);
  w.end_object();
  out << '\n';
  return 0;
}

// ----------------------------------------------------------------- serving

/// One parsed line of a `serve` request file.
struct ServeSpec {
  Priority priority = Priority::kBatch;
  std::int64_t rows = 64;
  std::int64_t width = 1024;
  double error_fraction = 0.02;
  std::int64_t deadline_ms = -1;  ///< -1: use the command-wide default
};

/// `register <name> <rows> <width> [density]`: generate an image and put it
/// in the session's ImageStore under <name> (store mode only).
struct RegisterSpec {
  std::string name;
  std::int64_t rows = 64;
  std::int64_t width = 1024;
  double density = 0.30;
};

/// `diff-handles <priority> <a> <b> [deadline_ms]`: diff two registered
/// images by handle (store mode only).
struct HandleDiffSpec {
  Priority priority = Priority::kBatch;
  std::string a;
  std::string b;
  std::int64_t deadline_ms = -1;
};

/// One line of a serve request file: a plain generated-pair spec, or (in
/// --store mode) a store verb.  `wait` blocks submission until every
/// previously submitted request has been delivered — it separates
/// concurrent identical diffs (coalesced) from sequential ones (cache
/// hits) deterministically.
struct ServeAction {
  enum class Kind { kSpec, kRegister, kDiffHandles, kWait };
  Kind kind = Kind::kSpec;
  ServeSpec spec;
  RegisterSpec reg;
  HandleDiffSpec diff;
};

/// Reads request line `lineno`'s optional last operand into `value`, left
/// as is when absent.  An operand that does not parse whole, or any token
/// after it, is a usage error naming the line.
template <typename T>
void read_last_operand(std::istream& ls, T& value, std::size_t lineno) {
  std::string token;
  if (ls >> token) {
    std::istringstream ts(token);
    if (!(ts >> value) || ts.peek() != std::char_traits<char>::eof())
      usage_error("serve: request line " + std::to_string(lineno) +
                  ": bad operand '" + token + "'");
  }
  if (ls >> token)
    usage_error("serve: request line " + std::to_string(lineno) +
                ": unexpected operand '" + token + "'");
}

Priority parse_priority(const std::string& prio, std::size_t lineno) {
  if (prio == "interactive") return Priority::kInteractive;
  if (prio == "batch") return Priority::kBatch;
  usage_error("serve: request line " + std::to_string(lineno) +
              ": unknown priority '" + prio + "' (interactive|batch)");
}

/// Parses a serve request file (# comments and blank lines skipped); errors
/// name the offending line.  Plain lines are
/// "priority rows width error [deadline_ms]"; with `store_mode` the verbs
/// "register <name> <rows> <width> [density]" and
/// "diff-handles <priority> <a> <b> [deadline_ms]" (trailing ':' on the
/// verb accepted) are also understood.  Without store mode the verbs are a
/// usage error naming the missing flag, not a silent misparse.
std::vector<ServeAction> parse_serve_actions(std::istream& in,
                                             bool store_mode) {
  std::vector<ServeAction> actions;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (!head.empty() && head.back() == ':') head.pop_back();
    if (head == "register" || head == "diff-handles" || head == "wait") {
      if (!store_mode)
        usage_error("serve: request line " + std::to_string(lineno) + ": '" +
                    head + "' requires --store");
      ServeAction a;
      if (head == "wait") {
        a.kind = ServeAction::Kind::kWait;
        std::string extra;
        if (ls >> extra)
          usage_error("serve: request line " + std::to_string(lineno) +
                      ": 'wait' takes no operands");
        actions.push_back(std::move(a));
        continue;
      }
      if (head == "register") {
        a.kind = ServeAction::Kind::kRegister;
        ls >> a.reg.name >> a.reg.rows >> a.reg.width;
        if (!ls || a.reg.name.empty())
          usage_error("serve: request line " + std::to_string(lineno) +
                      " must be 'register <name> <rows> <width> [density]'");
        read_last_operand(ls, a.reg.density, lineno);
        if (a.reg.rows < 1 || a.reg.width < 1)
          usage_error("serve: request line " + std::to_string(lineno) +
                      ": rows and width must be >= 1");
        if (a.reg.density <= 0.0 || a.reg.density >= 1.0)
          usage_error("serve: request line " + std::to_string(lineno) +
                      ": density must be in (0, 1)");
      } else {
        a.kind = ServeAction::Kind::kDiffHandles;
        std::string prio;
        ls >> prio >> a.diff.a >> a.diff.b;
        if (!ls || a.diff.a.empty() || a.diff.b.empty())
          usage_error(
              "serve: request line " + std::to_string(lineno) +
              " must be 'diff-handles <priority> <a> <b> [deadline_ms]'");
        read_last_operand(ls, a.diff.deadline_ms, lineno);
        a.diff.priority = parse_priority(prio, lineno);
      }
      actions.push_back(std::move(a));
      continue;
    }
    ServeAction a;
    a.kind = ServeAction::Kind::kSpec;
    ServeSpec& s = a.spec;
    std::istringstream sl(line);
    std::string prio;
    sl >> prio >> s.rows >> s.width >> s.error_fraction;
    if (!sl)
      usage_error("serve: request line " + std::to_string(lineno) +
                  " must be 'priority rows width error [deadline_ms]'");
    read_last_operand(sl, s.deadline_ms, lineno);
    s.priority = parse_priority(prio, lineno);
    if (s.rows < 1 || s.width < 1)
      usage_error("serve: request line " + std::to_string(lineno) +
                  ": rows and width must be >= 1");
    if (s.error_fraction < 0.0 || s.error_fraction > 1.0)
      usage_error("serve: request line " + std::to_string(lineno) +
                  ": error must be in [0, 1]");
    actions.push_back(std::move(a));
  }
  return actions;
}

/// Parsed --kill-replica S.R@K: kill shard S's replica R once K requests
/// have been submitted (a mid-run fault for exercising failover).
struct KillSpec {
  std::size_t shard = 0;
  std::size_t replica = 0;
  std::uint64_t after = 0;
};

KillSpec parse_kill_replica(const std::string& text) {
  const std::size_t dot = text.find('.');
  const std::size_t at = text.find('@');
  if (dot == std::string::npos || at == std::string::npos || at < dot)
    usage_error("--kill-replica expects S.R@K (shard.replica@after_requests)");
  KillSpec k;
  k.shard = static_cast<std::size_t>(
      parse_i64(text.substr(0, dot), "--kill-replica shard"));
  k.replica = static_cast<std::size_t>(
      parse_i64(text.substr(dot + 1, at - dot - 1), "--kill-replica replica"));
  k.after = static_cast<std::uint64_t>(
      parse_i64(text.substr(at + 1), "--kill-replica after"));
  return k;
}

int cmd_serve(ArgParser& args, std::ostream& out) {
  args.parse({"--requests", "--workers", "--queue-cap", "--deadline-ms",
              "--seed", "--engine", "--shards", "--replicas",
              "--flight-recorder", "--flight-out", "--flight-trace",
              "--slo-p99-ms", "--kill-replica", "--store-cap-mb",
              "--cache-cap-mb", "--store-dir", "--snapshot-every"});
  if (!args.positional().empty() || !args.has("--requests"))
    usage_error(
        "serve --requests <file|-> [--workers N] [--queue-cap M] "
        "[--deadline-ms D] [--seed S] [--engine E] [--shards N] "
        "[--replicas R] [--flight-recorder N] "
        "[--flight-out FILE] [--flight-trace FILE] [--slo-p99-ms D] "
        "[--kill-replica S.R@K] [--store] [--store-dir DIR] "
        "[--snapshot-every N] [--store-cap-mb N] "
        "[--cache-cap-mb N] [--checked] [--json]");
  const std::string requests_path = args.get("--requests", "-");
  const std::int64_t workers = args.get_int("--workers", 2);
  const std::int64_t queue_cap = args.get_int("--queue-cap", 64);
  const std::int64_t default_deadline_ms = args.get_int("--deadline-ms", 0);
  const std::int64_t seed = args.get_int("--seed", 42);
  const std::int64_t shards = args.get_int("--shards", 1);
  const std::int64_t replicas = args.get_int("--replicas", 1);
  const std::int64_t flight_cap = args.get_int("--flight-recorder", 0);
  const std::string flight_out = args.get("--flight-out", "");
  const std::string flight_trace = args.get("--flight-trace", "");
  const std::int64_t slo_p99_ms = args.get_int("--slo-p99-ms", 50);
  const std::string store_dir = args.get("--store-dir", "");
  // A durable directory implies store mode: recovery repopulates the session
  // store and every registration/eviction is journaled.
  const bool use_store = args.has("--store") || !store_dir.empty();
  const std::int64_t store_cap_mb = args.get_int("--store-cap-mb", 64);
  const std::int64_t cache_cap_mb = args.get_int("--cache-cap-mb", 16);
  const std::int64_t snapshot_every = args.get_int("--snapshot-every", 64);
  if (workers < 0) usage_error("--workers must be >= 0 (0 = auto)");
  if (queue_cap < 1) usage_error("--queue-cap must be >= 1");
  if (default_deadline_ms < 0) usage_error("--deadline-ms must be >= 0");
  if (shards < 1) usage_error("--shards must be >= 1");
  if (replicas < 1) usage_error("--replicas must be >= 1");
  if (!use_store && args.has("--store-cap-mb"))
    usage_error("--store-cap-mb requires --store");
  if (!use_store && args.has("--cache-cap-mb"))
    usage_error("--cache-cap-mb requires --store");
  // The largest capacity whose byte count fits size_t.
  constexpr std::int64_t kMaxCapMb = static_cast<std::int64_t>(
      std::numeric_limits<std::size_t>::max() >> 20);
  if (store_cap_mb < 1 || store_cap_mb > kMaxCapMb)
    usage_error("--store-cap-mb must be in [1, " + std::to_string(kMaxCapMb) +
                "]");
  if (cache_cap_mb < 1 || cache_cap_mb > kMaxCapMb)
    usage_error("--cache-cap-mb must be in [1, " + std::to_string(kMaxCapMb) +
                "]");
  if (args.has("--snapshot-every") && store_dir.empty())
    usage_error("--snapshot-every requires --store-dir");
  if (snapshot_every < 0)
    usage_error("--snapshot-every must be >= 0 (0 = compact only on recovery)");
  if (flight_cap < 0)
    usage_error("--flight-recorder must be >= 0 (0 = off; N = ring slots)");
  if (flight_cap == 0 && (!flight_out.empty() || !flight_trace.empty()))
    usage_error("--flight-out/--flight-trace require --flight-recorder N");
  if (slo_p99_ms < 1) usage_error("--slo-p99-ms must be >= 1");
  std::optional<KillSpec> kill;
  if (args.has("--kill-replica")) {
    kill = parse_kill_replica(args.get("--kill-replica", ""));
    if (kill->shard >= static_cast<std::size_t>(shards) ||
        kill->replica >= static_cast<std::size_t>(replicas))
      usage_error("--kill-replica names a shard.replica outside the topology");
  }
  // Fail fast on unwritable flight destinations, same contract as the
  // global --metrics/--trace-out preflight.
  for (const std::string* path : {&flight_out, &flight_trace}) {
    if (path->empty()) continue;
    std::ofstream probe(*path, std::ios::app);
    if (!probe.is_open())
      throw contract_error("cannot open flight output for writing: " + *path);
  }
  // Same contract for the durable store directory: a serve session must not
  // discover at the first registration that its journal has nowhere to go.
  // The probe file exercises actual write permission, not just stat bits.
  if (!store_dir.empty()) {
    if (!std::filesystem::is_directory(store_dir))
      throw contract_error("--store-dir is not an existing directory: " +
                           store_dir);
    const std::string probe_path = store_dir + "/.sysrle-preflight";
    std::ofstream probe(probe_path, std::ios::app);
    if (!probe.is_open())
      throw contract_error("--store-dir is not writable: " + store_dir);
    probe.close();
    std::error_code ec;
    std::filesystem::remove(probe_path, ec);
  }

  std::vector<ServeAction> actions;
  if (requests_path == "-") {
    actions = parse_serve_actions(std::cin, use_store);
  } else {
    std::ifstream in(requests_path);
    SYSRLE_REQUIRE(in.is_open(), "cannot open: " + requests_path);
    actions = parse_serve_actions(in, use_store);
  }
  std::uint64_t n_requests = 0;
  for (const ServeAction& a : actions)
    if (a.kind == ServeAction::Kind::kSpec ||
        a.kind == ServeAction::Kind::kDiffHandles)
      ++n_requests;

  // Store-mode session state: the persistent image store and the
  // content-addressed result cache shared by every shard of the router.
  // With --store-dir the store is durable: the constructor recovers
  // snapshot + journal (re-verifying every fingerprint) and every later
  // registration/eviction is journaled before it is acknowledged.
  std::shared_ptr<ImageStore> store;
  std::shared_ptr<ResultCache> cache;
  std::unique_ptr<DurableStore> durable;
  if (use_store) {
    StoreConfig sc;
    sc.capacity_bytes =
        static_cast<std::size_t>(store_cap_mb) * (std::size_t{1} << 20);
    if (!store_dir.empty()) {
      DurableStoreConfig dc;
      dc.dir = store_dir;
      dc.store = sc;
      dc.snapshot_every = static_cast<std::uint64_t>(snapshot_every);
      durable = std::make_unique<DurableStore>(std::move(dc));
      store = durable->store_ptr();
    } else {
      store = std::make_shared<ImageStore>(sc);
    }
    CacheConfig cc;
    cc.capacity_bytes =
        static_cast<std::size_t>(cache_cap_mb) * (std::size_t{1} << 20);
    cache = std::make_shared<ResultCache>(cc);
  }

  RouterConfig rcfg;
  rcfg.shards = static_cast<std::size_t>(shards);
  rcfg.replicas = static_cast<std::size_t>(replicas);
  rcfg.seed = static_cast<std::uint64_t>(seed);
  rcfg.replica_service.workers = static_cast<std::size_t>(workers);
  rcfg.replica_service.admission.interactive_capacity =
      static_cast<std::size_t>(queue_cap);
  rcfg.replica_service.admission.batch_capacity =
      static_cast<std::size_t>(queue_cap);
  rcfg.replica_service.use_checked_engine = args.has("--checked");
  rcfg.store = store;
  rcfg.cache = cache;

  // Serving defaults to the library's engine, the host fast path; the
  // simulator stays selectable with --engine systolic.
  ImageDiffOptions options;
  options.engine = parse_engine(args.get("--engine", "sequential"));

  // Flight recorder: installed for the router's whole lifetime, removed
  // before export (no writers can race the dump once drain() returned).
  std::optional<FlightRecorder> flight;
  if (flight_cap > 0) {
    flight.emplace(static_cast<std::size_t>(flight_cap));
    set_flight_recorder(&*flight);
  }

  // Interactive SLO: a request is good iff it completed within the target.
  // Rejected/failed interactive requests burn budget regardless of latency.
  SloTracker slo(static_cast<std::uint64_t>(slo_p99_ms) * 1000);
  const auto serve_epoch = std::chrono::steady_clock::now();
  auto slo_now_us = [&serve_epoch] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - serve_epoch)
            .count());
  };

  // Per-request outcome of a `diff-handles` line, for the handle_diffs
  // report: the store-session smoke asserts the second identical diff is a
  // cache hit with a bit-identical payload via diff_fingerprint.
  struct HandleOutcome {
    std::string a;
    std::string b;
    std::string status = "pending";
    bool from_cache = false;
    std::uint64_t diff_fingerprint = 0;
    std::uint64_t rows_processed = 0;
  };

  // Per-class latency of delivered responses; the router and service
  // metrics cover the queue and shed sides.
  std::mutex mu;
  std::condition_variable delivered_cv;
  std::uint64_t delivered = 0;  ///< responses seen (for the `wait` verb)
  RunningStat latency_us[2];
  std::uint64_t rows_done = 0;
  std::map<std::uint64_t, HandleOutcome> handle_diffs;
  ShardRouter router(rcfg, [&](ServiceResponse r) {
    std::lock_guard<std::mutex> lk(mu);
    ++delivered;
    delivered_cv.notify_all();
    if (r.priority == Priority::kInteractive) {
      if (r.status == ServiceResponse::Status::kCompleted)
        slo.record(slo_now_us(), static_cast<std::uint64_t>(r.total_us));
      else
        slo.record_breach(slo_now_us());
    }
    if (r.status != ServiceResponse::Status::kRejected)
      latency_us[r.priority == Priority::kInteractive ? 0 : 1].add(r.total_us);
    rows_done += r.rows_processed;
    const auto it = handle_diffs.find(r.id);
    if (it != handle_diffs.end()) {
      HandleOutcome& h = it->second;
      switch (r.status) {
        case ServiceResponse::Status::kCompleted: h.status = "completed"; break;
        case ServiceResponse::Status::kFailed: h.status = "failed"; break;
        case ServiceResponse::Status::kRejected: h.status = "rejected"; break;
      }
      h.from_cache = r.from_cache;
      h.rows_processed = r.rows_processed;
      if (r.status == ServiceResponse::Status::kCompleted)
        h.diff_fingerprint = canonical_fingerprint(r.diff);
    }
  });

  Rng gen_rng(static_cast<std::uint64_t>(seed));
  std::uint64_t next_id = 0;
  std::uint64_t expected_responses = 0;
  std::map<std::string, ImageHandle> handles;  // register: latest wins
  // Recovered names resolve immediately: a pre-crash `register ref ...` can
  // be diffed by handle in the restarted session without re-registering.
  if (durable) handles = durable->labels();
  std::uint64_t registered_lines = 0;
  for (const ServeAction& action : actions) {
    if (action.kind == ServeAction::Kind::kWait) {
      std::unique_lock<std::mutex> lk(mu);
      delivered_cv.wait(lk, [&] { return delivered >= expected_responses; });
      continue;
    }
    if (action.kind == ServeAction::Kind::kRegister) {
      const RegisterSpec& g = action.reg;
      Rng rng = gen_rng.split();
      RowGenParams gp;
      gp.width = g.width;
      gp.density = g.density;
      const RleImage image = generate_image(rng, g.rows, gp);
      const ImageStore::RegisterResult rr =
          durable ? durable->register_image(image, g.name)
                  : store->register_image(image);
      if (!rr.ok)
        throw contract_error("serve: register '" + g.name +
                             "' refused by the store (fingerprint collision)");
      handles[g.name] = rr.handle;
      ++registered_lines;
      continue;
    }
    if (kill && next_id == kill->after)
      router.kill_replica(kill->shard, kill->replica);
    ServiceRequest req;
    req.id = next_id++;
    req.options = options;
    Priority prio = Priority::kBatch;
    if (action.kind == ServeAction::Kind::kDiffHandles) {
      const HandleDiffSpec& d = action.diff;
      prio = d.priority;
      req.priority = d.priority;
      const std::int64_t dl =
          d.deadline_ms >= 0 ? d.deadline_ms : default_deadline_ms;
      if (dl > 0) req.deadline = Deadline::after_ms(dl);
      const auto ia = handles.find(d.a);
      const auto ib = handles.find(d.b);
      if (ia == handles.end() || ib == handles.end())
        usage_error("serve: diff-handles names an unregistered image '" +
                    (ia == handles.end() ? d.a : d.b) + "'");
      req.ref_handle = ia->second;
      req.scan_handle = ib->second;
      req.keep_diff = true;
      {
        std::lock_guard<std::mutex> lk(mu);
        HandleOutcome h;
        h.a = d.a;
        h.b = d.b;
        handle_diffs.emplace(req.id, std::move(h));
      }
    } else {
      const ServeSpec& s = action.spec;
      prio = s.priority;
      req.priority = s.priority;
      const std::int64_t dl =
          s.deadline_ms >= 0 ? s.deadline_ms : default_deadline_ms;
      if (dl > 0) req.deadline = Deadline::after_ms(dl);
      req.keep_diff = false;
      Rng rng = gen_rng.split();
      RowGenParams gp;
      gp.width = s.width;
      req.reference = generate_image(rng, s.rows, gp);
      RleImage scan(s.width, s.rows);
      ErrorGenParams ep;
      ep.error_fraction = s.error_fraction;
      for (pos_t y = 0; y < s.rows; ++y)
        scan.set_row(y, inject_errors(rng, req.reference.image().row(y),
                                      s.width, ep));
      req.scan = std::move(scan);
    }
    const std::uint64_t req_id = req.id;
    // Synchronous sheds are interactive SLO breaches too: the client got a
    // refusal, not a result.  Counted here because no response follows.
    const std::optional<RejectReason> shed = router.try_submit(std::move(req));
    if (shed) {
      if (prio == Priority::kInteractive) slo.record_breach(slo_now_us());
      std::lock_guard<std::mutex> lk(mu);
      const auto it = handle_diffs.find(req_id);
      if (it != handle_diffs.end())
        it->second.status = std::string("shed_") + to_string(*shed);
    } else {
      ++expected_responses;
    }
  }
  router.drain();
  if (flight) set_flight_recorder(nullptr);
  const RouterStats rt = router.stats();
  const ServiceStats st = router.backend_stats();
  // The router's cache counts are its own cache's (all 0 without --store).
  const CacheStats cs = cache ? cache->stats() : CacheStats{};

  const std::uint64_t slo_now = slo_now_us();
  const SloTracker::Burn slo_short = slo.short_window(slo_now);
  const SloTracker::Burn slo_long = slo.long_window(slo_now);
  if (telemetry_enabled()) slo.export_gauges(global_metrics(), slo_now);

  if (flight) {
    if (!flight_out.empty()) write_flight_jsonl_file(*flight, flight_out);
    if (!flight_trace.empty())
      write_flight_chrome_trace_file(*flight, flight_trace);
  }

  if (args.has("--json")) {
    JsonWriter w(out);
    w.begin_object();
    w.member("schema", "sysrle.serve.v8");
    w.key("params");
    w.begin_object();
    w.member("requests", n_requests);
    w.member("registers", registered_lines);
    w.member("workers", workers);
    w.member("queue_cap", queue_cap);
    w.member("deadline_ms", default_deadline_ms);
    w.member("seed", seed);
    w.member("engine", to_string(options.engine));
    w.member("checked", args.has("--checked"));
    w.member("shards", shards);
    w.member("replicas", replicas);
    w.member("slo_p99_ms", slo_p99_ms);
    w.member("flight_recorder", flight_cap);
    w.member("store", use_store);
    w.member("store_dir", store_dir);
    w.member("snapshot_every", snapshot_every);
    w.member("store_cap_mb", store_cap_mb);
    w.member("cache_cap_mb", cache_cap_mb);
    if (kill)
      w.member("kill_replica",
               std::to_string(kill->shard) + "." +
                   std::to_string(kill->replica) + "@" +
                   std::to_string(kill->after));
    w.end_object();
    // Client-visible accounting: what the router offered, admitted, and
    // delivered (one outcome per request — the zero-silent-drops identity).
    w.member("offered", rt.offered);
    w.member("admitted", rt.admitted);
    w.member("completed", rt.completed);
    w.member("failed", rt.failed);
    w.member("rejected", rt.rejected);
    w.key("shed");
    w.begin_object();
    w.member("shutdown", rt.shed_shutdown);
    w.member("deadline_at_submit", rt.shed_deadline_at_submit);
    w.member("shard_down", rt.shed_shard_down);
    w.member("unknown_handle", rt.shed_unknown_handle);
    w.member("total", rt.shed_submit_total());
    w.end_object();
    w.key("router");
    w.begin_object();
    w.member("failovers", rt.failovers);
    w.member("cross_shard_failovers", rt.cross_shard_failovers);
    w.member("coalesced", rt.coalesced);
    w.member("coalesce_promotions", rt.coalesce_promotions);
    w.member("coalesce_collisions", rt.coalesce_collisions);
    w.member("waiter_deadline_sheds", rt.waiter_deadline_sheds);
    w.member("cache_hits", cs.hits);
    w.member("cache_misses", cs.misses);
    w.member("cache_stores", cs.insertions);
    w.end_object();
    // Backend view, aggregated over every replica DiffService.
    w.key("backend");
    w.begin_object();
    w.member("offered", st.offered);
    w.member("admitted", st.admitted);
    w.member("completed", st.completed);
    w.member("failed", st.failed);
    w.key("shed");
    w.begin_object();
    w.member("queue_full", st.shed_queue_full);
    w.member("shutdown", st.shed_shutdown);
    w.member("deadline_at_submit", st.shed_deadline_at_submit);
    w.member("deadline_after_admit", st.shed_deadline_after_admit);
    w.member("total", st.shed_total());
    w.end_object();
    w.member("deadline_misses", st.deadline_misses);
    w.member("fallback_rows", st.fallback_rows);
    w.member("engine_invocations", st.engine_invocations);
    w.end_object();
    // Store-session accounting (null without --store): the zero-leak
    // identities registered == resident + evicted and
    // lookups == hits + misses.
    w.key("store");
    if (store) {
      const StoreStats ss = store->stats();
      w.begin_object();
      w.member("registered", ss.registered);
      w.member("dedup_hits", ss.dedup_hits);
      w.member("collisions", ss.collisions);
      w.member("evicted", ss.evicted);
      w.member("evict_blocked_by_pin", ss.evict_blocked_by_pin);
      w.member("acquires", ss.acquires);
      w.member("lookup_misses", ss.lookup_misses);
      w.member("resident", static_cast<std::uint64_t>(ss.resident));
      w.member("resident_bytes",
               static_cast<std::uint64_t>(ss.resident_bytes));
      w.member("accounting_ok", ss.accounted());
      w.end_object();
    } else {
      w.null();
    }
    w.key("cache");
    if (cache) {
      w.begin_object();
      w.member("lookups", cs.lookups);
      w.member("hits", cs.hits);
      w.member("misses", cs.misses);
      w.member("collisions", cs.collisions);
      w.member("insertions", cs.insertions);
      w.member("evictions", cs.evictions);
      w.member("resident", static_cast<std::uint64_t>(cs.resident));
      w.member("resident_bytes",
               static_cast<std::uint64_t>(cs.resident_bytes));
      w.member("hit_ratio", cs.lookups > 0
                                ? static_cast<double>(cs.hits) /
                                      static_cast<double>(cs.lookups)
                                : 0.0);
      w.member("accounting_ok", cs.accounted());
      w.end_object();
    } else {
      w.null();
    }
    // Durability accounting (null without --store-dir): the journal/snapshot
    // counters plus what this session's recovery found.  accounting_ok pins
    // the recovery identity — every register record seen on disk was either
    // replayed or dropped with a typed reason.
    w.key("durability");
    if (durable) {
      const DurabilityStats ds = durable->durability_stats();
      const RecoveryReport& rec = ds.recovery;
      const std::uint64_t evict_records =
          rec.replayed_evicts + rec.evicts_unmatched;
      const std::uint64_t register_records =
          rec.snapshot_entries + rec.journal_records - evict_records;
      w.begin_object();
      w.member("dir", store_dir);
      w.key("journal");
      w.begin_object();
      w.member("appends", ds.journal.appends);
      w.member("appended_bytes", ds.journal.appended_bytes);
      w.member("fsyncs", ds.journal.fsyncs);
      w.member("truncations", ds.journal.truncations);
      w.member("size_bytes", ds.journal_size_bytes);
      w.end_object();
      w.member("snapshots", ds.snapshots);
      w.member("last_snapshot_entries", ds.last_snapshot_entries);
      w.key("recovery");
      w.begin_object();
      w.member("snapshot_present", rec.snapshot_present);
      w.member("snapshot_entries", rec.snapshot_entries);
      w.member("journal_records", rec.journal_records);
      w.member("replayed_registers", rec.replayed_registers);
      w.member("replayed_evicts", rec.replayed_evicts);
      w.member("dropped_malformed", rec.dropped_malformed);
      w.member("dropped_fingerprint", rec.dropped_fingerprint);
      w.member("dropped_collision", rec.dropped_collision);
      w.member("evicts_unmatched", rec.evicts_unmatched);
      w.member("salvaged_bytes", rec.salvaged_bytes());
      w.member("journal_tail_reason", rec.journal_tail_reason);
      w.end_object();
      w.member("accounting_ok",
               rec.replayed_registers + rec.dropped() == register_records);
      w.end_object();
    } else {
      w.null();
    }
    // Per-request outcomes of diff-handles lines, in submission order.
    w.key("handle_diffs");
    w.begin_array();
    {
      std::lock_guard<std::mutex> lk(mu);
      for (const auto& [id, h] : handle_diffs) {
        w.begin_object();
        w.member("id", id);
        w.member("a", h.a);
        w.member("b", h.b);
        w.member("status", h.status);
        w.member("from_cache", h.from_cache);
        w.member("diff_fingerprint", h.diff_fingerprint);
        w.member("rows_processed", h.rows_processed);
        w.end_object();
      }
    }
    w.end_array();
    w.member("rows_processed", rows_done);
    w.key("breakers");
    w.begin_array();
    for (std::size_t s = 0; s < router.shards(); ++s)
      for (std::size_t r = 0; r < router.replicas(); ++r)
        w.value("shard" + std::to_string(s) + ".replica" + std::to_string(r) +
                "=" + to_string(router.replica_breaker_state(s, r)));
    w.end_array();
    w.member("healthy_replicas",
             static_cast<std::uint64_t>(router.healthy_replicas()));
    w.member("accounting_ok",
             rt.accounted() && st.responses() == st.admitted &&
                 (!store || store->stats().accounted()) &&
                 (!cache || cs.accounted()));
    // Interactive SLO (sysrle.serve.v3): latency-objective burn rates over
    // the short/long rolling windows at drain time.
    w.key("slo");
    w.begin_object();
    w.member("target_p99_ms", slo_p99_ms);
    w.member("objective", SloTracker::kObjective);
    w.member("good", slo.total() - slo.bad());
    w.member("bad", slo.bad());
    w.member("burn_rate_short", slo_short.burn_rate);
    w.member("burn_rate_long", slo_long.burn_rate);
    w.member("bad_fraction_long", slo_long.bad_fraction);
    w.end_object();
    // Flight recorder accounting (null when not enabled).
    w.key("flight");
    if (flight) {
      w.begin_object();
      w.member("capacity", static_cast<std::uint64_t>(flight->capacity()));
      w.member("recorded", flight->recorded());
      w.member("dropped", flight->dropped());
      w.member("retained",
               static_cast<std::uint64_t>(flight->retained().size()));
      w.member("retain_dropped", flight->retain_dropped());
      w.end_object();
    } else {
      w.null();
    }
    for (int c = 0; c < 2; ++c) {
      w.key(c == 0 ? "latency_us_interactive" : "latency_us_batch");
      const RunningStat& stc = latency_us[c];
      if (stc.count() == 0) {
        w.null();
        continue;
      }
      w.begin_object();
      w.member("count", static_cast<std::uint64_t>(stc.count()));
      w.member("mean", stc.mean());
      w.member("p50", stc.p50());
      w.member("p95", stc.p95());
      w.member("p99", stc.p99());
      w.end_object();
    }
    w.end_object();
    out << '\n';
  } else {
    FixedTable table;
    table.set_header({"outcome", "count"});
    table.add_row({"offered", FixedTable::num(rt.offered)});
    table.add_row({"admitted", FixedTable::num(rt.admitted)});
    table.add_row({"completed", FixedTable::num(rt.completed)});
    table.add_row({"failed", FixedTable::num(rt.failed)});
    table.add_row({"rejected", FixedTable::num(rt.rejected)});
    table.add_row({"shed shutdown", FixedTable::num(rt.shed_shutdown)});
    table.add_row(
        {"shed deadline", FixedTable::num(rt.shed_deadline_at_submit)});
    table.add_row({"shed shard_down", FixedTable::num(rt.shed_shard_down)});
    if (use_store)
      table.add_row(
          {"shed unknown_handle", FixedTable::num(rt.shed_unknown_handle)});
    table.add_row({"failovers", FixedTable::num(rt.failovers)});
    table.add_row({"coalesced", FixedTable::num(rt.coalesced)});
    if (use_store) {
      table.add_row({"cache hits", FixedTable::num(cs.hits)});
      table.add_row({"cache misses", FixedTable::num(cs.misses)});
    }
    table.add_row({"deadline misses", FixedTable::num(st.deadline_misses)});
    out << table.str();
    if (store) {
      const StoreStats ss = store->stats();
      out << "store: registered=" << ss.registered << " resident="
          << ss.resident << " evicted=" << ss.evicted << " resident_bytes="
          << ss.resident_bytes << " accounting_ok="
          << (ss.accounted() ? "true" : "false") << '\n';
    }
    if (cache) {
      out << "cache: lookups=" << cs.lookups << " hits=" << cs.hits
          << " misses=" << cs.misses << " accounting_ok="
          << (cs.accounted() ? "true" : "false") << '\n';
    }
    if (durable) {
      const DurabilityStats ds = durable->durability_stats();
      out << "durability: journal_appends=" << ds.journal.appends
          << " fsyncs=" << ds.journal.fsyncs << " snapshots=" << ds.snapshots
          << " recovered=" << ds.recovery.replayed_registers
          << " dropped=" << ds.recovery.dropped()
          << " salvaged_bytes=" << ds.recovery.salvaged_bytes() << '\n';
    }
    out << "breakers:";
    for (std::size_t s = 0; s < router.shards(); ++s)
      for (std::size_t r = 0; r < router.replicas(); ++r)
        out << " shard" << s << ".replica" << r << "="
            << to_string(router.replica_breaker_state(s, r));
    out << '\n';
    for (int c = 0; c < 2; ++c) {
      const RunningStat& stc = latency_us[c];
      if (stc.count() == 0) continue;
      out << (c == 0 ? "interactive" : "batch") << " latency us: p50="
          << stc.p50() << " p95=" << stc.p95() << " p99=" << stc.p99()
          << '\n';
    }
    if (slo.total() > 0)
      out << "slo: target_p99_ms=" << slo_p99_ms << " good="
          << (slo.total() - slo.bad()) << " bad=" << slo.bad()
          << " burn_rate_long=" << slo_long.burn_rate << '\n';
    if (flight)
      out << "flight: recorded=" << flight->recorded() << " dropped="
          << flight->dropped() << " retained=" << flight->retained().size()
          << '\n';
  }
  // A failed request (unrecovered rows) is a serving error; shed load under
  // overload is the design working as intended and stays exit 0.
  return rt.failed == 0 ? 0 : 1;
}

/// `sysrle store fsck <dir> [--json]`: read-only integrity check of a
/// durable store directory.  Verifies file structure, record CRCs, SRLB
/// parseability, and every image's canonical fingerprint against its handle
/// without modifying a byte.  Exit 0 when the directory would recover with
/// nothing salvaged or dropped, 1 when fsck found issues (recovery would
/// still succeed — by salvaging/dropping what fsck flagged), 2 on usage.
int cmd_store(ArgParser& args, std::ostream& out) {
  args.parse({});
  const auto& pos = args.positional();
  if (pos.size() != 2 || pos[0] != "fsck")
    usage_error("store fsck <dir> [--json]");
  const std::string& dir = pos[1];
  if (!std::filesystem::is_directory(dir))
    throw contract_error("store fsck: not an existing directory: " + dir);

  const FsckReport report = fsck_store_dir(dir);
  if (args.has("--json")) {
    JsonWriter w(out);
    w.begin_object();
    w.member("schema", "sysrle.fsck.v1");
    w.member("dir", dir);
    w.key("snapshot");
    w.begin_object();
    w.member("present", report.snapshot_present);
    w.member("header_ok", report.snapshot_header_ok);
    w.member("entries", report.snapshot_entries);
    w.member("salvaged_tail_bytes", report.snapshot_salvaged_bytes);
    w.member("tail_reason", report.snapshot_tail_reason);
    w.end_object();
    w.key("journal");
    w.begin_object();
    w.member("present", report.journal_present);
    w.member("header_ok", report.journal_header_ok);
    w.member("registers", report.journal_registers);
    w.member("evicts", report.journal_evicts);
    w.member("salvaged_tail_bytes", report.journal_salvaged_bytes);
    w.member("tail_reason", report.journal_tail_reason);
    w.end_object();
    w.member("verified_images", report.verified_images);
    w.member("malformed_images", report.malformed_images);
    w.member("fingerprint_mismatches", report.fingerprint_mismatches);
    w.member("clean", report.clean());
    w.end_object();
    out << '\n';
  } else {
    out << "snapshot: present=" << (report.snapshot_present ? "true" : "false")
        << " header_ok=" << (report.snapshot_header_ok ? "true" : "false")
        << " entries=" << report.snapshot_entries
        << " salvaged_tail_bytes=" << report.snapshot_salvaged_bytes;
    if (!report.snapshot_tail_reason.empty())
      out << " tail_reason=" << report.snapshot_tail_reason;
    out << '\n';
    out << "journal: present=" << (report.journal_present ? "true" : "false")
        << " header_ok=" << (report.journal_header_ok ? "true" : "false")
        << " registers=" << report.journal_registers
        << " evicts=" << report.journal_evicts
        << " salvaged_tail_bytes=" << report.journal_salvaged_bytes;
    if (!report.journal_tail_reason.empty())
      out << " tail_reason=" << report.journal_tail_reason;
    out << '\n';
    out << "images: verified=" << report.verified_images
        << " malformed=" << report.malformed_images
        << " fingerprint_mismatches=" << report.fingerprint_mismatches << '\n';
    out << (report.clean() ? "clean" : "issues found") << '\n';
  }
  return report.clean() ? 0 : 1;
}

int cmd_verilog(ArgParser& args, std::ostream& out) {
  args.parse({"--bits", "--cells", "--prefix"});
  if (args.positional().size() != 1)
    usage_error("verilog <outdir> [--bits W] [--cells N] [--prefix P]");
  const std::string dir = args.positional()[0];
  VerilogOptions options;
  options.word_bits = static_cast<unsigned>(args.get_int("--bits", 20));
  options.module_prefix = args.get("--prefix", "sysrle");
  const std::size_t cells =
      static_cast<std::size_t>(args.get_int("--cells", 64));

  std::filesystem::create_directories(dir);
  auto emit = [&](const std::string& name, const std::string& text) {
    const std::string path = dir + "/" + options.module_prefix + name;
    std::ofstream f(path);
    SYSRLE_REQUIRE(f.is_open(), "cannot open for write: " + path);
    f << text;
    out << "wrote " << path << '\n';
  };
  emit("_cell.v", generate_cell_verilog(options));
  emit("_array.v", generate_array_verilog(options, cells));
  emit("_tb.v", generate_testbench_verilog(options, std::max<std::size_t>(cells, 6)));
  return 0;
}

void print_help(std::ostream& out) {
  out << "sysrle — compressed-domain binary image tool\n"
         "  (systolic RLE image difference; Ercal, Allen, Feng; IPPS 1999)\n\n"
         "usage: sysrle [--metrics FILE] [--trace-out FILE] [--simd LEVEL]\n"
         "              <command> [args]\n\n"
         "commands:\n"
         "  diff <a> <b> [-o FILE] [--engine E] [--threads N] [--canonical]\n"
         "      [--stats] [--json]   XOR two images in the compressed domain.\n"
         "  inspect <ref> <scan> [--align R] [--min-area N] [--engine E]\n"
         "      [--threads N]\n"
         "      reference-based inspection; exit 1 when defects are found.\n"
         "  gen pcb|random <out> [--seed N] [--width W] [--height H]\n"
         "      [--density D] [--defects N]   generate synthetic workloads.\n"
         "  convert <in> <out>   convert between PBM and sysrle RLE.\n"
         "  stats <file> [--json]   print image statistics.\n"
         "  perf [--rows N] [--width W] [--seed S] [--error F] [--engine E]\n"
         "      [--threads N]\n"
         "      run a synthetic workload through the streaming differ and\n"
         "      the row-parallel image differ; print a machine-readable\n"
         "      sysrle.perf.v1 JSON report.\n"
         "  verilog <outdir> [--bits W] [--cells N] [--prefix P]\n"
         "      emit synthesizable RTL for the Figure-2 machine.\n"
         "  trace \"<s,l> <s,l> ...\" \"<s,l> ...\" [--cells N]\n"
         "      print a Figure-3-style execution trace for two rows.\n"
         "  campaign [--rows N] [--width W] [--seed S] [--error F]\n"
         "      [--kind K] [--model M] [--retries R] [--cell-stride N]\n"
         "      [--no-fallback] [--csv]\n"
         "      fault-injection campaign through the checked engine;\n"
         "      exit 1 on silent corruption or unrecovered rows.\n"
         "  serve --requests <file|-> [--workers N] [--queue-cap M]\n"
         "      [--deadline-ms D] [--seed S] [--engine E] [--shards N]\n"
         "      [--replicas R] [--flight-recorder N]\n"
         "      [--flight-out FILE] [--flight-trace FILE] [--slo-p99-ms D]\n"
         "      [--kill-replica S.R@K] [--store] [--store-dir DIR]\n"
         "      [--snapshot-every N] [--store-cap-mb N]\n"
         "      [--cache-cap-mb N] [--checked] [--json]\n"
         "      run a request file through the overload-safe sharded service\n"
         "      (bounded admission, deadlines, per-replica breakers,\n"
         "      failover, coalescing); request lines: 'priority rows width\n"
         "      error [deadline_ms]'; --workers 0 sizes the pool from the\n"
         "      hardware.  --flight-recorder N keeps the last N per-request\n"
         "      events in a lock-free ring; --flight-out dumps them as\n"
         "      sysrle.flight.v1 JSONL, --flight-trace as a Chrome trace.\n"
         "      --kill-replica S.R@K kills shard S replica R after K\n"
         "      submissions (failover drill).  --store enables the session\n"
         "      image store + result cache and the request-file verbs\n"
         "      'register <name> <rows> <width> [density]' and\n"
         "      'diff-handles <priority> <a> <b> [deadline_ms]'; the second\n"
         "      identical by-handle diff is served from the cache without\n"
         "      invoking an engine.  --store-dir DIR (implies --store) makes\n"
         "      the store durable: registrations and evictions are journaled\n"
         "      (CRC-checksummed write-ahead log, fsync before ack), the\n"
         "      resident set is compacted into an atomic snapshot every\n"
         "      --snapshot-every records, and startup recovers the previous\n"
         "      session's images — re-verifying every canonical fingerprint,\n"
         "      so a corrupted at-rest byte is dropped, never served.\n"
         "  store fsck <dir> [--json]\n"
         "      read-only integrity check of a --store-dir directory\n"
         "      (structure, record CRCs, fingerprint match per image);\n"
         "      exit 0 clean, 1 issues found.\n"
         "  help                 this message.\n\n"
         "global options (any command):\n"
         "  --metrics FILE    write a sysrle.metrics.v1 JSON snapshot of all\n"
         "                    telemetry recorded during the command.\n"
         "  --trace-out FILE  write a Chrome trace_event file loadable by\n"
         "                    chrome://tracing and Perfetto.\n"
         "  --simd LEVEL      dispatch level of the word-parallel sequential\n"
         "                    engine: scalar | swar64 | avx2 | neon.  Default\n"
         "                    is the widest level this host supports; the\n"
         "                    SYSRLE_SIMD environment variable sets the same\n"
         "                    knob (--simd wins).  Unsupported levels are a\n"
         "                    usage error, never a silent downgrade.\n\n"
         "engines: systolic | bus | sequential | adaptive (runs sequential;\n"
         "         reports each row's theta route and the modelled systolic\n"
         "         iterations);\n"
         "         systolic is the default for diff/inspect/perf, sequential\n"
         "         (the word-parallel host fast path) for serve\n"
         "threads: --threads N runs up to N row workers (N >= 1); omitted or\n"
         "         0 sizes the pool from the hardware (1 when unknown); an\n"
         "         image with too few runs to pay for waking workers runs\n"
         "         on the calling thread\n"
         "formats: auto-detected on read; chosen by extension on write\n"
         "         (.pbm, .srlt = text RLE, otherwise binary RLE)\n";
}

}  // namespace

int run_cli(const std::vector<std::string>& args_in, std::ostream& out,
            std::ostream& err) {
  // Global telemetry flags are stripped before subcommand dispatch so every
  // command accepts them uniformly; the export happens after the command
  // finishes, success or failure, so a crash-adjacent run still leaves data.
  std::vector<std::string> args;
  std::string metrics_path;
  std::string trace_path;
  std::string simd_name;
  args.reserve(args_in.size());
  for (std::size_t i = 0; i < args_in.size(); ++i) {
    const std::string& a = args_in[i];
    if (a == "--metrics" || a == "--trace-out" || a == "--simd") {
      if (i + 1 >= args_in.size()) {
        err << "sysrle: usage: missing value for " << a << '\n';
        return 2;
      }
      if (a == "--metrics") metrics_path = args_in[++i];
      else if (a == "--trace-out") trace_path = args_in[++i];
      else simd_name = args_in[++i];
    } else {
      args.push_back(a);
    }
  }
  // Resolve the sequential engine's dispatch level before any command runs.
  // --simd wins over the SYSRLE_SIMD environment variable; a typo or a
  // level this host/build cannot run is a usage error, not a silent
  // downgrade to a different engine than the operator asked for.
  if (!simd_name.empty()) {
    try {
      set_simd_level(parse_simd_level(simd_name));
    } catch (const std::exception& e) {
      err << "sysrle: --simd: " << e.what() << '\n';
      return 2;
    }
  }
  // Fail fast on an unwritable telemetry destination: a long run must not
  // discover at export time that its data has nowhere to go.  The append-
  // mode probe creates a missing file but never truncates an existing one.
  for (const std::string* path : {&metrics_path, &trace_path}) {
    if (path->empty()) continue;
    std::ofstream probe(*path, std::ios::app);
    if (!probe.is_open()) {
      err << "sysrle: cannot open telemetry output for writing: " << *path
          << '\n';
      return 2;
    }
  }
  const bool telemetry = !metrics_path.empty() || !trace_path.empty();
  if (telemetry) {
    reset_telemetry();
    set_telemetry_enabled(true);
  }

  int rc = 2;
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      print_help(out);
      rc = 0;
    } else {
      const std::string command = args[0];
      ArgParser rest(std::vector<std::string>(args.begin() + 1, args.end()));
      if (command == "diff") rc = cmd_diff(rest, out);
      else if (command == "inspect") rc = cmd_inspect(rest, out);
      else if (command == "gen") rc = cmd_gen(rest, out);
      else if (command == "convert") rc = cmd_convert(rest, out);
      else if (command == "stats") rc = cmd_stats(rest, out);
      else if (command == "perf") rc = cmd_perf(rest, out);
      else if (command == "verilog") rc = cmd_verilog(rest, out);
      else if (command == "trace") rc = cmd_trace(rest, out);
      else if (command == "campaign") rc = cmd_campaign(rest, out);
      else if (command == "serve") rc = cmd_serve(rest, out);
      else if (command == "store") rc = cmd_store(rest, out);
      else usage_error("unknown command '" + command + "' (try: sysrle help)");
    }
  } catch (const std::exception& e) {
    err << "sysrle: " << e.what() << '\n';
    rc = 2;
  } catch (...) {
    err << "sysrle: unknown error\n";
    rc = 2;
  }

  if (telemetry) {
    set_telemetry_enabled(false);
    try {
      if (!metrics_path.empty())
        write_metrics_json_file(global_metrics().snapshot(), metrics_path);
      if (!trace_path.empty())
        write_chrome_trace_file(global_tracer(), trace_path);
    } catch (const std::exception& e) {
      err << "sysrle: telemetry export failed: " << e.what() << '\n';
      rc = 2;
    }
  }
  return rc;
}

}  // namespace sysrle
