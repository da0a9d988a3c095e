// Tests for the sysrle command-line tool (driven through the library entry
// point with captured streams and temp files).

#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "baseline/simd_dispatch.hpp"
#include "bitmap/convert.hpp"
#include "bitmap/pbm_io.hpp"
#include "core/image_diff.hpp"
#include "rle/serialize.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/pcb.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string tmp_path(const std::string& name) {
  // Include the running test's name: ctest runs every test as its own
  // process in parallel, and shared fixture file names would let one
  // process's SetUp truncate a file another process is reading.
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test = info ? std::string(info->name()) + "_" : "";
  return ::testing::TempDir() + "/sysrle_cli_" + test + name;
}

class CliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    RowGenParams p;
    p.width = 200;
    img_a_ = generate_image(rng, 10, p);
    img_b_ = img_a_;
    ErrorGenParams ep;
    ep.error_fraction = 0.05;
    for (pos_t y = 0; y < img_b_.height(); ++y) {
      Rng row_rng = rng.split();
      img_b_.set_row(y, inject_errors(row_rng, img_a_.row(y), 200, ep));
    }
    path_a_ = tmp_path("a.srl");
    path_b_ = tmp_path("b.srl");
    write_rle_file(path_a_, img_a_);
    write_rle_file(path_b_, img_b_);
  }

  RleImage img_a_{0, 0};
  RleImage img_b_{0, 0};
  std::string path_a_, path_b_;
};

TEST_F(CliFixture, HelpPrintsCommands) {
  const CliRun r = cli({"help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("diff"), std::string::npos);
  EXPECT_NE(r.out.find("inspect"), std::string::npos);
  const CliRun empty = cli({});
  EXPECT_EQ(empty.exit_code, 0);
}

TEST_F(CliFixture, UnknownCommandFails) {
  const CliRun r = cli({"frobnicate"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST_F(CliFixture, DiffPrintsCounts) {
  const CliRun r = cli({"diff", path_a_, path_b_, "--stats"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("engine: systolic"), std::string::npos);
  EXPECT_NE(r.out.find("differing pixels:"), std::string::npos);
  EXPECT_NE(r.out.find("machine: iterations="), std::string::npos);
}

TEST_F(CliFixture, DiffWritesOutputFile) {
  const std::string out_path = tmp_path("diff.srl");
  const CliRun r =
      cli({"diff", path_a_, path_b_, "-o", out_path, "--canonical"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const RleImage diff = read_rle_file(out_path);
  EXPECT_EQ(diff.width(), 200);
  EXPECT_GT(diff.stats().foreground_pixels, 0);
}

TEST_F(CliFixture, DiffEnginesAgree) {
  std::string previous;
  for (const char* engine : {"systolic", "bus", "sequential", "adaptive"}) {
    const std::string out_path = tmp_path(std::string("diff_") + engine);
    const CliRun r = cli({"diff", path_a_, path_b_, "-o", out_path,
                          "--canonical", "--engine", engine});
    ASSERT_EQ(r.exit_code, 0) << engine << ": " << r.err;
    std::ifstream in(out_path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    if (!previous.empty()) {
      EXPECT_EQ(buf.str(), previous) << engine;
    }
    previous = buf.str();
  }
}

TEST_F(CliFixture, DiffRejectsBadEngine) {
  for (const char* bad : {"magic", "sweep", "pixel"}) {
    const CliRun r = cli({"diff", path_a_, path_b_, "--engine", bad});
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.err.find("unknown engine"), std::string::npos) << bad;
    EXPECT_NE(r.err.find("(systolic|bus|sequential|adaptive)"),
              std::string::npos)
        << r.err;
    EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1) << bad;
  }
}

TEST_F(CliFixture, ThreadsFlagValidation) {
  // 0, negative, and garbage all fail with the standard one-line diagnostic
  // naming the flag; "auto" is spelt by omitting the flag, not with 0.
  for (const char* bad : {"0", "-3", "banana"}) {
    const CliRun r = cli({"diff", path_a_, path_b_, "--threads", bad});
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_TRUE(r.out.empty()) << bad;
    EXPECT_NE(r.err.find("--threads"), std::string::npos) << bad;
    EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1) << bad;
  }
  // An explicit thread count is honoured on every diff-running command.
  EXPECT_EQ(cli({"diff", path_a_, path_b_, "--threads", "2"}).exit_code, 0);
  EXPECT_EQ(cli({"inspect", path_a_, path_a_, "--threads", "2"}).exit_code, 0);
  EXPECT_EQ(cli({"perf", "--rows", "8", "--width", "128", "--threads", "2"})
                .exit_code,
            0);
}

TEST_F(CliFixture, DiffJsonReportsParallelismAndEngineMix) {
  const CliRun r = cli({"diff", path_a_, path_b_, "--json", "--engine",
                        "adaptive", "--threads", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const sysrle::testing::JsonValue root = sysrle::testing::parse_json(r.out);
  EXPECT_EQ(root.at("engine").string, "adaptive");
  EXPECT_GE(root.at("threads_used").number, 1.0);
  EXPECT_LE(root.at("threads_used").number, 2.0);
  EXPECT_GE(root.at("parallel_rows").number, 0.0);
  const sysrle::testing::JsonValue& mix = root.at("adaptive");
  // Every row routes somewhere; the two tallies cover the image exactly.
  EXPECT_DOUBLE_EQ(mix.at("picked_systolic").number +
                       mix.at("picked_sequential").number,
                   10.0);  // fixture images are 10 rows tall
}

TEST_F(CliFixture, DiffReportsAdaptiveModelledIterations) {
  // kAdaptive runs the host engine: the JSON carries the modelled array
  // iterations next to zero machine counters, and --stats prints them on
  // the adaptive mix line.
  ImageDiffOptions options;
  options.engine = DiffEngine::kAdaptive;
  const ImageDiffResult expected = image_diff(img_a_, img_b_, options);
  ASSERT_GT(expected.adaptive_modelled_iterations, 0u);

  const CliRun r = cli({"diff", path_a_, path_b_, "--json", "--engine",
                        "adaptive", "--canonical"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const sysrle::testing::JsonValue root = sysrle::testing::parse_json(r.out);
  const sysrle::testing::JsonValue& mix = root.at("adaptive");
  EXPECT_DOUBLE_EQ(mix.at("modelled_iterations").number,
                   static_cast<double>(expected.adaptive_modelled_iterations));
  EXPECT_DOUBLE_EQ(mix.at("picked_systolic").number,
                   static_cast<double>(expected.adaptive_systolic_rows));
  EXPECT_DOUBLE_EQ(root.at("max_row_iterations").number, 0.0);
  EXPECT_DOUBLE_EQ(root.at("counters").at("iterations").number, 0.0);

  const CliRun stats = cli({"diff", path_a_, path_b_, "--stats", "--engine",
                            "adaptive"});
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  const std::string line =
      "adaptive mix: " + std::to_string(expected.adaptive_systolic_rows) +
      " systolic, " + std::to_string(expected.adaptive_sequential_rows) +
      " sequential, " +
      std::to_string(expected.adaptive_modelled_iterations) +
      " modelled systolic iterations";
  EXPECT_NE(stats.out.find(line), std::string::npos) << stats.out;
  EXPECT_EQ(stats.out.find("machine:"), std::string::npos) << stats.out;
}

TEST_F(CliFixture, DiffThreadedOutputMatchesSerial) {
  const std::string serial_path = tmp_path("diff_serial.srl");
  const std::string threaded_path = tmp_path("diff_threaded.srl");
  ASSERT_EQ(cli({"diff", path_a_, path_b_, "-o", serial_path, "--threads",
                 "1"})
                .exit_code,
            0);
  ASSERT_EQ(cli({"diff", path_a_, path_b_, "-o", threaded_path, "--threads",
                 "4"})
                .exit_code,
            0);
  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(read_file(serial_path), read_file(threaded_path));
}

TEST_F(CliFixture, InspectExitCodesReflectVerdict) {
  const CliRun clean = cli({"inspect", path_a_, path_a_});
  EXPECT_EQ(clean.exit_code, 0) << clean.err;
  EXPECT_NE(clean.out.find("PASS"), std::string::npos);
  const CliRun dirty = cli({"inspect", path_a_, path_b_});
  EXPECT_EQ(dirty.exit_code, 1);
  EXPECT_NE(dirty.out.find("FAIL"), std::string::npos);
}

TEST_F(CliFixture, GenPcbAndStats) {
  const std::string board = tmp_path("board.pbm");
  const CliRun g = cli({"gen", "pcb", board, "--seed", "7", "--width", "256",
                        "--height", "64", "--defects", "3"});
  EXPECT_EQ(g.exit_code, 0) << g.err;
  EXPECT_NE(g.out.find("injected:"), std::string::npos);
  const CliRun s = cli({"stats", board});
  EXPECT_EQ(s.exit_code, 0) << s.err;
  EXPECT_NE(s.out.find("size: 256 x 64"), std::string::npos);
  EXPECT_NE(s.out.find("total runs:"), std::string::npos);
}

TEST_F(CliFixture, GenRandomRespectsDensity) {
  const std::string path = tmp_path("random.srl");
  const CliRun g = cli({"gen", "random", path, "--width", "5000", "--height",
                        "4", "--density", "0.5", "--seed", "3"});
  EXPECT_EQ(g.exit_code, 0) << g.err;
  const RleImage img = read_rle_file(path);
  EXPECT_NEAR(img.stats().density, 0.5, 0.08);
}

TEST_F(CliFixture, ConvertRoundTripsThroughPbm) {
  const std::string pbm = tmp_path("conv.pbm");
  const std::string back = tmp_path("conv_back.srl");
  EXPECT_EQ(cli({"convert", path_a_, pbm}).exit_code, 0);
  EXPECT_EQ(cli({"convert", pbm, back}).exit_code, 0);
  EXPECT_EQ(read_rle_file(back), img_a_);
}

TEST_F(CliFixture, ConvertTextRleExtension) {
  const std::string text = tmp_path("conv.srlt");
  EXPECT_EQ(cli({"convert", path_a_, text}).exit_code, 0);
  std::ifstream in(text, std::ios::binary);
  char magic[4] = {};
  in.read(magic, 4);
  EXPECT_EQ(std::string(magic, 4), "SRLT");
  EXPECT_EQ(read_rle_file(text), img_a_);
}

TEST_F(CliFixture, TracePrintsFigure3) {
  const CliRun r = cli({"trace", "10,3 16,2 23,2 27,3",
                        "3,4 8,5 15,5 23,2 27,4", "--cells", "6"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("Initial"), std::string::npos);
  EXPECT_NE(r.out.find("3.1"), std::string::npos);
  EXPECT_NE(r.out.find("difference : (3,4) (8,2) (15,1) (18,2) (30,1)"),
            std::string::npos);
  EXPECT_NE(r.out.find("iterations : 3"), std::string::npos);
}

TEST_F(CliFixture, TraceRejectsMalformedRuns) {
  EXPECT_EQ(cli({"trace", "10;3", "3,4"}).exit_code, 2);
  EXPECT_EQ(cli({"trace", "10,3"}).exit_code, 2);  // arity
  // Overlapping runs are invalid input rows.
  EXPECT_EQ(cli({"trace", "1,5 3,2", "0,1"}).exit_code, 2);
  // So is a run list out of order behind a run whose end passes the i64
  // maximum: refused when the row is parsed, not deep in the engine.
  const CliRun r = cli({"trace", "9223372036854775806,5 0,1", "0,1"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("RleRow: run #1: out of order"), std::string::npos)
      << r.err;
  EXPECT_EQ(r.err.find("push_back"), std::string::npos) << r.err;
}

TEST_F(CliFixture, VerilogEmitsThreeFiles) {
  const std::string dir = tmp_path("rtl");
  const CliRun r = cli({"verilog", dir, "--bits", "16", "--cells", "8",
                        "--prefix", "unit"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  for (const char* name : {"/unit_cell.v", "/unit_array.v", "/unit_tb.v"}) {
    std::ifstream f(dir + name);
    EXPECT_TRUE(f.is_open()) << name;
    std::stringstream buf;
    buf << f.rdbuf();
    EXPECT_NE(buf.str().find("module unit_"), std::string::npos) << name;
  }
  // Parameter plumbed through.
  std::ifstream cell(dir + "/unit_cell.v");
  std::stringstream buf;
  buf << cell.rdbuf();
  EXPECT_NE(buf.str().find("parameter W = 16"), std::string::npos);
}

TEST_F(CliFixture, VerilogUsageErrors) {
  EXPECT_EQ(cli({"verilog"}).exit_code, 2);
  EXPECT_EQ(cli({"verilog", tmp_path("rtl2"), "--bits", "1"}).exit_code, 2);
}

TEST_F(CliFixture, MissingFileReportsError) {
  const CliRun r = cli({"stats", tmp_path("nope.srl")});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST_F(CliFixture, UsageErrorsOnWrongArity) {
  EXPECT_EQ(cli({"diff", path_a_}).exit_code, 2);
  EXPECT_EQ(cli({"convert", path_a_}).exit_code, 2);
  EXPECT_EQ(cli({"gen", "pcb"}).exit_code, 2);
  EXPECT_EQ(cli({"gen", "volcano", tmp_path("x")}).exit_code, 2);
}

TEST_F(CliFixture, CampaignRunsAndReportsContainment) {
  const CliRun r =
      cli({"campaign", "--rows", "2", "--width", "200", "--cell-stride", "4"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("all faults contained"), std::string::npos);
  EXPECT_NE(r.out.find("no-swap"), std::string::npos);
  EXPECT_NE(r.out.find("intermittent"), std::string::npos);
  EXPECT_NE(r.out.find("total"), std::string::npos);
}

TEST_F(CliFixture, CampaignCsvAndFiltersWork) {
  const CliRun r = cli({"campaign", "--rows", "1", "--width", "200", "--kind",
                        "drop-shift", "--model", "permanent", "--cell-stride",
                        "2", "--csv"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("fault,model,trials"), std::string::npos);
  EXPECT_NE(r.out.find("drop-shift,permanent"), std::string::npos);
  EXPECT_EQ(r.out.find("no-swap"), std::string::npos);
}

TEST_F(CliFixture, CampaignRejectsBadFlags) {
  EXPECT_EQ(cli({"campaign", "--kind", "gremlins"}).exit_code, 2);
  EXPECT_EQ(cli({"campaign", "--model", "sometimes"}).exit_code, 2);
  EXPECT_EQ(cli({"campaign", "--rows", "0"}).exit_code, 2);
  EXPECT_EQ(cli({"campaign", "--error", "1.5"}).exit_code, 2);
  EXPECT_EQ(cli({"campaign", "--retries", "-1"}).exit_code, 2);
  EXPECT_EQ(cli({"campaign", "--cell-stride", "0"}).exit_code, 2);
  EXPECT_EQ(cli({"campaign", "unexpected-positional"}).exit_code, 2);
}

TEST_F(CliFixture, BadNumericFlagValuesAreOneLineUsageErrors) {
  const CliRun r =
      cli({"gen", "random", tmp_path("bad.srl"), "--width", "banana"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(r.out.empty());
  EXPECT_NE(r.err.find("--width"), std::string::npos);
  EXPECT_NE(r.err.find("banana"), std::string::npos);
  EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1);

  // Trailing junk, overflow, and a flag missing its value all fail cleanly.
  EXPECT_EQ(cli({"gen", "random", tmp_path("bad.srl"), "--density", "0.5x"})
                .exit_code,
            2);
  EXPECT_EQ(cli({"inspect", path_a_, path_b_, "--align",
                 "99999999999999999999999"})
                .exit_code,
            2);
  EXPECT_EQ(cli({"diff", path_a_, path_b_, "--engine"}).exit_code, 2);
}

TEST_F(CliFixture, MalformedImageFileIsOneLineError) {
  const std::string bad = tmp_path("corrupt.srl");
  {
    std::ofstream f(bad, std::ios::binary);
    f << "SRLB garbage garbage";
  }
  const CliRun r = cli({"stats", bad});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(r.out.empty());
  EXPECT_NE(r.err.find("sysrle:"), std::string::npos);
  EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1);
  EXPECT_EQ(cli({"diff", bad, path_b_}).exit_code, 2);
  EXPECT_EQ(cli({"inspect", bad, path_b_}).exit_code, 2);

  // A truncated but well-magicked file is also a clean error.
  const std::string cut = tmp_path("cut.srl");
  {
    std::ifstream in(path_a_, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::ofstream f(cut, std::ios::binary);
    f << buf.str().substr(0, buf.str().size() / 3);
  }
  const CliRun rc = cli({"stats", cut});
  EXPECT_EQ(rc.exit_code, 2);
  EXPECT_NE(rc.err.find("truncated"), std::string::npos);
}

// ------------------------------------------------------- telemetry + JSON

using testing::JsonValue;
using testing::parse_json;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(CliFixture, GlobalMetricsFlagWritesSnapshotFile) {
  const std::string mpath = tmp_path("metrics.json");
  const CliRun r =
      cli({"--metrics", mpath, "diff", path_a_, path_b_, "--engine",
           "systolic"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const JsonValue root = parse_json(slurp(mpath));
  EXPECT_EQ(root.at("schema").string, "sysrle.metrics.v1");
  EXPECT_EQ(root.at("counters").find("systolic.rows"), nullptr);
  const JsonValue& iters =
      root.at("histograms").at("systolic.row_iterations");
  EXPECT_DOUBLE_EQ(iters.at("count").number, 10.0);
}

TEST_F(CliFixture, TraceOutWritesValidChromeTrace) {
  const std::string tpath = tmp_path("trace.json");
  const CliRun r = cli({"--trace-out", tpath, "diff", path_a_, path_b_});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const JsonValue root = parse_json(slurp(tpath));
  const JsonValue& events = root.at("traceEvents");
  ASSERT_GE(events.array.size(), 2u);
  EXPECT_EQ(events.array[0].at("ph").string, "M");
  double prev_ts = -1.0;
  std::size_t complete = 0;
  for (const JsonValue& e : events.array) {
    if (e.at("ph").string != "X") continue;
    ++complete;
    EXPECT_GE(e.at("ts").number, prev_ts);
    prev_ts = e.at("ts").number;
  }
  EXPECT_GE(complete, 1u);
  EXPECT_EQ(root.at("otherData").at("schema").string, "sysrle.trace.v1");
}

TEST_F(CliFixture, PerfEmitsSchemaJsonAndExportsFiles) {
  const std::string mpath = tmp_path("perf_metrics.json");
  const std::string tpath = tmp_path("perf_trace.json");
  const CliRun r = cli({"--metrics", mpath, "--trace-out", tpath, "perf",
                        "--rows", "16", "--width", "256"});
  EXPECT_EQ(r.exit_code, 0) << r.err;

  const JsonValue root = parse_json(r.out);
  EXPECT_EQ(root.at("schema").string, "sysrle.perf.v1");
  EXPECT_DOUBLE_EQ(root.at("params").at("rows").number, 16.0);
  EXPECT_DOUBLE_EQ(root.at("params").at("width").number, 256.0);
  EXPECT_DOUBLE_EQ(root.at("summary").at("rows").number, 16.0);
  EXPECT_GT(root.at("wall_time_us").number, 0.0);
  EXPECT_TRUE(root.at("observation_bound_ok").boolean);
  // The row-parallel phase reports its effective parallelism.
  const JsonValue& image = root.at("image_diff");
  EXPECT_GE(image.at("wall_time_us").number, 0.0);
  EXPECT_GE(image.at("threads_used").number, 1.0);
  EXPECT_GE(image.at("parallel_rows").number, 0.0);
  const JsonValue& iters = root.at("row_iterations");
  // Both instrumented phases (streaming + row-parallel) record per-row
  // iteration samples: 16 rows each.
  EXPECT_DOUBLE_EQ(iters.at("count").number, 32.0);
  EXPECT_GE(iters.at("p99").number, iters.at("p50").number);

  // The global flags still export alongside the stdout report.
  EXPECT_EQ(parse_json(slurp(mpath)).at("schema").string,
            "sysrle.metrics.v1");
  EXPECT_EQ(parse_json(slurp(tpath)).at("otherData").at("schema").string,
            "sysrle.trace.v1");
}

TEST_F(CliFixture, StatsJsonSchemaPinned) {
  const CliRun r = cli({"stats", path_a_, "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const JsonValue root = parse_json(r.out);
  EXPECT_EQ(root.at("schema").string, "sysrle.stats.v1");
  EXPECT_EQ(root.at("file").string, path_a_);
  EXPECT_DOUBLE_EQ(root.at("width").number, 200.0);
  EXPECT_DOUBLE_EQ(root.at("height").number, 10.0);
  EXPECT_GT(root.at("total_runs").number, 0.0);
  EXPECT_GT(root.at("compression").at("ratio").number, 0.0);
  const JsonValue& rl = root.at("run_lengths");
  EXPECT_GT(rl.at("total_runs").number, 0.0);
  EXPECT_FALSE(rl.at("buckets").array.empty());
}

TEST_F(CliFixture, DiffJsonSchemaPinned) {
  const CliRun r =
      cli({"diff", path_a_, path_b_, "--json", "--engine", "systolic"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const JsonValue root = parse_json(r.out);
  EXPECT_EQ(root.at("schema").string, "sysrle.diff.v1");
  EXPECT_EQ(root.at("engine").string, "systolic");
  EXPECT_DOUBLE_EQ(root.at("diff").at("width").number, 200.0);
  EXPECT_GE(root.at("max_row_iterations").number, 1.0);
  EXPECT_GE(root.at("counters").at("iterations").number,
            root.at("max_row_iterations").number);
}

TEST_F(CliFixture, MissingValueForGlobalFlagIsUsageError) {
  const CliRun rm = cli({"--metrics"});
  EXPECT_EQ(rm.exit_code, 2);
  EXPECT_NE(rm.err.find("--metrics"), std::string::npos);
  const CliRun rt = cli({"--trace-out"});
  EXPECT_EQ(rt.exit_code, 2);
  EXPECT_NE(rt.err.find("--trace-out"), std::string::npos);
  const CliRun rs = cli({"--simd"});
  EXPECT_EQ(rs.exit_code, 2);
  EXPECT_NE(rs.err.find("--simd"), std::string::npos);
}

TEST_F(CliFixture, SimdFlagSelectsLevelAndReportsItInJson) {
  // Every level the host supports must run the diff and echo the level in
  // the report; identical output is pinned by the differential suite.
  for (const SimdLevel level : supported_simd_levels()) {
    const CliRun r = cli({"--simd", to_string(level), "diff", path_a_,
                          path_b_, "--json", "--engine", "sequential",
                          "--canonical"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const JsonValue root = parse_json(r.out);
    EXPECT_EQ(root.at("simd").string, to_string(level));
    EXPECT_GT(root.at("sequential_iterations").number, 0.0);
  }
}

TEST_F(CliFixture, SimdFlagRejectsUnknownLevelAsUsageError) {
  const CliRun r = cli({"--simd", "avx512", "diff", path_a_, path_b_});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("avx512"), std::string::npos);
  // Exactly one diagnostic line, emitted before any work happened.
  EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1);
}

TEST_F(CliFixture, UnwritableTelemetryPathFailsFastWithOneLineDiagnostic) {
  // Fail before any work happens, not after a full run whose telemetry
  // silently vanishes.
  const std::string bad = tmp_path("no_such_dir") + "/metrics.json";
  for (const char* flag : {"--metrics", "--trace-out"}) {
    const CliRun r = cli({flag, bad, "diff", path_a_, path_b_});
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.err.find(bad), std::string::npos) << flag;
    // Exactly one diagnostic line.
    EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1) << flag;
  }
}

std::string write_requests_file(const std::string& name,
                                const std::string& contents) {
  const std::string path = tmp_path(name);
  std::ofstream f(path);
  f << contents;
  return path;
}

TEST_F(CliFixture, ServeTextTableReportsOutcomes) {
  const std::string reqs = write_requests_file("serve_basic.txt",
                                               "# class rows width error\n"
                                               "interactive 4 200 0.02\n"
                                               "batch 4 200 0.02\n"
                                               "\n"
                                               "batch 2 100 0.0\n");
  const CliRun r = cli({"serve", "--requests", reqs, "--workers", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("offered"), std::string::npos);
  EXPECT_NE(r.out.find("completed"), std::string::npos);
  EXPECT_NE(r.out.find("breakers: shard0.replica0=closed"), std::string::npos);
}

TEST_F(CliFixture, ServeWorkersZeroMeansAutoAndNegativeRejected) {
  const std::string reqs =
      write_requests_file("serve_auto.txt", "batch 2 100 0.0\n");
  const CliRun r = cli({"serve", "--requests", reqs, "--workers", "0"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("completed"), std::string::npos);
  const CliRun bad = cli({"serve", "--requests", reqs, "--workers", "-1"});
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.err.find("--workers"), std::string::npos);
}

TEST_F(CliFixture, ServeJsonSchemaPinnedAndAccounted) {
  const std::string reqs = write_requests_file(
      "serve_json.txt",
      "interactive 4 200 0.02\nbatch 4 200 0.02\nbatch 4 200 0.02\n");
  const CliRun r = cli({"serve", "--requests", reqs, "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const JsonValue root = parse_json(r.out);
  EXPECT_EQ(root.at("schema").string, "sysrle.serve.v8");
  EXPECT_DOUBLE_EQ(root.at("params").at("requests").number, 3.0);
  EXPECT_DOUBLE_EQ(root.at("params").at("shards").number, 1.0);
  EXPECT_DOUBLE_EQ(root.at("params").at("replicas").number, 1.0);
  EXPECT_DOUBLE_EQ(root.at("offered").number, 3.0);
  EXPECT_DOUBLE_EQ(root.at("admitted").number, 3.0);
  EXPECT_DOUBLE_EQ(root.at("completed").number, 3.0);
  EXPECT_DOUBLE_EQ(root.at("failed").number, 0.0);
  EXPECT_DOUBLE_EQ(root.at("shed").at("total").number, 0.0);
  EXPECT_DOUBLE_EQ(root.at("shed").at("shard_down").number, 0.0);
  // v6 dropped the hedging fields and the cancel counter.
  EXPECT_EQ(root.at("params").find("hedge_ms"), nullptr);
  EXPECT_EQ(root.at("router").find("hedges_fired"), nullptr);
  EXPECT_EQ(root.at("router").find("hedge_delay_us"), nullptr);
  EXPECT_EQ(root.at("backend").at("shed").find("cancelled"), nullptr);
  // v7 dropped the service breaker and the retry budget.
  EXPECT_EQ(root.at("backend").at("shed").find("circuit_open"), nullptr);
  EXPECT_EQ(root.at("backend").find("retries"), nullptr);
  EXPECT_EQ(root.at("backend").find("retry_budget_exhausted"), nullptr);
  EXPECT_DOUBLE_EQ(root.at("router").at("failovers").number, 0.0);
  EXPECT_TRUE(root.at("accounting_ok").boolean);
  ASSERT_EQ(root.at("breakers").array.size(), 1u);
  EXPECT_EQ(root.at("breakers").array[0].string, "shard0.replica0=closed");
  EXPECT_DOUBLE_EQ(root.at("healthy_replicas").number, 1.0);
  EXPECT_GT(root.at("rows_processed").number, 0.0);
  EXPECT_GT(root.at("latency_us_interactive").at("count").number, 0.0);
  EXPECT_GT(root.at("latency_us_batch").at("count").number, 0.0);
  // v3 additions: the SLO block is always present; the flight block is null
  // until --flight-recorder turns the recorder on.
  EXPECT_DOUBLE_EQ(root.at("params").at("slo_p99_ms").number, 50.0);
  EXPECT_DOUBLE_EQ(root.at("params").at("flight_recorder").number, 0.0);
  const JsonValue& slo = root.at("slo");
  EXPECT_DOUBLE_EQ(slo.at("target_p99_ms").number, 50.0);
  EXPECT_DOUBLE_EQ(slo.at("objective").number, 0.99);
  // The SLO plane tracks the interactive class; this workload has one
  // interactive request among the three.
  EXPECT_DOUBLE_EQ(slo.at("good").number + slo.at("bad").number, 1.0);
  EXPECT_GE(slo.at("burn_rate_long").number, 0.0);
  EXPECT_TRUE(root.at("flight").is_null());
}

TEST_F(CliFixture, ServeDefaultsToHostFastPathAndRecordsEngine) {
  const std::string reqs =
      write_requests_file("serve_engine.txt", "batch 4 200 0.02\n");
  const CliRun def = cli({"serve", "--requests", reqs, "--json"});
  EXPECT_EQ(def.exit_code, 0) << def.err;
  EXPECT_EQ(parse_json(def.out).at("params").at("engine").string,
            "sequential-merge");
  const CliRun sys =
      cli({"serve", "--requests", reqs, "--engine", "systolic", "--json"});
  EXPECT_EQ(sys.exit_code, 0) << sys.err;
  const JsonValue root = parse_json(sys.out);
  EXPECT_EQ(root.at("params").at("engine").string, "systolic");
  EXPECT_DOUBLE_EQ(root.at("completed").number, 1.0);
}

TEST_F(CliFixture, ServeMultiShardTopologyRoutesAndStaysAccounted) {
  // Duplicate specs do NOT coalesce (each request draws fresh images), so
  // this checks routing across a 2x2 topology, not coalescing.
  std::string lines;
  for (int i = 0; i < 8; ++i)
    lines += (i % 2 ? "batch 4 200 0.02\n" : "interactive 4 200 0.02\n");
  const std::string reqs = write_requests_file("serve_shards.txt", lines);
  const CliRun r = cli({"serve", "--requests", reqs, "--shards", "2",
                        "--replicas", "2", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const JsonValue root = parse_json(r.out);
  EXPECT_EQ(root.at("schema").string, "sysrle.serve.v8");
  EXPECT_DOUBLE_EQ(root.at("params").at("shards").number, 2.0);
  EXPECT_DOUBLE_EQ(root.at("params").at("replicas").number, 2.0);
  EXPECT_DOUBLE_EQ(root.at("offered").number, 8.0);
  EXPECT_DOUBLE_EQ(root.at("completed").number, 8.0);
  EXPECT_TRUE(root.at("accounting_ok").boolean);
  EXPECT_EQ(root.at("breakers").array.size(), 4u);
  EXPECT_DOUBLE_EQ(root.at("healthy_replicas").number, 4.0);
}

TEST_F(CliFixture, ServeRejectsBadTopologyFlags) {
  const std::string reqs =
      write_requests_file("serve_topo.txt", "batch 2 100 0.0\n");
  for (const char* flag : {"--shards", "--replicas"}) {
    const CliRun r = cli({"serve", "--requests", reqs, flag, "0"});
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.err.find(flag), std::string::npos) << flag;
  }
  // --hedge-ms is not a serve flag: its value is a stray argument, and the
  // usage line no longer offers it.
  const CliRun r = cli({"serve", "--requests", reqs, "--hedge-ms", "50"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.err.rfind("sysrle: ", 0), 0u) << r.err;
  EXPECT_EQ(r.err.find("--hedge-ms"), std::string::npos) << r.err;
}

TEST_F(CliFixture, ServeEqualSeedsGiveIdenticalDeterministicFields) {
  const std::string reqs = write_requests_file(
      "serve_seed.txt", "batch 4 200 0.05\ninteractive 4 200 0.05\n");
  auto deterministic_fields = [](const JsonValue& root) {
    return std::vector<double>{
        root.at("offered").number,        root.at("admitted").number,
        root.at("completed").number,      root.at("failed").number,
        root.at("shed").at("total").number, root.at("rows_processed").number};
  };
  const CliRun r1 =
      cli({"serve", "--requests", reqs, "--seed", "7", "--json"});
  const CliRun r2 =
      cli({"serve", "--requests", reqs, "--seed", "7", "--json"});
  ASSERT_EQ(r1.exit_code, 0) << r1.err;
  ASSERT_EQ(r2.exit_code, 0) << r2.err;
  EXPECT_EQ(deterministic_fields(parse_json(r1.out)),
            deterministic_fields(parse_json(r2.out)));
}

TEST_F(CliFixture, ServeRejectsMalformedRequestLineNamingIt) {
  const std::string reqs = write_requests_file(
      "serve_bad.txt", "batch 4 200 0.02\nwhatever 4 200 0.02\n");
  const CliRun r = cli({"serve", "--requests", reqs});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("line 2"), std::string::npos);
  const std::string reqs2 =
      write_requests_file("serve_bad2.txt", "batch nonsense\n");
  const CliRun r2 = cli({"serve", "--requests", reqs2});
  EXPECT_EQ(r2.exit_code, 2);
  EXPECT_NE(r2.err.find("line 1"), std::string::npos);
  // An optional last operand that does not parse, or any token after the
  // last operand, is refused rather than defaulted or ignored.
  for (const char* bad :
       {"batch 4 64 0.1 abc\n", "batch 4 64 0.1 5 extra junk\n",
        "register x 4 64 zz\n", "register x 4 64 0.2 zz\n",
        "diff-handles batch x x 5x\n"}) {
    const std::string reqs3 = write_requests_file(
        "serve_bad3.txt", std::string("register x 4 64\n") + bad);
    const CliRun r3 = cli({"serve", "--requests", reqs3, "--store"});
    EXPECT_EQ(r3.exit_code, 2) << bad;
    EXPECT_NE(r3.err.find("line 2"), std::string::npos) << bad << r3.err;
  }
}

TEST_F(CliFixture, ServeRequiresRequestsFlag) {
  const CliRun r = cli({"serve"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("--requests"), std::string::npos);
}

TEST_F(CliFixture, ServeFlightRecorderExportsJsonlAndKillShowsInReport) {
  std::string lines;
  for (int i = 0; i < 6; ++i)
    lines += (i % 2 ? "batch 4 200 0.02\n" : "interactive 4 200 0.02\n");
  const std::string reqs = write_requests_file("serve_flight.txt", lines);
  const std::string jsonl = tmp_path("flight.jsonl");
  const std::string trace = tmp_path("flight_trace.json");
  const CliRun r = cli({"serve", "--requests", reqs, "--shards", "1",
                        "--replicas", "2", "--flight-recorder", "1024",
                        "--flight-out", jsonl, "--flight-trace", trace,
                        "--kill-replica", "0.1@3", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;

  const JsonValue root = parse_json(r.out);
  EXPECT_EQ(root.at("schema").string, "sysrle.serve.v8");
  EXPECT_EQ(root.at("params").at("kill_replica").string, "0.1@3");
  EXPECT_DOUBLE_EQ(root.at("params").at("flight_recorder").number, 1024.0);
  const JsonValue& flight = root.at("flight");
  EXPECT_DOUBLE_EQ(flight.at("capacity").number, 1024.0);
  EXPECT_GT(flight.at("recorded").number, 0.0);
  EXPECT_DOUBLE_EQ(flight.at("dropped").number, 0.0);
  EXPECT_TRUE(root.at("accounting_ok").boolean);

  // The JSONL file: a schema header, then one parseable object per line,
  // with every offered request represented among the events.
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue header = parse_json(line);
  EXPECT_EQ(header.at("type").string, "header");
  EXPECT_EQ(header.at("schema").string, "sysrle.flight.v1");
  std::set<double> rids;
  while (std::getline(in, line)) {
    const JsonValue v = parse_json(line);
    if (v.at("type").string == "event" && v.at("active").boolean)
      rids.insert(v.at("request_id").number);
  }
  EXPECT_EQ(rids.size(), 6u) << "every offered request has flight events";

  // The Chrome rendering parses and contains flight instants.
  const JsonValue troot = parse_json(slurp(trace));
  EXPECT_GE(troot.at("traceEvents").array.size(), 2u);
}

TEST_F(CliFixture, ServeRejectsBadObservabilityFlags) {
  const std::string reqs =
      write_requests_file("serve_obs.txt", "batch 2 100 0.0\n");
  const CliRun neg = cli({"serve", "--requests", reqs, "--flight-recorder",
                          "-1"});
  EXPECT_EQ(neg.exit_code, 2);
  EXPECT_NE(neg.err.find("--flight-recorder"), std::string::npos);

  // Flight outputs without the recorder are a contradiction, not a no-op.
  const CliRun orphan = cli({"serve", "--requests", reqs, "--flight-out",
                             tmp_path("orphan.jsonl")});
  EXPECT_EQ(orphan.exit_code, 2);
  EXPECT_NE(orphan.err.find("--flight-recorder"), std::string::npos);

  const CliRun slo = cli({"serve", "--requests", reqs, "--slo-p99-ms", "0"});
  EXPECT_EQ(slo.exit_code, 2);
  EXPECT_NE(slo.err.find("--slo-p99-ms"), std::string::npos);

  for (const char* bad : {"banana", "1.2", "0.0", "9.9@1"}) {
    const CliRun r =
        cli({"serve", "--requests", reqs, "--kill-replica", bad});
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.err.find("--kill-replica"), std::string::npos) << bad;
  }

  // Unwritable flight destinations fail before any serving happens.
  const std::string bad_path = tmp_path("no_dir") + "/flight.jsonl";
  const CliRun unwritable =
      cli({"serve", "--requests", reqs, "--flight-recorder", "64",
           "--flight-out", bad_path});
  EXPECT_EQ(unwritable.exit_code, 2);
  EXPECT_NE(unwritable.err.find(bad_path), std::string::npos);
}

TEST_F(CliFixture, ServeRejectsBadStoreFlags) {
  const std::string reqs =
      write_requests_file("serve_store_flags.txt", "batch 2 100 0.0\n");
  // Capacity flags demand a positive integer.
  for (const char* flag : {"--store-cap-mb", "--cache-cap-mb"}) {
    // 2^44 MiB wraps a 64-bit byte count to 0; 2^44 + 1 MiB to 1 MiB.
    for (const char* bad : {"0", "-3", "banana", "17592186044416",
                            "17592186044417"}) {
      const CliRun r =
          cli({"serve", "--requests", reqs, "--store", flag, bad});
      EXPECT_EQ(r.exit_code, 2) << flag << " " << bad;
      EXPECT_NE(r.err.find(flag), std::string::npos) << flag << " " << bad;
    }
    // Capacity flags without --store are a contradiction, not a no-op.
    const CliRun orphan = cli({"serve", "--requests", reqs, flag, "8"});
    EXPECT_EQ(orphan.exit_code, 2) << flag;
    EXPECT_NE(orphan.err.find("--store"), std::string::npos) << flag;
  }
  // Store verbs in the request file demand --store.
  const std::string verbs = write_requests_file(
      "serve_store_verbs.txt", "register a 4 200 0.02\n");
  const CliRun r = cli({"serve", "--requests", verbs});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("--store"), std::string::npos);
}

TEST_F(CliFixture, ServeStoreSessionServesRepeatDiffFromCache) {
  // Two registered images, the same by-handle diff twice.  The `wait` line
  // fences the first response so the second submit cannot coalesce with it
  // and must be answered by the result cache — bit-identical, without
  // invoking the engine again.
  const std::string reqs = write_requests_file(
      "serve_store.txt",
      "register ref 6 200 0.02\n"
      "register scan 6 200 0.05\n"
      "diff-handles batch ref scan\n"
      "wait\n"
      "diff-handles batch ref scan\n");
  const CliRun r =
      cli({"serve", "--requests", reqs, "--store", "--json"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const JsonValue root = parse_json(r.out);
  EXPECT_EQ(root.at("schema").string, "sysrle.serve.v8");
  EXPECT_TRUE(root.at("params").at("store").boolean);
  EXPECT_DOUBLE_EQ(root.at("params").at("registers").number, 2.0);
  EXPECT_DOUBLE_EQ(root.at("offered").number, 2.0);
  EXPECT_DOUBLE_EQ(root.at("completed").number, 2.0);

  const JsonValue& store = root.at("store");
  EXPECT_DOUBLE_EQ(store.at("registered").number, 2.0);
  EXPECT_DOUBLE_EQ(store.at("resident").number, 2.0);
  EXPECT_TRUE(store.at("accounting_ok").boolean);
  // v8: the store holds parses only, so no byte-arena keys remain.
  for (const auto& [key, value] : store.object)
    EXPECT_NE(key.rfind("arena", 0), 0u) << key;

  const JsonValue& cache = root.at("cache");
  EXPECT_DOUBLE_EQ(cache.at("hits").number, 1.0);
  EXPECT_DOUBLE_EQ(cache.at("misses").number, 1.0);
  EXPECT_TRUE(cache.at("accounting_ok").boolean);

  // The engine ran once; the repeat was served from the cache with the
  // same payload (canonical fingerprints of the delivered diffs match).
  EXPECT_DOUBLE_EQ(root.at("backend").at("engine_invocations").number, 1.0);
  EXPECT_DOUBLE_EQ(root.at("router").at("cache_hits").number, 1.0);
  const JsonValue& diffs = root.at("handle_diffs");
  ASSERT_EQ(diffs.array.size(), 2u);
  EXPECT_EQ(diffs.array[0].at("status").string, "completed");
  EXPECT_EQ(diffs.array[1].at("status").string, "completed");
  EXPECT_FALSE(diffs.array[0].at("from_cache").boolean);
  EXPECT_TRUE(diffs.array[1].at("from_cache").boolean);
  EXPECT_GT(diffs.array[0].at("diff_fingerprint").number, 0.0);
  EXPECT_DOUBLE_EQ(diffs.array[0].at("diff_fingerprint").number,
                   diffs.array[1].at("diff_fingerprint").number);
  EXPECT_TRUE(root.at("accounting_ok").boolean);
}

TEST_F(CliFixture, ServeStoreDiffHandlesNamesUnknownImage) {
  const std::string reqs = write_requests_file(
      "serve_store_unknown.txt",
      "register ref 4 200 0.02\n"
      "diff-handles batch ref ghost\n");
  const CliRun r = cli({"serve", "--requests", reqs, "--store"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("ghost"), std::string::npos);
}

TEST_F(CliFixture, ServeStoreDirPersistsAcrossSessions) {
  // Session 1 registers two images into a durable directory; session 2
  // recovers them from disk — no register lines — and serves a by-handle
  // diff against the recovered labels.
  const std::string dir = tmp_path("durable_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string reqs1 = write_requests_file(
      "serve_durable1.txt",
      "register ref 6 200 0.02\n"
      "register scan 6 200 0.05\n");
  const CliRun first =
      cli({"serve", "--requests", reqs1, "--store-dir", dir, "--json"});
  ASSERT_EQ(first.exit_code, 0) << first.err;
  const JsonValue root1 = parse_json(first.out);
  EXPECT_EQ(root1.at("schema").string, "sysrle.serve.v8");
  EXPECT_EQ(root1.at("params").at("store_dir").string, dir);
  const JsonValue& dur1 = root1.at("durability");
  EXPECT_DOUBLE_EQ(dur1.at("journal").at("appends").number, 2.0);
  EXPECT_GT(dur1.at("journal").at("fsyncs").number, 0.0);
  EXPECT_TRUE(dur1.at("accounting_ok").boolean);
  EXPECT_DOUBLE_EQ(dur1.at("recovery").at("replayed_registers").number, 0.0);

  const std::string reqs2 = write_requests_file(
      "serve_durable2.txt", "diff-handles batch ref scan\n");
  const CliRun second =
      cli({"serve", "--requests", reqs2, "--store-dir", dir, "--json"});
  ASSERT_EQ(second.exit_code, 0) << second.err;
  const JsonValue root2 = parse_json(second.out);
  const JsonValue& rec = root2.at("durability").at("recovery");
  EXPECT_DOUBLE_EQ(rec.at("replayed_registers").number, 2.0);
  EXPECT_DOUBLE_EQ(rec.at("dropped_malformed").number, 0.0);
  EXPECT_DOUBLE_EQ(rec.at("dropped_fingerprint").number, 0.0);
  EXPECT_DOUBLE_EQ(rec.at("salvaged_bytes").number, 0.0);
  EXPECT_TRUE(root2.at("durability").at("accounting_ok").boolean);
  const JsonValue& diffs = root2.at("handle_diffs");
  ASSERT_EQ(diffs.array.size(), 1u);
  EXPECT_EQ(diffs.array[0].at("status").string, "completed");
  std::filesystem::remove_all(dir);
}

TEST_F(CliFixture, ServeStoreDirPreflightRejectsBadDirectories) {
  const std::string reqs =
      write_requests_file("serve_durable_preflight.txt", "batch 2 100 0.0\n");
  // Nonexistent directory: one-line diagnostic, exit 2, nothing created.
  const CliRun missing = cli({"serve", "--requests", reqs, "--store-dir",
                              tmp_path("no_such_dir")});
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.err.find("--store-dir"), std::string::npos);
  EXPECT_EQ(std::count(missing.err.begin(), missing.err.end(), '\n'), 1);
  EXPECT_FALSE(std::filesystem::exists(tmp_path("no_such_dir")));

  // A file is not a directory.
  const CliRun file_target =
      cli({"serve", "--requests", reqs, "--store-dir", reqs});
  EXPECT_EQ(file_target.exit_code, 2);
  EXPECT_NE(file_target.err.find("not an existing directory"),
            std::string::npos);

  // --snapshot-every is a durable-store knob: orphaned or negative is usage.
  const std::string dir = tmp_path("durable_flags");
  std::filesystem::create_directories(dir);
  const CliRun orphan =
      cli({"serve", "--requests", reqs, "--snapshot-every", "8"});
  EXPECT_EQ(orphan.exit_code, 2);
  const CliRun negative = cli({"serve", "--requests", reqs, "--store-dir",
                               dir, "--snapshot-every", "-1"});
  EXPECT_EQ(negative.exit_code, 2);
  std::filesystem::remove_all(dir);
}

TEST_F(CliFixture, StoreFsckReportsCleanAndCorruptDirectories) {
  const std::string dir = tmp_path("fsck_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string reqs = write_requests_file(
      "store_fsck.txt",
      "register ref 6 200 0.02\n"
      "register scan 6 200 0.05\n");
  ASSERT_EQ(cli({"serve", "--requests", reqs, "--store-dir", dir}).exit_code,
            0);
  // A second session recovers and compacts, leaving the canonical layout:
  // both images in the snapshot, the journal truncated to its header.
  const std::string empty_reqs = write_requests_file("store_fsck_empty.txt", "");
  ASSERT_EQ(
      cli({"serve", "--requests", empty_reqs, "--store-dir", dir}).exit_code,
      0);

  const CliRun clean = cli({"store", "fsck", dir, "--json"});
  EXPECT_EQ(clean.exit_code, 0) << clean.err;
  const JsonValue root = parse_json(clean.out);
  EXPECT_EQ(root.at("schema").string, "sysrle.fsck.v1");
  EXPECT_DOUBLE_EQ(root.at("verified_images").number, 2.0);
  EXPECT_DOUBLE_EQ(root.at("fingerprint_mismatches").number, 0.0);
  EXPECT_TRUE(root.at("clean").boolean);

  // Flip one byte mid-snapshot: fsck must flag it (exit 1, clean=false)
  // without modifying the directory.
  const std::string snap = dir + "/store.snapshot";
  std::string data;
  {
    std::ifstream in(snap, std::ios::binary);
    data.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(data.size(), 100u);
  data[100] = static_cast<char>(data[100] ^ 0x08);
  {
    std::ofstream out_f(snap, std::ios::binary | std::ios::trunc);
    out_f.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  const CliRun dirty = cli({"store", "fsck", dir, "--json"});
  EXPECT_EQ(dirty.exit_code, 1);
  const JsonValue droot = parse_json(dirty.out);
  EXPECT_FALSE(droot.at("clean").boolean);
  EXPECT_GT(droot.at("snapshot").at("salvaged_tail_bytes").number +
                droot.at("fingerprint_mismatches").number +
                droot.at("malformed_images").number,
            0.0);

  // Usage errors: missing dir operand, nonexistent directory.
  EXPECT_EQ(cli({"store", "fsck"}).exit_code, 2);
  EXPECT_EQ(cli({"store", "fsck", tmp_path("fsck_nope")}).exit_code, 2);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sysrle
