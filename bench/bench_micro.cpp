// Wall-clock microbenchmarks (google-benchmark) comparing every row-diff
// engine on the paper's workload.  Not a paper artefact — the paper counts
// iterations, not nanoseconds — but useful for sanity-checking the simulator
// and the library fast path.

#include <benchmark/benchmark.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/pixel_parallel.hpp"
#include "baseline/sequential_diff.hpp"
#include "baseline/simd_dispatch.hpp"
#include "baseline/word_diff.hpp"
#include "core/boolean_ops.hpp"
#include "core/bus_variant.hpp"
#include "core/image_diff.hpp"
#include "core/systolic_diff.hpp"
#include "core/union_variant.hpp"
#include "rle/rle_image.hpp"
#include "rle/encode.hpp"
#include "rle/ops.hpp"
#include "rle/serialize.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace {

using namespace sysrle;

struct Inputs {
  RleRow a, b;
  pos_t width;
};

/// One deterministic input pair per (width, error %) point, shared by every
/// engine so the comparison is apples to apples.
Inputs make_inputs(pos_t width, int err_pct) {
  Rng rng(static_cast<std::uint64_t>(width) * 1009 +
          static_cast<std::uint64_t>(err_pct));
  RowGenParams rp;
  rp.width = width;
  ErrorGenParams ep;
  ep.error_fraction = err_pct / 100.0;
  const RowPairSample s = generate_pair(rng, rp, ep);
  return {s.first, s.second, width};
}

void args_grid(benchmark::internal::Benchmark* b) {
  for (const std::int64_t width : {1024, 10000}) {
    for (const std::int64_t err : {3, 30}) {
      b->Args({width, err});
    }
  }
}

void BM_SystolicSimulation(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  cycle_t iterations = 0;
  for (auto _ : state) {
    const SystolicResult r = systolic_xor(in.a, in.b);
    iterations = r.counters.iterations;
    benchmark::DoNotOptimize(r.output);
  }
  state.counters["iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_SystolicSimulation)->Apply(args_grid);

// The telemetry acceptance pair: the disabled path (the default above runs
// with the registry off — one relaxed atomic load per row) must stay within
// noise of the seed build, and the enabled path quantifies the full cost of
// mutex + map + reservoir per row.
void BM_SystolicSimulationTelemetryOn(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  reset_telemetry();
  set_telemetry_enabled(true);
  for (auto _ : state) {
    const SystolicResult r = systolic_xor(in.a, in.b);
    benchmark::DoNotOptimize(r.output);
  }
  set_telemetry_enabled(false);
  reset_telemetry();
}
BENCHMARK(BM_SystolicSimulationTelemetryOn)->Apply(args_grid);

/// One deterministic whole-image pair for the row-parallel benchmarks.
struct ImageInputs {
  RleImage a, b;
};

ImageInputs make_image_inputs(pos_t rows, pos_t width) {
  Rng rng(static_cast<std::uint64_t>(rows) * 7919 +
          static_cast<std::uint64_t>(width));
  RowGenParams gp;
  gp.width = width;
  ImageInputs in{generate_image(rng, rows, gp), RleImage(width, rows)};
  ErrorGenParams ep;
  ep.error_fraction = 0.05;
  for (pos_t y = 0; y < rows; ++y)
    in.b.set_row(y, inject_errors(rng, in.a.row(y), width, ep));
  return in;
}

// The row-executor acceptance pair: telemetry disabled (the default — one
// relaxed atomic load per row, spans skipped entirely) versus enabled, where
// per-row spans are sampled at 1/kRowSpanStride so the shared SpanTracer
// mutex is touched a bounded number of times per image regardless of thread
// count.
void BM_ImageDiffParallel(benchmark::State& state) {
  const ImageInputs in = make_image_inputs(256, 2048);
  ImageDiffOptions options;
  options.engine = DiffEngine::kAdaptive;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const ImageDiffResult r = image_diff(in.a, in.b, options);
    benchmark::DoNotOptimize(r.diff);
  }
}
BENCHMARK(BM_ImageDiffParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_ImageDiffParallelTelemetryOn(benchmark::State& state) {
  const ImageInputs in = make_image_inputs(256, 2048);
  ImageDiffOptions options;
  options.engine = DiffEngine::kAdaptive;
  options.threads = static_cast<std::size_t>(state.range(0));
  reset_telemetry();
  set_telemetry_enabled(true);
  for (auto _ : state) {
    const ImageDiffResult r = image_diff(in.a, in.b, options);
    benchmark::DoNotOptimize(r.diff);
  }
  set_telemetry_enabled(false);
  reset_telemetry();
}
BENCHMARK(BM_ImageDiffParallelTelemetryOn)->Arg(1)->Arg(2)->Arg(4);

void BM_BusVariantSimulation(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  cycle_t iterations = 0;
  for (auto _ : state) {
    const BusResult r = bus_systolic_xor(in.a, in.b);
    iterations = r.counters.iterations;
    benchmark::DoNotOptimize(r.output);
  }
  state.counters["iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_BusVariantSimulation)->Apply(args_grid);

void BM_SequentialMerge(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const SequentialDiffResult r = sequential_xor(in.a, in.b);
    benchmark::DoNotOptimize(r.output);
  }
}
BENCHMARK(BM_SequentialMerge)->Apply(args_grid);

// The word-parallel sequential engine at a pinned dispatch level, on the
// same inputs as BM_SequentialMerge — the ≥3x acceptance comparison for
// the sparse-row workload lives in bench_scaling --dispatch-json; this is
// the per-level microscope.
void BM_WordParallelMerge(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  const auto level = static_cast<SimdLevel>(state.range(2));
  if (!simd_level_supported(level)) {
    state.SkipWithError("SIMD level not supported on this host/build");
    return;
  }
  WordDiffScratch scratch;
  for (auto _ : state) {
    const SequentialDiffResult r = word_parallel_xor(in.a, in.b, scratch, level);
    benchmark::DoNotOptimize(r.output);
  }
  state.SetLabel(to_string(level));
}
BENCHMARK(BM_WordParallelMerge)->Apply([](benchmark::internal::Benchmark* b) {
  for (const std::int64_t width : {1024, 10000}) {
    for (const std::int64_t err : {3, 30}) {
      for (const std::int64_t level :
           {static_cast<std::int64_t>(SimdLevel::kSwar64),
            static_cast<std::int64_t>(SimdLevel::kAvx2)}) {
        b->Args({width, err, level});
      }
    }
  }
});

// The production wrapper (sparse guard + dispatch + thread_local scratch)
// at whatever level the host resolved — what image_diff/stream_diff pay.
void BM_SequentialEngine(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const SequentialDiffResult r = sequential_engine_xor(in.a, in.b);
    benchmark::DoNotOptimize(r.output);
  }
  state.SetLabel(to_string(active_simd_level()));
}
BENCHMARK(BM_SequentialEngine)->Apply(args_grid);

void BM_ParitySweep(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const RleRow r = xor_rows(in.a, in.b);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParitySweep)->Apply(args_grid);

void BM_PixelParallel(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const PixelParallelResult r = pixel_parallel_xor(in.a, in.b, in.width);
    benchmark::DoNotOptimize(r.output);
  }
}
BENCHMARK(BM_PixelParallel)->Apply(args_grid);

void BM_UnionMachine(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const UnionResult r = systolic_or(in.a, in.b);
    benchmark::DoNotOptimize(r.output);
  }
}
BENCHMARK(BM_UnionMachine)->Apply(args_grid);

void BM_ComposedAnd(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const BooleanOpResult r = systolic_and(in.a, in.b);
    benchmark::DoNotOptimize(r.output);
  }
}
BENCHMARK(BM_ComposedAnd)->Apply(args_grid);

void BM_OnArrayCompaction(benchmark::State& state) {
  // Compact a fully fragmented row (worst case: one chain of adjacent unit
  // runs spanning the whole width).
  RleRow fragmented;
  for (pos_t i = 0; i < state.range(0); ++i)
    fragmented.push_back(Run{i, 1});
  for (auto _ : state) {
    const CompactPassResult r = systolic_compact(fragmented);
    benchmark::DoNotOptimize(r.output);
  }
  state.counters["passes"] =
      static_cast<double>(systolic_compact(fragmented).passes);
}
BENCHMARK(BM_OnArrayCompaction)->Arg(256)->Arg(1024);

void BM_EncodeBits(benchmark::State& state) {
  const Inputs in = make_inputs(state.range(0), 3);
  const std::vector<std::uint8_t> bits = decode_bits(in.a, in.width);
  for (auto _ : state) {
    const RleRow r = encode_bits(bits);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EncodeBits)->Arg(10000);

/// SRLB bytes of a 10000x48 scan at `err_permille` / 1000 error against its
/// reference, the operand batch_diff's caller decodes on every call.
std::string make_scan_srlb(int err_permille) {
  constexpr pos_t kWidth = 10000, kHeight = 48;
  Rng rng(static_cast<std::uint64_t>(err_permille) * 6151);
  RowGenParams rp;
  rp.width = kWidth;
  ErrorGenParams ep;
  ep.error_fraction = err_permille / 1000.0;
  std::vector<RleRow> rows;
  for (pos_t y = 0; y < kHeight; ++y)
    rows.push_back(generate_pair(rng, rp, ep).second);
  std::ostringstream out;
  write_rle(out, RleImage(kWidth, std::move(rows)), RleFormat::kBinary);
  return out.str();
}

// SRLB decode from a stream (rewound each iteration, so the stream's own
// buffer copy is not timed) and from the bytes in place, at the similar
// (3.5%) and run-dense (30%) error rates.
void BM_ReadRleStream(benchmark::State& state) {
  const std::string srlb = make_scan_srlb(static_cast<int>(state.range(0)));
  std::istringstream in(srlb);
  for (auto _ : state) {
    in.clear();
    in.seekg(0);
    const RleImage img = read_rle(in);
    benchmark::DoNotOptimize(img);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(srlb.size()));
}
BENCHMARK(BM_ReadRleStream)->Arg(35)->Arg(300);

void BM_ReadRleSpan(benchmark::State& state) {
  const std::string srlb = make_scan_srlb(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const RleImage img = read_rle(std::as_bytes(std::span(srlb)));
    benchmark::DoNotOptimize(img);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(srlb.size()));
}
BENCHMARK(BM_ReadRleSpan)->Arg(35)->Arg(300);

}  // namespace
