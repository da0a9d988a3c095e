// Tests for the streaming (line-scan) diff API.

#include "core/stream_diff.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/systolic_diff.hpp"
#include "rle/ops.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

struct Captured {
  pos_t y;
  RleRow diff;
};

TEST(StreamDiff, RowsArriveInOrderWithCorrectDiffs) {
  Rng rng(1201);
  RowGenParams p;
  p.width = 800;
  std::vector<Captured> captured;
  ImageDiffOptions opts;
  opts.canonicalize_output = true;
  StreamDiffer differ(opts, [&](pos_t y, const RleRow& d) {
    captured.push_back({y, d});
  });

  std::vector<RleRow> refs, scans;
  for (int i = 0; i < 20; ++i) {
    ErrorGenParams ep;
    ep.error_fraction = 0.03;
    const RowPairSample s = generate_pair(rng, p, ep);
    refs.push_back(s.first);
    scans.push_back(s.second);
    differ.push_row(s.first, s.second);
  }

  ASSERT_EQ(captured.size(), 20u);
  for (std::size_t i = 0; i < captured.size(); ++i) {
    EXPECT_EQ(captured[i].y, static_cast<pos_t>(i));
    EXPECT_EQ(captured[i].diff, xor_rows(refs[i], scans[i])) << "row " << i;
  }
}

TEST(StreamDiff, SummaryAggregates) {
  Rng rng(1202);
  RowGenParams p;
  p.width = 600;
  len_t expected_pixels = 0;
  ImageDiffOptions sys;
  sys.engine = DiffEngine::kSystolic;  // machine counters need the machine
  StreamDiffer differ(sys, [](pos_t, const RleRow&) {});
  for (int i = 0; i < 10; ++i) {
    ErrorGenParams ep;
    ep.error_fraction = 0.02;
    const RowPairSample s = generate_pair(rng, p, ep);
    expected_pixels += hamming_distance(s.first, s.second);
    differ.push_row(s.first, s.second);
  }
  const StreamSummary& sum = differ.finish();
  EXPECT_EQ(sum.rows, 10u);
  EXPECT_EQ(sum.difference_pixels, expected_pixels);
  EXPECT_GT(sum.counters.iterations, 0u);
  EXPECT_GE(sum.counters.iterations, sum.max_row_iterations);
}

TEST(StreamDiff, PipelinedCyclesDominatedByLoadOnSimilarRows) {
  // On near-identical rows iterations are tiny, so the double-buffered
  // machine is load-bound: pipelined cycles ~ sum of run counts.
  Rng rng(1203);
  RowGenParams p;
  p.width = 2000;
  StreamDiffer differ(ImageDiffOptions{}, [](pos_t, const RleRow&) {});
  cycle_t expected_load = 0;
  for (int i = 0; i < 5; ++i) {
    const RleRow row = generate_row(rng, p);
    expected_load += 2 * row.run_count();
    differ.push_row(row, row);
  }
  EXPECT_EQ(differ.finish().pipelined_cycles, expected_load);
}

TEST(StreamDiff, EnginesAgreeRowByRow) {
  Rng rng(1204);
  RowGenParams p;
  p.width = 500;
  ErrorGenParams ep;
  ep.error_fraction = 0.10;
  std::vector<RowPairSample> pairs;
  for (int i = 0; i < 8; ++i) pairs.push_back(generate_pair(rng, p, ep));

  std::vector<std::vector<RleRow>> results;
  for (const DiffEngine engine :
       {DiffEngine::kSystolic, DiffEngine::kBusSystolic,
        DiffEngine::kSequentialMerge, DiffEngine::kAdaptive}) {
    ImageDiffOptions opts;
    opts.engine = engine;
    opts.canonicalize_output = true;
    std::vector<RleRow> rows;
    StreamDiffer differ(opts, [&rows](pos_t, const RleRow& d) {
      rows.push_back(d);
    });
    for (const auto& pr : pairs) differ.push_row(pr.first, pr.second);
    results.push_back(std::move(rows));
  }
  for (std::size_t e = 1; e < results.size(); ++e)
    EXPECT_EQ(results[e], results[0]) << "engine " << e;
}

TEST(StreamDiff, AdaptiveEngineRoutesPerRowAndAccountsBothWays) {
  // One similar pair (k1 = 7, k2 = 6: |1| <= 0.15 * 13, so θ routes it to
  // the array) and one empty-vs-busy pair (routed to the merge).  Both rows
  // run on the host word engine; the summary accounts the route mix and
  // the modelled iterations, never a machine.
  const RleRow similar_a{{0, 3}, {10, 3}, {20, 3}, {30, 3},
                         {40, 3}, {50, 3}, {60, 3}};
  const RleRow similar_b{{1, 3}, {11, 3}, {21, 3}, {31, 3}, {41, 3}, {51, 3}};
  const RleRow busy{{0, 2}, {4, 2}, {8, 2}, {12, 2}, {16, 2}, {20, 2}};
  const std::vector<std::pair<RleRow, RleRow>> pairs = {
      {similar_a, similar_b}, {RleRow{}, busy}};

  for (const bool canonical : {true, false}) {
    std::vector<StreamSummary> summaries;
    std::vector<std::vector<RleRow>> outputs;
    for (const DiffEngine engine :
         {DiffEngine::kAdaptive, DiffEngine::kSequentialMerge}) {
      ImageDiffOptions opts;
      opts.engine = engine;
      opts.canonicalize_output = canonical;
      std::vector<RleRow> rows;
      StreamDiffer differ(opts, [&rows](pos_t, const RleRow& d) {
        rows.push_back(d);
      });
      for (const auto& [ra, rb] : pairs) differ.push_row(ra, rb);
      summaries.push_back(differ.finish());
      outputs.push_back(std::move(rows));
    }
    const StreamSummary& s = summaries[0];
    EXPECT_EQ(s.rows, 2u);
    EXPECT_EQ(s.adaptive_systolic_rows, 1u);    // row 0 routed to the array
    EXPECT_EQ(s.adaptive_sequential_rows, 1u);  // row 1 routed to the merge
    EXPECT_EQ(s.adaptive_modelled_iterations, 1u);  // |7 - 6| on row 0
    EXPECT_EQ(s.counters.iterations, 0u);           // no machine ran
    EXPECT_EQ(s.max_row_iterations, 0u);
    EXPECT_GT(s.sequential_iterations, 0u);
    EXPECT_EQ(s.sequential_iterations, summaries[1].sequential_iterations)
        << "canonical=" << canonical;
    EXPECT_EQ(outputs[0], outputs[1]) << "canonical=" << canonical;
    EXPECT_EQ(summaries[1].adaptive_systolic_rows, 0u);
    EXPECT_EQ(summaries[1].adaptive_sequential_rows, 0u);
  }
}

TEST(StreamDiff, AdaptiveRouteMixMatchesImageDiff) {
  // StreamDiffer and image_diff share diff_row, so the route mix and the
  // modelled iterations of a stream equal those of the whole-image call.
  Rng rng(1213);
  RowGenParams p;
  p.width = 600;
  const RleImage a = generate_image(rng, 48, p);
  RleImage b(a.width(), a.height());
  for (pos_t y = 0; y < a.height(); ++y) {
    Rng row_rng = rng.split();
    ErrorGenParams ep;
    ep.error_fraction = y % 3 == 0 ? 0.3 : 0.03;
    b.set_row(y, y % 5 == 0 ? RleRow{}
                            : inject_errors(row_rng, a.row(y), a.width(), ep));
  }
  ImageDiffOptions opts;
  opts.engine = DiffEngine::kAdaptive;
  const ImageDiffResult image = image_diff(a, b, opts);
  StreamDiffer differ(opts, [](pos_t, const RleRow&) {});
  for (pos_t y = 0; y < a.height(); ++y) differ.push_row(a.row(y), b.row(y));
  const StreamSummary& s = differ.finish();

  EXPECT_GT(image.adaptive_systolic_rows, 0u);
  EXPECT_GT(image.adaptive_sequential_rows, 0u);
  EXPECT_GT(image.adaptive_modelled_iterations, 0u);
  EXPECT_EQ(s.adaptive_systolic_rows, image.adaptive_systolic_rows);
  EXPECT_EQ(s.adaptive_sequential_rows, image.adaptive_sequential_rows);
  EXPECT_EQ(s.adaptive_modelled_iterations,
            image.adaptive_modelled_iterations);
}

TEST(StreamDiff, NullCallbackRejected) {
  EXPECT_THROW(StreamDiffer(ImageDiffOptions{}, nullptr), contract_error);
}

TEST(StreamDiff, EngineFailureFallsBackAndReportsError) {
  // A throwing engine (simulating a machine defect caught by a checker)
  // must not stall the stream: the error callback fires and the row is
  // recomputed on the sequential fallback, still correct and in order.
  Rng rng(1205);
  RowGenParams p;
  p.width = 400;
  std::vector<Captured> captured;
  std::vector<std::pair<pos_t, std::string>> errors;
  ImageDiffOptions opts;
  opts.canonicalize_output = true;
  StreamDiffer differ(opts, [&](pos_t y, const RleRow& d) {
    captured.push_back({y, d});
  });
  differ.set_error_callback([&](pos_t y, const std::string& m) {
    errors.emplace_back(y, m);
  });
  int calls = 0;
  differ.set_engine_override(
      [&calls](const RleRow& a, const RleRow& b, SystolicCounters& c) {
        if (++calls == 2) throw contract_error("injected engine failure");
        SystolicResult r = systolic_xor(a, b);
        c = r.counters;
        return std::move(r.output);
      });

  std::vector<RowPairSample> pairs;
  for (int i = 0; i < 3; ++i) {
    ErrorGenParams ep;
    ep.error_fraction = 0.05;
    pairs.push_back(generate_pair(rng, p, ep));
    differ.push_row(pairs.back().first, pairs.back().second);
  }

  const StreamSummary& sum = differ.finish();
  EXPECT_EQ(sum.rows, 3u);
  EXPECT_EQ(sum.fallback_rows, 1u);
  EXPECT_EQ(sum.poisoned_rows, 0u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].first, 1);
  EXPECT_NE(errors[0].second.find("injected engine failure"),
            std::string::npos);
  ASSERT_EQ(captured.size(), 3u);
  for (std::size_t i = 0; i < captured.size(); ++i)
    EXPECT_EQ(captured[i].diff, xor_rows(pairs[i].first, pairs[i].second))
        << "row " << i;
}

TEST(StreamDiff, InvalidRunsDegradeToPoisonedRowAndStreamContinues) {
  std::vector<Captured> captured;
  std::vector<std::pair<pos_t, std::string>> errors;
  StreamDiffer differ(ImageDiffOptions{}, [&](pos_t y, const RleRow& d) {
    captured.push_back({y, d});
  });
  differ.set_error_callback([&](pos_t y, const std::string& m) {
    errors.emplace_back(y, m);
  });

  differ.push_row_runs({{0, 3}, {10, 2}}, {{5, -1}});  // negative length
  differ.push_row_runs({{0, 5}, {3, 2}}, {});          // overlapping reference
  differ.push_row_runs({{2, 2}}, {{3, 4}});            // valid pair

  const StreamSummary& sum = differ.finish();
  EXPECT_EQ(sum.rows, 3u);
  EXPECT_EQ(sum.poisoned_rows, 2u);
  EXPECT_EQ(sum.fallback_rows, 0u);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].first, 0);
  EXPECT_NE(errors[0].second.find("scan"), std::string::npos);
  EXPECT_EQ(errors[1].first, 1);
  EXPECT_NE(errors[1].second.find("reference"), std::string::npos);
  ASSERT_EQ(captured.size(), 3u);
  EXPECT_TRUE(captured[0].diff.empty());
  EXPECT_TRUE(captured[1].diff.empty());
  EXPECT_EQ(captured[2].diff,
            xor_rows(RleRow{{2, 2}}, RleRow{{3, 4}}));
}

TEST(StreamDiff, ErrorCallbackIsOptional) {
  // No error callback installed: failures are still absorbed silently.
  std::size_t rows_seen = 0;
  StreamDiffer differ(ImageDiffOptions{},
                      [&](pos_t, const RleRow&) { ++rows_seen; });
  differ.set_engine_override(
      [](const RleRow&, const RleRow&, SystolicCounters&) -> RleRow {
        throw contract_error("always broken");
      });
  differ.push_row(RleRow{{0, 4}}, RleRow{{2, 4}});
  differ.push_row_runs({{4, -7}}, {});
  EXPECT_EQ(rows_seen, 2u);
  EXPECT_EQ(differ.finish().fallback_rows, 1u);
  EXPECT_EQ(differ.finish().poisoned_rows, 1u);
}

TEST(StreamDiff, ClearingEngineOverrideRestoresConfiguredEngine) {
  std::vector<Captured> captured;
  StreamDiffer differ(ImageDiffOptions{}, [&](pos_t y, const RleRow& d) {
    captured.push_back({y, d});
  });
  differ.set_engine_override(
      [](const RleRow&, const RleRow&, SystolicCounters&) -> RleRow {
        throw contract_error("broken");
      });
  differ.push_row(RleRow{{0, 2}}, RleRow{{4, 2}});
  differ.set_engine_override(nullptr);
  differ.push_row(RleRow{{0, 2}}, RleRow{{4, 2}});
  EXPECT_EQ(differ.finish().fallback_rows, 1u);  // only the first row
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].diff.canonical(), captured[1].diff.canonical());
}

TEST(StreamDiff, ExpiredDeadlineRefusesRowsBeforeTheEngine) {
  // The deadline-propagation contract: once expired, push_row returns false
  // without invoking the engine and without firing the row callback.
  std::vector<Captured> captured;
  std::uint64_t engine_calls = 0;
  bool expired = false;
  StreamDiffer differ(ImageDiffOptions{}, [&](pos_t y, const RleRow& d) {
    captured.push_back({y, d});
  });
  differ.set_engine_override(
      [&](const RleRow& a, const RleRow& b, SystolicCounters&) {
        ++engine_calls;
        return xor_rows(a, b);
      });
  differ.set_deadline([&] { return expired; });

  EXPECT_TRUE(differ.push_row(RleRow{{0, 2}}, RleRow{{4, 2}}));
  EXPECT_TRUE(differ.push_row(RleRow{{1, 3}}, RleRow{{6, 1}}));
  expired = true;
  EXPECT_FALSE(differ.push_row(RleRow{{0, 2}}, RleRow{{4, 2}}));
  EXPECT_FALSE(differ.push_row_runs({{0, 2}}, {{4, 2}}));

  const StreamSummary& sum = differ.finish();
  EXPECT_EQ(sum.rows, 2u);
  EXPECT_EQ(sum.expired_rows, 2u);
  EXPECT_EQ(engine_calls, 2u);  // never invoked after expiry
  EXPECT_EQ(captured.size(), 2u);

  // Clearing the deadline (or it un-expiring) resumes the stream.
  expired = false;
  EXPECT_TRUE(differ.push_row(RleRow{{0, 2}}, RleRow{{4, 2}}));
  EXPECT_EQ(differ.finish().rows, 3u);
  EXPECT_EQ(engine_calls, 3u);
}

TEST(StreamDiff, GaugesStayBalancedAcrossErrorAndFallbackPaths) {
  // Pin for the gauge-balance fix: the queue-depth gauge must end at the
  // last row's true load — 0 for a poisoned row, not the previous row's
  // leftover — and the throughput gauge must be set on every path.
  reset_telemetry();
  set_telemetry_enabled(true);
  {
    StreamDiffer differ(ImageDiffOptions{}, [](pos_t, const RleRow&) {});
    // Normal row: gauge holds its 2+1 runs.
    differ.push_row(RleRow{{0, 2}, {5, 1}}, RleRow{{9, 3}});
    EXPECT_EQ(global_metrics().snapshot().gauge("stream.queue_depth_runs",
                                                -1.0),
              3.0);

    // Fallback row (engine throws): the summary counts it, the gauge still
    // tracks the row's real load.
    differ.set_engine_override(
        [](const RleRow&, const RleRow&, SystolicCounters&) -> RleRow {
          throw contract_error("broken engine");
        });
    differ.push_row(RleRow{{0, 4}}, RleRow{{6, 2}});
    differ.set_engine_override(nullptr);
    MetricsSnapshot snap = global_metrics().snapshot();
    EXPECT_EQ(differ.finish().fallback_rows, 1u);
    EXPECT_EQ(snap.gauge("stream.queue_depth_runs", -1.0), 2.0);

    // Poisoned row: zero runs enter the machine, so the gauge returns to
    // baseline instead of advertising phantom queued work.
    differ.push_row_runs({{5, 2}, {0, 2}}, {{1, 1}});
    snap = global_metrics().snapshot();
    EXPECT_EQ(differ.finish().poisoned_rows, 1u);
    EXPECT_EQ(snap.gauge("stream.queue_depth_runs", -1.0), 0.0);
    EXPECT_GT(snap.gauge("stream.rows_per_sec", -1.0), 0.0);
    EXPECT_EQ(differ.finish().rows, 3u);
    // Every row was timed, on every path; the row counts live in the
    // summary, not in registry counters.
    const Histogram* latency = snap.histogram("stream.row_latency_us");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->stat().count(), 3u);
    for (const auto& [name, value] : snap.counters)
      EXPECT_NE(name.rfind("stream.", 0), 0u) << name;
  }
  set_telemetry_enabled(false);
  reset_telemetry();
}

TEST(StreamDiff, AdversarialRunListsNeverThrowAndAreAccountedExactly) {
  // Hostile input sweep for the untrusted entry point.  Every malformed list
  // degrades to one empty diff row — never an exception, never a stall —
  // and poisoned_rows counts exactly the malformed pushes.
  constexpr len_t kMax = std::numeric_limits<len_t>::max();
  std::vector<Captured> captured;
  std::vector<pos_t> error_rows;
  StreamDiffer differ(ImageDiffOptions{}, [&](pos_t y, const RleRow& d) {
    captured.push_back({y, d});
  });
  differ.set_error_callback(
      [&](pos_t y, const std::string& diagnostic) {
        EXPECT_FALSE(diagnostic.empty());
        error_rows.push_back(y);
      });

  struct Case {
    std::vector<sysrle::Run> reference;
    std::vector<sysrle::Run> scan;
    bool poisoned;
  };
  const std::vector<Case> cases = {
      // Overlapping runs in the reference.
      {{{0, 5}, {3, 4}}, {{10, 2}}, true},
      // Reversed (descending start) order in the scan.
      {{{0, 2}}, {{9, 2}, {4, 2}}, true},
      // end < start: non-positive length.
      {{{4, 0}}, {{0, 1}}, true},
      {{{4, -3}}, {{0, 1}}, true},
      // Equal starts (not strictly increasing).
      {{{7, 1}, {7, 2}}, {{0, 1}}, true},
      // A healthy pair interleaved: the stream must keep flowing.
      {{{0, 4}}, {{2, 4}}, false},
      // Near-len_t-max run: arithmetic on the closed interval must not
      // overflow, and per-run (not per-pixel) cost means it processes fine.
      {{{0, kMax - 2}}, {{1, 1}}, false},
      // Both sides malformed still costs exactly one poisoned row.
      {{{5, 2}, {1, 1}}, {{8, 0}}, true},
  };

  std::uint64_t expected_poisoned = 0;
  for (const Case& c : cases) {
    EXPECT_TRUE(differ.push_row_runs(c.reference, c.scan));
    if (c.poisoned) ++expected_poisoned;
  }

  const StreamSummary& sum = differ.finish();
  EXPECT_EQ(sum.rows, cases.size());
  EXPECT_EQ(sum.poisoned_rows, expected_poisoned);
  EXPECT_EQ(sum.fallback_rows, 0u);
  EXPECT_EQ(error_rows.size(), expected_poisoned);
  // 4 + (kMax - 3) healthy pixels: the running total saturates, never wraps.
  EXPECT_EQ(sum.difference_pixels, kMax);

  // on_row fired exactly once per push, in order, empty iff poisoned.
  ASSERT_EQ(captured.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(captured[i].y, static_cast<pos_t>(i));
    EXPECT_EQ(captured[i].diff.empty(), cases[i].poisoned) << "row " << i;
  }
  // The healthy rows carry the true XOR.
  EXPECT_EQ(captured[5].diff.canonical(),
            xor_rows(RleRow{{0, 4}}, RleRow{{2, 4}}).canonical());
}

}  // namespace
}  // namespace sysrle
