// Tests of the benchmark's own aggregation: self time from nested spans,
// the unattributed remainder, SYPD units, the failure ratio and the order
// statistics. Build with the benchmark (target test_ledger) and run it.

#include <gtest/gtest.h>

#include <stdexcept>

#include "ledger.hpp"

namespace {

using foam::telemetry::RankTrace;
using foam::telemetry::SpanRec;
using foambench::build_ledger;

// Spans in completion order, as the tracer emits them.
RankTrace nested_trace() {
  RankTrace t;
  t.names = {"step", "dynamics", "spectral", "physics", "ckpt"};
  // step [0, 10] > dynamics [1, 5] > spectral [2, 4]; step > physics [6, 9];
  // then a second top-level span ckpt [12, 13].
  t.spans = {
      SpanRec{2, foam::par::Region::kOther, 2, 2.0, 4.0},
      SpanRec{1, foam::par::Region::kOther, 1, 1.0, 5.0},
      SpanRec{3, foam::par::Region::kOther, 1, 6.0, 9.0},
      SpanRec{0, foam::par::Region::kOther, 0, 0.0, 10.0},
      SpanRec{4, foam::par::Region::kOther, 0, 12.0, 13.0},
  };
  return t;
}

TEST(Ledger, SelfTimeSubtractsDirectChildrenOnly) {
  const auto led = build_ledger(nested_trace(), 15.0);
  EXPECT_DOUBLE_EQ(led.self("spectral"), 2.0);
  EXPECT_DOUBLE_EQ(led.self("dynamics"), 2.0);  // 4 - spectral's 2
  EXPECT_DOUBLE_EQ(led.self("physics"), 3.0);
  EXPECT_DOUBLE_EQ(led.self("step"), 3.0);  // 10 - (4 + 3)
  EXPECT_DOUBLE_EQ(led.self("ckpt"), 1.0);
  EXPECT_DOUBLE_EQ(led.self("absent"), 0.0);
}

TEST(Ledger, UnattributedIsWallMinusTopLevelAndLedgerCloses) {
  const auto led = build_ledger(nested_trace(), 15.0);
  EXPECT_DOUBLE_EQ(led.top_level_s, 11.0);
  EXPECT_DOUBLE_EQ(led.unattributed_s(), 4.0);
  EXPECT_DOUBLE_EQ(led.self_total() + led.unattributed_s(), led.wall_s);
}

TEST(Ledger, SelfPrefixSumsMatchingNames) {
  RankTrace t;
  t.names = {"spectral.a", "spectral.b", "spectralx", "spec"};
  t.spans = {SpanRec{0, foam::par::Region::kOther, 0, 0.0, 1.0},
             SpanRec{1, foam::par::Region::kOther, 0, 1.0, 3.0},
             SpanRec{2, foam::par::Region::kOther, 0, 3.0, 7.0},
             SpanRec{3, foam::par::Region::kOther, 0, 7.0, 15.0}};
  const auto led = build_ledger(t, 15.0);
  EXPECT_DOUBLE_EQ(led.self_prefix("spectral."), 3.0);
}

TEST(Ledger, RepeatedSpansAccumulate) {
  RankTrace t;
  t.names = {"step", "inner"};
  for (int s = 0; s < 3; ++s) {
    const double t0 = 10.0 * s;
    t.spans.push_back({1, foam::par::Region::kOther, 1, t0 + 1.0, t0 + 3.0});
    t.spans.push_back({0, foam::par::Region::kOther, 0, t0, t0 + 5.0});
  }
  const auto led = build_ledger(t, 30.0);
  EXPECT_DOUBLE_EQ(led.self("inner"), 6.0);
  EXPECT_DOUBLE_EQ(led.self("step"), 9.0);
  EXPECT_DOUBLE_EQ(led.unattributed_s(), 15.0);
}

TEST(Ledger, MergeAddsIntervals) {
  auto a = build_ledger(nested_trace(), 15.0);
  a.merge(build_ledger(nested_trace(), 20.0));
  EXPECT_DOUBLE_EQ(a.self("step"), 6.0);
  EXPECT_DOUBLE_EQ(a.wall_s, 35.0);
  EXPECT_DOUBLE_EQ(a.unattributed_s(), 13.0);
}

TEST(Ledger, RejectsBrokenNesting) {
  RankTrace t;
  t.names = {"deep", "top"};
  // A depth-2 span whose depth-1 parent was never recorded.
  t.spans = {SpanRec{0, foam::par::Region::kOther, 2, 1.0, 2.0},
             SpanRec{1, foam::par::Region::kOther, 0, 0.0, 3.0}};
  EXPECT_THROW(build_ledger(t, 3.0), std::runtime_error);
  RankTrace backwards;
  backwards.names = {"x"};
  backwards.spans = {SpanRec{0, foam::par::Region::kOther, 0, 2.0, 1.0}};
  EXPECT_THROW(build_ledger(backwards, 3.0), std::runtime_error);
  RankTrace bad_name;
  bad_name.spans = {SpanRec{0, foam::par::Region::kOther, 0, 0.0, 1.0}};
  EXPECT_THROW(build_ledger(bad_name, 3.0), std::runtime_error);
}

TEST(Ledger, ClosesOnTheTracersOwnOutput) {
  namespace tel = foam::telemetry;
  tel::Telemetry session(
      tel::TelemetryOptions{tel::TraceLevel::kFull, 1024, false});
  {
    tel::ScopedSession scope(session);
    for (int i = 0; i < 3; ++i) {
      tel::ScopedRegion region(foam::par::Region::kOcean);
      FOAM_TRACE_SCOPE("outer");
      { FOAM_TRACE_SCOPE("inner"); }
      session.tracer().instant("marker");
    }
    FOAM_TRACE_SCOPE("tail");
  }
  const double wall = session.tracer().now();
  const auto led = build_ledger(session.tracer().trace(), wall);
  EXPECT_NEAR(led.self_total() + led.unattributed_s(), wall, 1e-12);
  EXPECT_GE(led.unattributed_s(), 0.0);
  EXPECT_GE(led.self("ocean"), 0.0);
  EXPECT_GE(led.self("outer"), 0.0);
  EXPECT_GT(led.top_level_s, 0.0);
}

TEST(Ledger, RecordsDroppedSpans) {
  RankTrace t = nested_trace();
  t.dropped = 7;
  EXPECT_EQ(build_ledger(t, 15.0).dropped, 7u);
}

TEST(Units, SypdConvertsDaysAndWallSeconds) {
  // 365 simulated days in one wall-clock day is one SYPD.
  EXPECT_DOUBLE_EQ(foambench::sypd(365.0, 86400.0), 1.0);
  // One simulated day in 4 s: 86400 / 4 = 21600x real time = 59.18 SYPD.
  EXPECT_NEAR(foambench::sypd(1.0, 4.0), 21600.0 / 365.0, 1e-9);
  EXPECT_NEAR(foambench::sypd(1.0, 4.0) * 365.0, 21600.0, 1e-9);
  EXPECT_THROW(foambench::sypd(1.0, 0.0), std::invalid_argument);
}

TEST(Units, FailureRatio) {
  EXPECT_DOUBLE_EQ(foambench::failure_ratio(0, 12), 0.0);
  EXPECT_DOUBLE_EQ(foambench::failure_ratio(3, 12), 0.25);
  EXPECT_DOUBLE_EQ(foambench::failure_ratio(0, 0), 0.0);
}

TEST(Stats, MedianAndQuartilesMatchPythonStatistics) {
  EXPECT_DOUBLE_EQ(foambench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(foambench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(foambench::median({}), std::invalid_argument);
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto [q1, q3] = foambench::quartiles(
      {10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(q1, 2.75);
  EXPECT_DOUBLE_EQ(q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto [a, b] = foambench::quartiles({1.0, 2.0});
  EXPECT_DOUBLE_EQ(a, 0.75);
  EXPECT_DOUBLE_EQ(b, 2.25);
}

TEST(Digest, Fnv1aIsOrderSensitiveAndChains) {
  const double x[] = {1.0, 2.0};
  const double y[] = {2.0, 1.0};
  EXPECT_NE(foambench::fnv1a(x, 2), foambench::fnv1a(y, 2));
  EXPECT_EQ(foambench::fnv1a(x, 2),
            foambench::fnv1a(x + 1, 1, foambench::fnv1a(x, 1)));
}

}  // namespace
