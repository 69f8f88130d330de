// Tests of the harness itself: the open-loop schedule and step summaries
// on a synthetic timeline, the tail-percentile rule, span self times, and
// the attack_offline digest's independence of the thread count.
#include <gtest/gtest.h>

#include "common/parallel.h"
#include "harness.h"

namespace perfbench {
namespace {

TEST(Schedule, StepsAreEvenlySpacedAndBackToBack) {
  const Schedule s({{10, 1.0}, {20, 0.5}});
  ASSERT_EQ(s.size(), 20u);
  EXPECT_EQ(s.step_begin(1), 10u);
  EXPECT_DOUBLE_EQ(s.due(0), 0.0);
  EXPECT_DOUBLE_EQ(s.due(9), 0.9);
  EXPECT_DOUBLE_EQ(s.due(10), 1.0);
  EXPECT_DOUBLE_EQ(s.due(19), 1.45);
  EXPECT_DOUBLE_EQ(s.step_end_time(1), 1.5);
}

TEST(Schedule, LatencyIsMeasuredFromTheDueTime) {
  // Step 0: 10 req/s for 1 s. The generator stalls for 0.3 s at t = 0.2,
  // so requests 2..4 are sent late; each reply takes 0.01 s after its
  // send. Latency counts the stall, lag reports it.
  const Schedule s({{10, 1.0}, {10, 1.0}});
  std::vector<double> sent(s.size()), done(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    sent[i] = std::max(s.due(i), (i >= 2 && i <= 4) ? 0.5 : 0.0);
    done[i] = sent[i] + 0.01;
  }
  done[19] = -1.0;  // never answered
  const StepSummary low = summarize_step(s, 0, sent, done);
  EXPECT_EQ(low.offered, 10u);
  EXPECT_EQ(low.replied, 10u);
  EXPECT_NEAR(low.lag_ms[2], 300.0, 1e-9);
  EXPECT_NEAR(low.latency_ms[2], 310.0, 1e-9);
  EXPECT_NEAR(low.latency_ms[4], 110.0, 1e-9);
  EXPECT_NEAR(median(low.latency_ms), 10.0, 1e-9);
  EXPECT_EQ(low.in_flight_end, 0u);
  EXPECT_DOUBLE_EQ(low.completed_per_s, 10.0);

  const StepSummary over = summarize_step(s, 1, sent, done);
  EXPECT_EQ(over.replied, 9u);
  EXPECT_EQ(over.in_flight_end, 1u);  // request 19 is still outstanding
}

TEST(Schedule, BacklogAtStepEndCountsLateReplies) {
  const Schedule s({{100, 1.0}});
  std::vector<double> sent(s.size()), done(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    sent[i] = s.due(i);
    done[i] = 0.02 * static_cast<double>(i + 1);  // capacity: 50 req/s
  }
  const StepSummary st = summarize_step(s, 0, sent, done);
  EXPECT_EQ(st.in_flight_end, 51u);  // replies 50..100 land at t >= 1
  EXPECT_DOUBLE_EQ(st.completed_per_s, 49.0);
}

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyondIt) {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  Tail t = tail_percentile(xs);
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);

  xs.resize(999);  // p99 would leave only 9 beyond: fall back to p95
  t = tail_percentile(xs);
  EXPECT_DOUBLE_EQ(t.q, 0.95);
  EXPECT_DOUBLE_EQ(t.value, 950.0);
  EXPECT_EQ(t.beyond, 49u);

  xs.resize(40);  // only the median has ten beyond it
  t = tail_percentile(xs);
  EXPECT_DOUBLE_EQ(t.q, 0.75);
  EXPECT_EQ(t.beyond, 10u);

  xs.resize(15);  // nothing qualifies: the median, with its count
  t = tail_percentile(xs);
  EXPECT_DOUBLE_EQ(t.q, 0.5);
  EXPECT_EQ(t.samples, 15u);
  EXPECT_LT(t.beyond, 10u);
}

TEST(Tracer, SelfTimeSubtractsSameThreadChildrenOnly) {
  tracer::clear();
  tracer::set_enabled(true);
  const std::int64_t root = tracer::record("a.root", 0.0, 1.0, -1, 0);
  tracer::record("b.child", 0.2, 0.5, root, 0);
  tracer::set_enabled(false);
  const auto spans = tracer::collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  const auto self = tracer::self_time_by_layer(spans);
  ASSERT_EQ(self.size(), 2u);
  EXPECT_NEAR(self[0].second, 0.7, 1e-12);  // layer "a"
  EXPECT_NEAR(self[1].second, 0.3, 1e-12);  // layer "b"
  tracer::clear();
}

TEST(Tracer, PhaseCoverageCountsLayerTimeOnEveryActiveThread) {
  // A 1 s phase on thread 0 that ran layer spans on two threads: thread 0
  // is covered for 0.6 s (two overlapping spans and one nested span count
  // once), thread 1 for 0.2 s plus the clipped 0.1 s of a span that
  // outlives the phase. A third thread that ran nothing does not count.
  const std::vector<SpanRecord> spans = {
      {"bench.phase", 0, -1, 0, 10.0, 11.0},
      {"a.x", 0, 0, 0, 10.0, 10.4},
      {"a.y", 0, 0, 0, 10.3, 10.6},
      {"b.z", 0, 1, 0, 10.1, 10.2},
      {"a.x", 1, 0, 0, 10.5, 10.7},
      {"a.x", 1, 0, 0, 10.9, 11.5},
      {"bench.other", 2, -1, 0, 10.0, 11.0},
  };
  EXPECT_NEAR(tracer::phase_coverage(spans, "bench.phase"), 0.9 / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(tracer::phase_coverage(spans, "bench.missing"), 0.0);
  const auto self = tracer::self_time_by_layer(spans);
  ASSERT_EQ(self.size(), 2u);  // no "bench" entry
  EXPECT_EQ(self[0].first, "a");
}

TEST(AttackOffline, DigestIsTheSameAtOneAndFourThreads) {
  Options options;
  options.tiny = true;
  options.seconds = 0;
  options.seed = 7;
  std::string digests[2];
  for (int i = 0; i < 2; ++i) {
    poiprivacy::common::set_default_thread_count(i == 0 ? 1 : 4);
    const Outcome out = run_attack_offline(options);
    EXPECT_TRUE(out.correct);
    digests[i] = out.digest;
  }
  poiprivacy::common::set_default_thread_count(0);
  EXPECT_FALSE(digests[0].empty());
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(AttackOffline, TracedPassReproducesTheUntracedDigest) {
  // The traced pass unrolls eval::evaluate_attack; run_attack_offline
  // fails the run if any traced round's digest differs.
  Options options;
  options.tiny = true;
  options.seconds = 0;
  options.seed = 7;
  options.trace = true;
  poiprivacy::common::set_default_thread_count(4);
  const Outcome out = run_attack_offline(options);
  poiprivacy::common::set_default_thread_count(0);
  tracer::clear();
  EXPECT_TRUE(out.correct);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_GE(out.attempted, 2u);  // at least one round per pass
}

}  // namespace
}  // namespace perfbench
