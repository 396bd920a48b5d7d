// Self-tests of the benchmark harness (perfbench/harness.h). run.py runs
// them before every measurement: a harness that miscounts is refused before
// it can report a number.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dace::perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, NearestRankWithTenBeyond) {
  // 1..20: p50 is rank 10, with 10 samples beyond it.
  const auto p50 = Percentile(Iota(20), 0.5);
  ASSERT_TRUE(p50.ok());
  EXPECT_EQ(*p50, 10.0);
  // 1..1000: p99 is rank 990, exactly 10 beyond.
  const auto p99 = Percentile(Iota(1000), 0.99);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(*p99, 990.0);
}

TEST(PercentileTest, RefusesThinTails) {
  EXPECT_FALSE(Percentile(Iota(19), 0.5).ok());    // 9 beyond rank 10
  EXPECT_FALSE(Percentile(Iota(999), 0.99).ok());  // 9 beyond rank 990
  EXPECT_FALSE(Percentile({}, 0.5).ok());
  EXPECT_FALSE(Percentile(Iota(100), 1.0).ok());
  EXPECT_EQ(Percentile(Iota(999), 0.99).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PercentileTest, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = Iota(200);
  std::vector<double> r(v.rbegin(), v.rend());
  EXPECT_EQ(*Percentile(v, 0.9), *Percentile(r, 0.9));
}

TEST(PercentileTest, ChunkedIgnoresARareStall) {
  // Five chunks of 1..1000 (p99 = 990 each); one chunk holds a stall.
  std::vector<double> v;
  for (int c = 0; c < 5; ++c) {
    const std::vector<double> chunk = Iota(1000);
    v.insert(v.end(), chunk.begin(), chunk.end());
  }
  for (size_t i = 2000; i < 2050; ++i) v[i] = 1e6;
  EXPECT_EQ(*ChunkedPercentile(v, 0.99, 1000), 990.0);
  EXPECT_GT(*Percentile(v, 0.99), 990.0);
  // The remainder joins the last chunk; too few samples are refused.
  v.resize(5500);
  EXPECT_TRUE(ChunkedPercentile(v, 0.99, 1000).ok());
  EXPECT_FALSE(ChunkedPercentile(Iota(999), 0.99, 1000).ok());
  EXPECT_FALSE(ChunkedPercentile(Iota(5000), 0.99, 500).ok());  // 5 beyond
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  EXPECT_EQ(PoissonScheduleNs(7, 4000.0, 2.0), PoissonScheduleNs(7, 4000.0, 2.0));
}

TEST(ScheduleTest, DifferentSeedsDifferentSchedules) {
  EXPECT_NE(PoissonScheduleNs(7, 4000.0, 2.0), PoissonScheduleNs(8, 4000.0, 2.0));
}

TEST(ScheduleTest, RateAndOrder) {
  const auto due = PoissonScheduleNs(3, 4000.0, 5.0);
  // 20000 expected arrivals, sd ~141: a 5-sd window.
  EXPECT_NEAR(static_cast<double>(due.size()), 20000.0, 710.0);
  for (size_t i = 1; i < due.size(); ++i) ASSERT_GE(due[i], due[i - 1]);
  EXPECT_LT(due.back(), int64_t{5'000'000'000});
}

TEST(StreamTest, SameSeedSameStream) {
  const auto a = CyclicStream(11, 5000, 3, 700);
  const auto b = CyclicStream(11, 5000, 3, 700);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].tenant, b[i].tenant);
    ASSERT_EQ(a[i].plan, b[i].plan);
  }
  const auto c = CyclicStream(12, 5000, 3, 700);
  bool differs = false;
  for (size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].tenant != c[i].tenant || a[i].plan != c[i].plan;
  }
  EXPECT_TRUE(differs);
}

// The serve_miss property: with a pool larger than the 4096-entry
// prediction cache, no plan recurs within 4096 requests of its tenant, so
// an LRU of that capacity never hits.
TEST(StreamTest, MissStreamNeverReusesWithinCacheCapacity) {
  const size_t kCacheCapacity = 4096;
  const size_t pool = kCacheCapacity + 512;
  const auto stream = CyclicStream(5, 60000, 3, pool);
  const size_t d = MinReuseDistance(stream, 3);
  EXPECT_GT(d, kCacheCapacity);
  EXPECT_EQ(d, pool - 1);
}

TEST(StreamTest, ReuseDistanceOfAKnownStream) {
  const std::vector<StreamItem> s = {{0, 1}, {1, 1}, {0, 2}, {0, 1}, {1, 1}};
  EXPECT_EQ(MinReuseDistance(s, 2), 0u);  // tenant 1 repeats back to back
  const std::vector<StreamItem> t = {{0, 1}, {0, 2}, {0, 3}, {0, 1}};
  EXPECT_EQ(MinReuseDistance(t, 1), 2u);
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(ValidMetricName("latency_p50_us"));
  EXPECT_TRUE(ValidMetricName("core.predict_us_per_plan.b64"));
  EXPECT_TRUE(ValidMetricName("obs.trace-overhead"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("µs"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(RegistryDeltaTest, CounterAcrossReset) {
  EXPECT_EQ(CounterDelta(10, 25), 15u);
  EXPECT_EQ(CounterDelta(10, 10), 0u);
  // Reset between the readings: the later value is the count since.
  EXPECT_EQ(CounterDelta(10, 4), 4u);
}

TEST(RegistryDeltaTest, WindowOverAPrivateRegistry) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("x.count");
  obs::Histogram* h = registry.GetHistogram("x.latency_us",
                                            obs::LatencyBucketsUs());
  c->Add(5);
  h->Observe(3.0);
  RegistryWindow window(&registry);
  window.Begin();
  c->Add(7);
  h->Observe(100.0);
  h->Observe(200.0);
  window.End();
  EXPECT_EQ(window.Counter("x.count"), 7u);
  EXPECT_EQ(window.Counter("missing"), 0u);
  const auto d = window.Histogram("x.latency_us");
  EXPECT_EQ(d.count, 2u);
  EXPECT_DOUBLE_EQ(d.sum, 300.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 150.0);

  // A second interval adds its deltas; what runs between is skipped.
  c->Add(100);
  h->Observe(1000.0);
  window.Begin();
  c->Add(1);
  h->Observe(50.0);
  window.End();
  EXPECT_EQ(window.Counter("x.count"), 8u);
  EXPECT_EQ(window.Histogram("x.latency_us").count, 3u);
  EXPECT_DOUBLE_EQ(window.Histogram("x.latency_us").sum, 350.0);
}

TEST(RegistryDeltaTest, WindowAcrossAReset) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("x.count");
  obs::Histogram* h = registry.GetHistogram("x.latency_us",
                                            obs::LatencyBucketsUs());
  c->Add(10);
  h->Observe(3.0);
  h->Observe(4.0);
  RegistryWindow window(&registry);
  window.Begin();
  c->Add(3);
  registry.ResetAllForTest();
  c->Add(2);
  h->Observe(8.0);
  window.End();
  // Deltas count from the reset.
  EXPECT_EQ(window.Counter("x.count"), 2u);
  EXPECT_EQ(window.Histogram("x.latency_us").count, 1u);
  EXPECT_DOUBLE_EQ(window.Histogram("x.latency_us").sum, 8.0);
}

TEST(SelfTimeTest, ChildrenAreSubtracted) {
  std::vector<obs::TraceEvent> ev = {
      {"parent", 100, 50, 0, 0},
      {"child", 110, 10, 0, 1},
      {"child", 130, 15, 0, 1},
      {"grandchild", 131, 5, 0, 2},
      {"other_thread", 100, 40, 1, 0},
  };
  const auto st = SelfTimes(ev);
  const auto find = [&](const std::string& n) {
    for (const auto& s : st) {
      if (s.name == n) return s;
    }
    return SelfTime{};
  };
  EXPECT_DOUBLE_EQ(find("parent").self_us, 25.0);
  EXPECT_DOUBLE_EQ(find("child").self_us, 20.0);
  EXPECT_EQ(find("child").count, 2u);
  EXPECT_DOUBLE_EQ(find("grandchild").self_us, 5.0);
  EXPECT_DOUBLE_EQ(find("other_thread").self_us, 40.0);
}

TEST(ResultJsonTest, Shape) {
  const std::string line =
      ResultJson(true, 10, 0, {{"a_us", {1.5, "us"}}, {"b", {2.0, "s"}}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}, "
            "\"b\": {\"value\": 2, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace dace::perfbench
