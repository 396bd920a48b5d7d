#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace dace::obs {
namespace {

TEST(CounterTest, SingleThreadedSum) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  // N pool workers hammer one counter; after the ParallelFor barrier every
  // relaxed increment must be visible — sharding trades contention for a
  // reduce on read, never for lost updates.
  constexpr size_t kItems = 100000;
  constexpr uint64_t kPerItem = 3;
  for (int threads : {1, 2, 4, 8}) {
    Counter c;
    ThreadPool pool(threads);
    pool.ParallelFor(0, kItems, [&](size_t) { c.Add(kPerItem); });
    EXPECT_EQ(c.Value(), kItems * kPerItem) << "threads=" << threads;
  }
}

TEST(GaugeTest, SetMaxKeepsHighWater) {
  Gauge g;
  g.Set(5.0);
  g.SetMax(3.0);
  EXPECT_DOUBLE_EQ(g.Value(), 5.0);
  g.SetMax(9.5);
  EXPECT_DOUBLE_EQ(g.Value(), 9.5);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(g.Value(), 10.0);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), -1.0);
}

TEST(GaugeTest, ConcurrentSetMaxFindsGlobalMax) {
  Gauge g;
  ThreadPool pool(8);
  pool.ParallelFor(0, 10000, [&](size_t i) {
    g.SetMax(static_cast<double>(i));
  });
  EXPECT_DOUBLE_EQ(g.Value(), 9999.0);
}

TEST(HistogramTest, BucketBoundariesAreUpperInclusive) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  Histogram h(bounds);
  // le semantics: v <= bound lands in that bucket, v > last bound overflows.
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(1.0);   // bucket 0 (boundary is inclusive)
  h.Observe(1.01);  // bucket 1
  h.Observe(2.0);   // bucket 1
  h.Observe(4.0);   // bucket 2
  h.Observe(4.01);  // overflow
  h.Observe(1e9);   // overflow
  const Histogram::Snapshot s = h.TakeSnapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 2u);
  EXPECT_EQ(s.count, 7u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.01 + 2.0 + 4.0 + 4.01 + 1e9);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  const std::vector<double> bounds = {10.0, 20.0, 40.0};
  Histogram h(bounds);
  // 10 observations in (10, 20]: the whole distribution sits in bucket 1.
  for (int i = 0; i < 10; ++i) h.Observe(15.0);
  const Histogram::Snapshot s = h.TakeSnapshot();
  // Rank q*10 interpolates linearly across [10, 20].
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 20.0);
  EXPECT_NEAR(s.Quantile(0.1), 11.0, 1e-12);
  // Quantiles of an empty histogram are 0.
  Histogram empty(bounds);
  EXPECT_DOUBLE_EQ(empty.TakeSnapshot().Quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantileAcrossBuckets) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  Histogram h(bounds);
  for (int i = 0; i < 50; ++i) h.Observe(0.5);  // bucket 0
  for (int i = 0; i < 50; ++i) h.Observe(3.0);  // bucket 2
  const Histogram::Snapshot s = h.TakeSnapshot();
  // p25 sits mid-bucket-0 ([0,1]); p75 sits mid-bucket-2 ([2,4]).
  EXPECT_DOUBLE_EQ(s.Quantile(0.25), 0.5);
  EXPECT_DOUBLE_EQ(s.Quantile(0.75), 3.0);
  // Overflow observations clamp to the last finite bound.
  h.Observe(100.0);
  EXPECT_DOUBLE_EQ(h.TakeSnapshot().Quantile(1.0), 4.0);
}

TEST(HistogramTest, ConcurrentObservationsAllLand) {
  const std::vector<double> bounds = {0.0, 1.0, 2.0, 3.0};
  Histogram h(bounds);
  ThreadPool pool(8);
  constexpr size_t kItems = 40000;
  pool.ParallelFor(0, kItems, [&](size_t i) {
    h.Observe(static_cast<double>(i % 4));
  });
  const Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, kItems);
  for (size_t b = 0; b < 4; ++b) EXPECT_EQ(s.counts[b], kItems / 4);
  EXPECT_EQ(s.counts[4], 0u);
}

// A snapshot taken while observers run must still be a histogram: its total
// is the sum of its buckets (so the rendered +Inf bucket and _count never
// fall below the last finite bucket), and totals never go backwards. The
// observers run until every snapshot is taken, and the snapshot loop yields
// between snapshots, so snapshots land between an observer's steps.
TEST(HistogramTest, SnapshotsRacingObserversStayConsistent) {
  const std::vector<double> bounds = {1.0, 2.0, 3.0};
  Histogram h(bounds);
  constexpr int kObservers = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> observed{0};
  std::vector<std::thread> observers;
  for (int t = 0; t < kObservers; ++t) {
    observers.emplace_back([&h, &stop, &observed, t] {
      uint64_t n = 0;
      for (size_t i = static_cast<size_t>(t); !stop.load(); ++i, ++n) {
        h.Observe(static_cast<double>(i % 5));
      }
      observed.fetch_add(n);
    });
  }
  uint64_t last = 0;
  for (int snapshot = 0; snapshot < 2000; ++snapshot) {
    const Histogram::Snapshot s = h.TakeSnapshot();
    uint64_t bucket_sum = 0;
    for (const uint64_t c : s.counts) bucket_sum += c;
    EXPECT_EQ(s.count, bucket_sum) << "snapshot " << snapshot;
    EXPECT_GE(s.count, last) << "snapshot " << snapshot;
    last = s.count;
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : observers) t.join();
  EXPECT_EQ(h.TakeSnapshot().count, observed.load());
}

TEST(BucketLayoutTest, ExponentialAndCanonicalLayouts) {
  const std::vector<double> b = ExponentialBuckets(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  EXPECT_FALSE(LatencyBucketsUs().empty());
  EXPECT_FALSE(QErrorBuckets().empty());
  EXPECT_GE(QErrorBuckets().front(), 1.0);  // q-error is >= 1 by definition
}

TEST(MetricsRegistryTest, GetReturnsStableDeduplicatedHandles) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests");
  Counter* b = registry.GetCounter("requests");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("other"), a);
  Gauge* g = registry.GetGauge("depth");
  EXPECT_EQ(registry.GetGauge("depth"), g);
  const std::vector<double> bounds = {1.0, 2.0};
  Histogram* h = registry.GetHistogram("lat", bounds);
  EXPECT_EQ(registry.GetHistogram("lat", bounds), h);
}

TEST(MetricsRegistryTest, SnapshotIsConsistentPointInTime) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("events");
  Gauge* g = registry.GetGauge("loss");
  const std::vector<double> bounds = {1.0, 10.0};
  Histogram* h = registry.GetHistogram("latency", bounds);
  c->Add(7);
  g->Set(0.25);
  h->Observe(5.0);

  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  // Everything registered before the call appears exactly once...
  ASSERT_EQ(snap.counters.size(), 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "events");
  EXPECT_EQ(snap.counters[0].value, 7u);
  EXPECT_EQ(snap.gauges[0].name, "loss");
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.25);
  EXPECT_EQ(snap.histograms[0].name, "latency");
  EXPECT_EQ(snap.histograms[0].hist.count, 1u);

  // ...and the snapshot is an immutable copy: later writes and
  // registrations do not alter it.
  c->Add(100);
  g->Set(9.0);
  h->Observe(0.5);
  registry.GetCounter("late_registration");
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 7u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.25);
  EXPECT_EQ(snap.histograms[0].hist.count, 1u);
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zebra");
  registry.GetCounter("alpha");
  registry.GetCounter("middle");
  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "middle");
  EXPECT_EQ(snap.counters[2].name, "zebra");
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUse) {
  MetricsRegistry registry;
  ThreadPool pool(8);
  // Workers race to register a small set of names and bump them; handles
  // must dedupe and the totals must be exact.
  pool.ParallelFor(0, 10000, [&](size_t i) {
    registry.GetCounter(i % 2 == 0 ? "even" : "odd")->Add(1);
  });
  EXPECT_EQ(registry.GetCounter("even")->Value(), 5000u);
  EXPECT_EQ(registry.GetCounter("odd")->Value(), 5000u);
}

TEST(MetricsRegistryTest, ResetAllForTestZeroesEverything) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  const std::vector<double> bounds = {1.0};
  Histogram* h = registry.GetHistogram("h", bounds);
  c->Add(3);
  g->Set(4.0);
  h->Observe(0.5);
  registry.ResetAllForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->TakeSnapshot().count, 0u);
}

TEST(MetricsRegistryTest, DefaultIsProcessWide) {
  EXPECT_EQ(MetricsRegistry::Default(), MetricsRegistry::Default());
  Counter* c = MetricsRegistry::Default()->GetCounter("metrics_test.probe");
  const uint64_t before = c->Value();
  c->Add(1);
  EXPECT_EQ(c->Value(), before + 1);
}

}  // namespace
}  // namespace dace::obs
