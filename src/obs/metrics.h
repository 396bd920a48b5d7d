#ifndef DACE_OBS_METRICS_H_
#define DACE_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dace::obs {

namespace internal {

// Stable small shard index for the calling thread, assigned round-robin on
// first use. Kept inline so Counter::Add compiles down to a TLS load plus one
// relaxed fetch_add.
size_t AssignShardSlot();

inline size_t ThisThreadShard() {
  thread_local const size_t slot = AssignShardSlot();
  return slot;
}

}  // namespace internal

// Monotone event counter. Increments go to one of kShards cache-line-padded
// atomics selected by the calling thread, so concurrent writers (pool
// workers on the inference hot path) never bounce the same line; Value()
// reduces the shards. Sums are exact once writers are quiescent (joined or
// past a ParallelFor barrier) — the relaxed ordering only relaxes *when* an
// increment becomes visible, never whether it does.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    shards_[internal::ThisThreadShard() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

// Last-written (or high-water) double value. A single atomic — gauges are
// written at epoch/batch granularity, not per item, so sharding would buy
// nothing.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) {
    bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }

  // Monotone high-water mark: keeps the max of the current and new value.
  void SetMax(double v) {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (v > std::bit_cast<double>(cur) &&
           !bits_.compare_exchange_weak(cur, std::bit_cast<uint64_t>(v),
                                        std::memory_order_relaxed)) {
    }
  }

  void Add(double v) {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        cur, std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + v),
        std::memory_order_relaxed)) {
    }
  }

  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

  void Reset() { bits_.store(std::bit_cast<uint64_t>(0.0), std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

// Fixed-bucket histogram with Prometheus "le" semantics: bucket i counts
// observations v <= upper_bounds[i] (first matching bucket), plus one
// overflow bucket for v > upper_bounds.back(). Bounds are fixed at
// construction so Observe is a branch-free-ish binary search plus relaxed
// atomic adds — no locks, no allocation.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  struct Snapshot {
    std::vector<double> upper_bounds;   // finite bucket bounds
    std::vector<uint64_t> counts;       // upper_bounds.size() + 1 (overflow)
    uint64_t count = 0;                 // total observations, Σ counts
    double sum = 0.0;

    double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
    // Quantile estimate by linear interpolation inside the bucket holding
    // rank q*count. q in [0, 1]. The first bucket interpolates from 0 (all
    // tracked signals — latencies, q-errors — are non-negative); the
    // overflow bucket reports the last finite bound.
    double Quantile(double q) const;
  };

  Snapshot TakeSnapshot() const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

// Canonical bucket layouts.
// start, start*factor, ... (count values). Requires start > 0, factor > 1.
std::vector<double> ExponentialBuckets(double start, double factor, size_t count);
// Latency in microseconds: 1µs .. ~67s, powers of two (27 buckets).
std::span<const double> LatencyBucketsUs();
// Q-error (>= 1) in log-space: 1.05, 1.05*1.35^k .. ~1e4 (32 buckets).
std::span<const double> QErrorBuckets();

// Rolling-window metric types (obs/window.h); registered alongside the
// cumulative kinds but kept behind forward declarations so the hot-path
// Counter/Gauge/Histogram header stays lean.
class WindowedHistogram;
class EwmaGauge;
struct WindowConfig;

// Named metric registry. Get* registers on first use (under a mutex) and
// returns a stable pointer callers cache in a local/static handle; every
// subsequent operation on the handle is lock-free. Names are unique per
// metric kind. The process-wide Default() registry is what the run report
// (obs/report.h) snapshots; tests construct private registries.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry (leaky singleton: safe to use from atexit hooks).
  static MetricsRegistry* Default();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  // The bounds of the first registration win; later calls with the same name
  // return the existing histogram regardless of `upper_bounds`.
  Histogram* GetHistogram(std::string_view name,
                          std::span<const double> upper_bounds);
  // Rolling-window variants: bounds and window shape of the first
  // registration win, like GetHistogram / GetEwma's alpha.
  WindowedHistogram* GetWindowedHistogram(std::string_view name,
                                          std::span<const double> upper_bounds,
                                          const WindowConfig& config);
  EwmaGauge* GetEwma(std::string_view name, double alpha);

  struct Snapshot {
    struct CounterValue {
      std::string name;
      uint64_t value = 0;
    };
    struct GaugeValue {
      std::string name;
      double value = 0.0;
    };
    struct HistogramValue {
      std::string name;
      Histogram::Snapshot hist;
    };
    struct EwmaValue {
      std::string name;
      double value = 0.0;
      uint64_t count = 0;
    };
    std::vector<CounterValue> counters;      // sorted by name
    std::vector<GaugeValue> gauges;          // sorted by name
    std::vector<HistogramValue> histograms;  // sorted by name
    std::vector<HistogramValue> windowed;    // sorted by name (live merge)
    std::vector<EwmaValue> ewmas;            // sorted by name
  };

  // Point-in-time copy: taken under the registration mutex, so it contains
  // every metric registered before the call exactly once, and is immutable
  // afterwards (later Observe/Add calls do not alter a taken snapshot).
  Snapshot TakeSnapshot() const;

  // Zeroes every registered metric (registrations and cached handles stay
  // valid). Test isolation helper for code that shares Default().
  void ResetAllForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>, std::less<>>
      windowed_;
  std::map<std::string, std::unique_ptr<EwmaGauge>, std::less<>> ewmas_;
};

}  // namespace dace::obs

#endif  // DACE_OBS_METRICS_H_
