#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/window.h"
#include "util/logging.h"

namespace dace::obs {

namespace internal {

size_t AssignShardSlot() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

// ----------------------------------------------------------- Histogram ----

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()),
      buckets_(new std::atomic<uint64_t>[upper_bounds.size() + 1]) {
  DACE_CHECK(!bounds_.empty());
  DACE_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double v) {
  // First bucket whose upper bound is >= v; everything past the last bound
  // lands in the overflow bucket.
  const size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  s.upper_bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  // The total is the bucket sum: a total counted beside the buckets can be
  // read out of step with them while Observe runs, and would then render a
  // +Inf bucket below the last finite one.
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.counts[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i == upper_bounds.size()) return upper_bounds.back();  // overflow
      const double lo = i == 0 ? 0.0 : upper_bounds[i - 1];
      const double hi = upper_bounds[i];
      const double frac =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return upper_bounds.back();
}

// ------------------------------------------------------ bucket layouts ----

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  DACE_CHECK_GT(start, 0.0);
  DACE_CHECK_GT(factor, 1.0);
  DACE_CHECK_GT(count, 0u);
  std::vector<double> bounds(count);
  double v = start;
  for (size_t i = 0; i < count; ++i, v *= factor) bounds[i] = v;
  return bounds;
}

std::span<const double> LatencyBucketsUs() {
  static const std::vector<double>* buckets =
      new std::vector<double>(ExponentialBuckets(1.0, 2.0, 27));
  return *buckets;
}

std::span<const double> QErrorBuckets() {
  static const std::vector<double>* buckets =
      new std::vector<double>(ExponentialBuckets(1.05, 1.35, 32));
  return *buckets;
}

// ----------------------------------------------------- MetricsRegistry ----

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::span<const double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds))
             .first;
  }
  return it->second.get();
}

WindowedHistogram* MetricsRegistry::GetWindowedHistogram(
    std::string_view name, std::span<const double> upper_bounds,
    const WindowConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = windowed_.find(name);
  if (it == windowed_.end()) {
    it = windowed_
             .emplace(std::string(name),
                      std::make_unique<WindowedHistogram>(upper_bounds, config))
             .first;
  }
  return it->second.get();
}

EwmaGauge* MetricsRegistry::GetEwma(std::string_view name, double alpha) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ewmas_.find(name);
  if (it == ewmas_.end()) {
    it = ewmas_.emplace(std::string(name), std::make_unique<EwmaGauge>(alpha))
             .first;
  }
  return it->second.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.push_back({name, hist->TakeSnapshot()});
  }
  snap.windowed.reserve(windowed_.size());
  for (const auto& [name, win] : windowed_) {
    snap.windowed.push_back({name, win->TakeSnapshot()});
  }
  snap.ewmas.reserve(ewmas_.size());
  for (const auto& [name, ewma] : ewmas_) {
    snap.ewmas.push_back({name, ewma->Value(), ewma->Count()});
  }
  return snap;
}

void MetricsRegistry::ResetAllForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
  for (auto& [name, win] : windowed_) win->Reset();
  for (auto& [name, ewma] : ewmas_) ewma->Reset();
}

}  // namespace dace::obs
