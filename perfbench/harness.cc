#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "util/rng.h"
#include "util/strings.h"

namespace dace::perfbench {

StatusOr<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) {
    return Status::InvalidArgument("percentile of an empty sample");
  }
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  if (n - rank < kMinTail) {
    return Status::FailedPrecondition(
        StrFormat("p%g of %zu samples has %zu beyond it (need %zu)",
                  q * 100.0, n, n - rank, kMinTail));
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

StatusOr<double> ChunkedPercentile(const std::vector<double>& ordered,
                                   double q, size_t chunk) {
  const size_t chunks = chunk == 0 ? 0 : ordered.size() / chunk;
  if (chunks == 0) {
    return Status::FailedPrecondition(
        StrFormat("%zu samples make no chunk of %zu", ordered.size(), chunk));
  }
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    const auto first = ordered.begin() + static_cast<ptrdiff_t>(c * chunk);
    const auto last = c + 1 == chunks ? ordered.end() : first + static_cast<ptrdiff_t>(chunk);
    const auto p = Percentile(std::vector<double>(first, last), q);
    if (!p.ok()) return p.status();
    per_chunk.push_back(*p);
  }
  return Median(std::move(per_chunk));
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double GeoMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : samples) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<int64_t> PoissonScheduleNs(uint64_t seed, double rate_per_s,
                                       double seconds) {
  std::vector<int64_t> due;
  if (!(rate_per_s > 0.0) || !(seconds > 0.0)) return due;
  due.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  Rng rng(HashCombine(seed, 0xa771a1));
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

std::vector<StreamItem> CyclicStream(uint64_t seed, size_t count, int tenants,
                                     size_t pool_size) {
  std::vector<StreamItem> stream;
  if (tenants <= 0 || pool_size == 0) return stream;
  std::vector<std::vector<uint32_t>> perm(static_cast<size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    auto& p = perm[static_cast<size_t>(t)];
    p.resize(pool_size);
    std::iota(p.begin(), p.end(), 0u);
    Rng shuffle(HashCombine(seed, 0x5e11 + static_cast<uint64_t>(t)));
    for (size_t i = pool_size - 1; i > 0; --i) {
      const size_t j = static_cast<size_t>(
          shuffle.UniformInt(0, static_cast<int64_t>(i)));
      std::swap(p[i], p[j]);
    }
  }
  std::vector<size_t> next(static_cast<size_t>(tenants), 0);
  Rng pick(HashCombine(seed, 0x7e4a47));
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto t = static_cast<size_t>(pick.UniformInt(0, tenants - 1));
    stream.push_back({static_cast<uint32_t>(t),
                      perm[t][next[t]++ % pool_size]});
  }
  return stream;
}

size_t MinReuseDistance(const std::vector<StreamItem>& stream, int tenants) {
  size_t best = std::numeric_limits<size_t>::max();
  std::vector<size_t> seen(static_cast<size_t>(std::max(tenants, 0)), 0);
  std::unordered_map<uint64_t, size_t> last;  // (tenant, plan) -> position
  for (const StreamItem& item : stream) {
    const size_t k = seen[item.tenant]++;
    const uint64_t key = (static_cast<uint64_t>(item.tenant) << 32) | item.plan;
    const auto [it, fresh] = last.emplace(key, k);
    if (!fresh) {
      best = std::min(best, k - it->second - 1);
      it->second = k;
    }
  }
  return best;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// ------------------------------------------------------ registry deltas ----

uint64_t CounterDelta(uint64_t before, uint64_t after) {
  return after >= before ? after - before : after;
}

obs::Histogram::Snapshot HistogramDelta(const obs::Histogram::Snapshot& before,
                                        const obs::Histogram::Snapshot& after) {
  if (after.count < before.count ||
      before.counts.size() != after.counts.size()) {
    return after;
  }
  obs::Histogram::Snapshot d = after;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] = CounterDelta(before.counts[i], after.counts[i]);
  }
  return d;
}

namespace {

template <typename Entry>
const Entry* FindByName(const std::vector<Entry>& entries,
                        std::string_view name) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const Entry& e, std::string_view n) { return e.name < n; });
  return it != entries.end() && it->name == name ? &*it : nullptr;
}

uint64_t CounterIn(const obs::MetricsRegistry::Snapshot& s,
                   std::string_view name) {
  const auto* c = FindByName(s.counters, name);
  return c == nullptr ? 0 : c->value;
}

}  // namespace

void RegistryWindow::End() {
  last_ = registry_->TakeSnapshot();
  for (const auto& c : last_.counters) {
    counters_[c.name] += CounterDelta(CounterIn(before_, c.name), c.value);
  }
  for (const auto& h : last_.histograms) {
    const auto* b = FindByName(before_.histograms, h.name);
    const obs::Histogram::Snapshot d =
        b == nullptr ? h.hist : HistogramDelta(b->hist, h.hist);
    auto [it, fresh] = histograms_.try_emplace(h.name, d);
    if (fresh || it->second.counts.size() != d.counts.size()) continue;
    it->second.count += d.count;
    it->second.sum += d.sum;
    for (size_t i = 0; i < d.counts.size(); ++i) {
      it->second.counts[i] += d.counts[i];
    }
  }
}

uint64_t RegistryWindow::Counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

obs::Histogram::Snapshot RegistryWindow::Histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? obs::Histogram::Snapshot{} : it->second;
}

double RegistryWindow::Gauge(std::string_view name) const {
  const auto* g = FindByName(last_.gauges, name);
  return g == nullptr ? 0.0 : g->value;
}

// --------------------------------------------------------------- spans ----

namespace {

std::atomic<uint32_t> g_next_thread{0};

struct ThreadSpans {
  uint32_t thread = g_next_thread.fetch_add(1);
  std::vector<SpanRecord> records;
};

ThreadSpans& LocalSpans() {
  thread_local ThreadSpans spans;
  return spans;
}

}  // namespace

SpanLog* SpanLog::Default() {
  static SpanLog* log = new SpanLog();
  return log;
}

void SpanLog::Append(std::vector<SpanRecord>* records) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.insert(records_.end(), records->begin(), records->end());
  records->clear();
}

std::vector<SpanRecord> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(records_);
}

Span::Span(const char* name, uint64_t id)
    : trace_(name), name_(name), id_(id) {
  if (obs::TraceCollector::enabled()) {
    on_ = true;
    begin_us_ = obs::internal::TraceNowUs();
  }
}

Span::~Span() {
  if (!on_) return;
  ThreadSpans& local = LocalSpans();
  local.records.push_back({name_, id_, begin_us_,
                           obs::internal::TraceNowUs() - begin_us_,
                           local.thread});
}

void FlushThreadSpans() { SpanLog::Default()->Append(&LocalSpans().records); }

TraceDrain::TraceDrain(std::chrono::milliseconds period)
    : period_(period), thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
          DrainOnce();
        }
      }) {}

TraceDrain::~TraceDrain() { Finish(); }

std::vector<obs::TraceEvent> TraceDrain::Finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  DrainOnce();
  return std::move(events_);
}

void TraceDrain::DrainOnce() {
  obs::TraceCollector* collector = obs::TraceCollector::Default();
  const std::vector<obs::TraceEvent> events = collector->SnapshotEvents();
  collector->Clear();
  events_.insert(events_.end(), events.begin(), events.end());
}

std::vector<SelfTime> SelfTimes(std::vector<obs::TraceEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.depth < b.depth;
            });
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<size_t> open;  // stack of enclosing events on this thread
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    while (!open.empty()) {
      const obs::TraceEvent& top = events[open.back()];
      if (top.tid == e.tid && top.depth < e.depth &&
          e.ts_us + e.dur_us <= top.ts_us + top.dur_us) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty() && events[open.back()].depth + 1 == e.depth) {
      child_us[open.back()] += static_cast<double>(e.dur_us);
    }
    open.push_back(i);
  }
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < events.size(); ++i) {
    SelfTime& s = by_name[events[i].name];
    s.name = events[i].name;
    s.count += 1;
    const auto dur = static_cast<double>(events[i].dur_us);
    s.total_us += dur;
    s.self_us += std::max(0.0, dur - child_us[i]);
  }
  std::vector<SelfTime> out;
  for (auto& [name, s] : by_name) out.push_back(std::move(s));
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_us > b.self_us;
  });
  return out;
}

// ---------------------------------------------------------- result line ----

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace dace::perfbench
