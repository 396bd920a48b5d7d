#ifndef DACE_PERFBENCH_HARNESS_H_
#define DACE_PERFBENCH_HARNESS_H_

// Helpers of the end-to-end benchmark: percentiles that refuse thin tails,
// the seeded open-loop arrival schedule and request streams, registry
// deltas, span recording with self-time accounting, and the result line.
// Apart from span recording, each is a function of its arguments (or of
// registry snapshots), so perfbench_test covers them without running a
// workload.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace dace::perfbench {

// Nearest-rank percentile: the value at rank ceil(q·n) of the sorted
// samples. Refused (kFailedPrecondition) when fewer than kMinTail samples
// lie strictly beyond that rank, because such a tail is a handful of
// outliers, not a percentile.
inline constexpr size_t kMinTail = 10;
StatusOr<double> Percentile(std::vector<double> samples, double q);

// Tail percentile robust to rare stalls: `ordered` (samples in completion
// order) is cut into consecutive chunks of `chunk` samples (the remainder
// joins the last), Percentile(q) is taken per chunk, and the median of those
// is returned. Refused like Percentile when a chunk's tail is too thin or
// there is no complete chunk.
StatusOr<double> ChunkedPercentile(const std::vector<double>& ordered,
                                   double q, size_t chunk);

double Mean(const std::vector<double>& samples);
// exp(mean(log x)) of positive samples; 0 for an empty vector.
double GeoMean(const std::vector<double>& samples);
double Median(std::vector<double> samples);  // 0 for an empty vector

// Open-loop arrivals: due times (ns after the start) of a Poisson process
// with `rate_per_s` over `seconds`. A pure function of its arguments.
std::vector<int64_t> PoissonScheduleNs(uint64_t seed, double rate_per_s,
                                       double seconds);

// One request of a replayed stream: which tenant, and which plan of the
// plan pool.
struct StreamItem {
  uint32_t tenant = 0;
  uint32_t plan = 0;
};

// Request stream over `tenants` tenants and a pool of `pool_size` plans:
// the tenant of each request is drawn from the seed, and each tenant walks
// its own seeded permutation of the pool cyclically. A plan therefore recurs
// for a tenant only after every other pool plan was requested by that tenant
// once — its reuse distance is pool_size - 1 other plans.
std::vector<StreamItem> CyclicStream(uint64_t seed, size_t count, int tenants,
                                     size_t pool_size);

// Smallest number of other requests of the same tenant between two
// requests of one (tenant, plan); SIZE_MAX when nothing recurs.
size_t MinReuseDistance(const std::vector<StreamItem>& stream, int tenants);

// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 characters.
bool ValidMetricName(std::string_view name);

// ------------------------------------------------------ registry deltas ----

// Change of a monotone counter between two readings. A reading below the
// earlier one means the registry was reset in between, and the later value
// is then the whole count since the reset.
uint64_t CounterDelta(uint64_t before, uint64_t after);

// Per-bucket change of a histogram, with the same reset rule (a total count
// below the earlier one).
obs::Histogram::Snapshot HistogramDelta(const obs::Histogram::Snapshot& before,
                                        const obs::Histogram::Snapshot& after);

// The registry's counters and histograms over a window of one or more
// intervals: each Begin()/End() pair adds that interval's deltas, so a
// window can skip what runs between its intervals. Missing names read as
// zero / empty.
class RegistryWindow {
 public:
  explicit RegistryWindow(const obs::MetricsRegistry* registry)
      : registry_(registry) {}

  void Begin() { before_ = registry_->TakeSnapshot(); }
  void End();

  uint64_t Counter(std::string_view name) const;
  obs::Histogram::Snapshot Histogram(std::string_view name) const;
  double Gauge(std::string_view name) const;  // value at the last End()

 private:
  const obs::MetricsRegistry* registry_;
  obs::MetricsRegistry::Snapshot before_;
  obs::MetricsRegistry::Snapshot last_;
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, obs::Histogram::Snapshot, std::less<>> histograms_;
};

// --------------------------------------------------------------- spans ----

// A harness span: the obs/trace.h span (so it lands in the Chrome trace next
// to the library's own spans) plus the request id the library span cannot
// carry. Recorded only while tracing is enabled; kept in per-thread memory
// and written out once at exit.
struct SpanRecord {
  const char* name = nullptr;
  uint64_t id = 0;  // request / query / cycle id; spans of one request share it
  uint64_t begin_us = 0;
  uint64_t dur_us = 0;
  uint32_t thread = 0;
};

class SpanLog {
 public:
  static SpanLog* Default();
  void Append(std::vector<SpanRecord>* records);  // moves a thread's records
  std::vector<SpanRecord> Take();

 private:
  std::mutex mu_;
  std::vector<SpanRecord> records_;
};

class Span {
 public:
  Span(const char* name, uint64_t id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  obs::TraceSpan trace_;
  const char* name_;
  uint64_t id_;
  uint64_t begin_us_ = 0;
  bool on_ = false;
};

// Moves the calling thread's buffered span records into SpanLog::Default().
// Every thread that opened a Span calls it before it exits.
void FlushThreadSpans();

// Keeps every trace event of a run: copies the collector's retained events
// into memory every `period` and clears it, so the per-thread rings
// (obs::TraceBuffer::kCapacity events) do not wrap during a traced phase.
// An event a thread records between one drain's copy and its clear is lost;
// with a few hundred events per ring per period, that window is microseconds.
class TraceDrain {
 public:
  explicit TraceDrain(std::chrono::milliseconds period);
  ~TraceDrain();
  TraceDrain(const TraceDrain&) = delete;
  TraceDrain& operator=(const TraceDrain&) = delete;

  // Stops the drain thread, drains once more and returns every event.
  std::vector<obs::TraceEvent> Finish();

 private:
  void DrainOnce();

  const std::chrono::milliseconds period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<obs::TraceEvent> events_;
  std::thread thread_;  // last: starts after the members it uses
};

// Self time per span name over trace events: a span's duration minus the
// part covered by its direct children (events of the same thread, one level
// deeper, inside its interval). Sorted by total self time, largest first.
struct SelfTime {
  std::string name;
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::vector<SelfTime> SelfTimes(std::vector<obs::TraceEvent> events);

// ---------------------------------------------------------- result line ----

struct Metric {
  double value = 0.0;
  std::string unit;
};

// The benchmark's last output line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics);

}  // namespace dace::perfbench

#endif  // DACE_PERFBENCH_HARNESS_H_
