#ifndef DACE_OBS_EXPOSITION_H_
#define DACE_OBS_EXPOSITION_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/status.h"

namespace dace::obs {

// Renders a registry snapshot in the Prometheus text exposition format
// (version 0.0.4): counters, gauges, EWMA gauges (exposed as gauges),
// cumulative histograms, then windowed histograms (exposed as histograms
// over the live rolling window — their counts may shrink between scrapes,
// which Prometheus tolerates on gauge-like series and our own scrape
// validation accepts). Each family gets deterministic `# HELP` (the
// original dotted metric name, escaped) and `# TYPE` lines; families are
// ordered by kind then name, so two renders of the same snapshot are
// byte-identical (the golden test pins this).
std::string RenderPrometheusText(const MetricsRegistry::Snapshot& snap);

namespace internal {
// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; every other byte
// maps to '_' (the dotted registry names become underscored families).
std::string SanitizeMetricName(std::string_view name);
// HELP text escaping: backslash and newline.
std::string EscapeHelp(std::string_view text);
}  // namespace internal

// Minimal blocking pull endpoint: one thread accepts loopback TCP
// connections and answers every request with an HTTP/1.0 200 carrying
// RenderPrometheusText of a fresh registry snapshot — enough for
// `curl localhost:PORT/metrics` or a Prometheus scrape job, with no HTTP
// library dependency. Each scrape takes the registry snapshot at accept
// time, so a scrape observes every metric registered before it exactly
// once. Counts scrapes in "obs.exposition.scrapes".
class ExpositionServer {
 public:
  // Binds 127.0.0.1:port (port 0 = kernel-assigned, see port()) and starts
  // the accept thread. The registry pointer must outlive the server.
  static StatusOr<std::unique_ptr<ExpositionServer>> Start(
      MetricsRegistry* registry, int port);

  ~ExpositionServer();  // stops accepting and joins the thread

  ExpositionServer(const ExpositionServer&) = delete;
  ExpositionServer& operator=(const ExpositionServer&) = delete;

  int port() const { return port_; }

 private:
  ExpositionServer(MetricsRegistry* registry, int listen_fd, int port);
  void AcceptLoop();

  MetricsRegistry* const registry_;
  const int listen_fd_;
  const int port_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace dace::obs

#endif  // DACE_OBS_EXPOSITION_H_
