// Prometheus text exposition: the renderer's output format is pinned by a
// golden test (name sanitization, HELP escaping, cumulative `le` buckets
// with +Inf, deterministic kind-then-name ordering), and the TCP endpoint
// is exercised end to end with a raw-socket scrape — the same thing
// `curl localhost:PORT/metrics` or a Prometheus scrape job does — both on a
// hand-built registry and on the process registry of a live
// EstimatorService under tracked-estimate and feedback load.

#include "obs/exposition.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/window.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "util/file_io.h"

namespace dace::obs {
namespace {

TEST(SanitizeTest, MapsIllegalBytesToUnderscore) {
  EXPECT_EQ(internal::SanitizeMetricName("serve.request.latency_us"),
            "serve_request_latency_us");
  EXPECT_EQ(internal::SanitizeMetricName("drift.tenant-0.alarms"),
            "drift_tenant_0_alarms");
  EXPECT_EQ(internal::SanitizeMetricName("a:b_c9"), "a:b_c9");  // legal as-is
  EXPECT_EQ(internal::SanitizeMetricName("9lives"), "_lives");  // leading digit
  EXPECT_EQ(internal::SanitizeMetricName(""), "_");
}

TEST(SanitizeTest, EscapesHelpText) {
  EXPECT_EQ(internal::EscapeHelp("a\\b\nc"), "a\\\\b\\nc");
  EXPECT_EQ(internal::EscapeHelp("plain"), "plain");
}

TEST(ExpositionGoldenTest, RendersSnapshotByteExactly) {
  MetricsRegistry registry;
  registry.GetCounter("serve.ok")->Add(5);
  registry.GetGauge("queue.depth")->Set(3.5);
  registry.GetEwma("accuracy.t-0.ewma", 0.5)->Observe(2.0);
  const double bounds[] = {1.0, 2.5};
  Histogram* h = registry.GetHistogram("req.latency", bounds);
  h->Observe(0.5);
  h->Observe(2.0);
  h->Observe(9.0);  // overflow: in +Inf and count, not in a finite bucket
  WindowedHistogram* w =
      registry.GetWindowedHistogram("acc.window", bounds, WindowConfig{4, 2});
  w->Observe(2.0, 0);

  const std::string golden =
      "# HELP serve_ok serve.ok\n"
      "# TYPE serve_ok counter\n"
      "serve_ok 5\n"
      "# HELP queue_depth queue.depth\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 3.5\n"
      "# HELP accuracy_t_0_ewma accuracy.t-0.ewma (ewma)\n"
      "# TYPE accuracy_t_0_ewma gauge\n"
      "accuracy_t_0_ewma 2\n"
      "# HELP req_latency req.latency\n"
      "# TYPE req_latency histogram\n"
      "req_latency_bucket{le=\"1\"} 1\n"
      "req_latency_bucket{le=\"2.5\"} 2\n"
      "req_latency_bucket{le=\"+Inf\"} 3\n"
      "req_latency_sum 11.5\n"
      "req_latency_count 3\n"
      "# HELP acc_window acc.window (windowed)\n"
      "# TYPE acc_window histogram\n"
      "acc_window_bucket{le=\"1\"} 0\n"
      "acc_window_bucket{le=\"2.5\"} 1\n"
      "acc_window_bucket{le=\"+Inf\"} 1\n"
      "acc_window_sum 2\n"
      "acc_window_count 1\n";
  EXPECT_EQ(RenderPrometheusText(registry.TakeSnapshot()), golden);
  // Determinism: a second render of the same state is byte-identical.
  EXPECT_EQ(RenderPrometheusText(registry.TakeSnapshot()), golden);
}

// Connects to the loopback endpoint and sends one HTTP/1.0 request; returns
// the socket, or -1 after recording a failure.
int SendRequest(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed";
    return -1;
  }
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::write(fd, request, sizeof(request) - 1),
            static_cast<ssize_t>(sizeof(request) - 1));
  return fd;
}

// One manual HTTP/1.0 scrape over a fresh socket.
std::string ScrapeOnce(int port) {
  const int fd = SendRequest(port);
  if (fd < 0) return "";
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ExpositionServerTest, ServesScrapesOverLoopback) {
  MetricsRegistry registry;
  registry.GetCounter("scrape.test.counter")->Add(42);
  auto server = ExpositionServer::Start(&registry, /*port=*/0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_GT((*server)->port(), 0);

  Counter* scrapes =
      MetricsRegistry::Default()->GetCounter("obs.exposition.scrapes");
  const uint64_t scrapes_before = scrapes->Value();

  const std::string response = ScrapeOnce((*server)->port());
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("scrape_test_counter 42"), std::string::npos);

  // A second scrape sees state mutated between scrapes.
  registry.GetCounter("scrape.test.counter")->Add(1);
  EXPECT_NE(ScrapeOnce((*server)->port()).find("scrape_test_counter 43"),
            std::string::npos);
  EXPECT_EQ(scrapes->Value(), scrapes_before + 2);
  // Destructor stops the accept loop and joins (hangs here = bug).
}

TEST(ExpositionServerTest, RefusesOutOfRangePort) {
  MetricsRegistry registry;
  EXPECT_FALSE(ExpositionServer::Start(&registry, 70000).ok());
  EXPECT_FALSE(ExpositionServer::Start(&registry, -1).ok());
}

// A scraper that closes its socket without reading must not take the
// process down: the server's write into the dead connection has to fail
// with EPIPE instead of raising SIGPIPE. 20,000 counters make the body
// (about 2.9 MB) far larger than the socket buffers, so the server is still
// writing when each peer is gone.
TEST(ExpositionServerTest, ClientHangUpDoesNotKillTheProcess) {
  MetricsRegistry registry;
  for (int i = 0; i < 20000; ++i) {
    registry.GetCounter("hangup.counter." + std::to_string(i))->Add(i);
  }
  auto server = ExpositionServer::Start(&registry, /*port=*/0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (int i = 0; i < 8; ++i) {
    const int fd = SendRequest((*server)->port());
    ASSERT_GE(fd, 0);
    ::close(fd);
  }
  const std::string response = ScrapeOnce((*server)->port());
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("\nhangup_counter_19999 19999\n"),
            std::string::npos);
}

// One scrape as a Prometheus text reader sees it.
struct Exposition {
  std::vector<std::string> malformed;  // sample lines outside the grammar
  std::set<std::string> help_names, type_names;
  std::map<std::string, double> samples;  // unlabelled samples by name
  // `<family>_bucket` -> (le, cumulative count), in render order.
  std::map<std::string, std::vector<std::pair<std::string, double>>> buckets;
};

// Checks the status line and Content-Length and returns the body.
std::string BodyOf(const std::string& response) {
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  const size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) {
    ADD_FAILURE() << "response has no header terminator";
    return "";
  }
  std::string body = response.substr(split + 4);
  EXPECT_NE(response.find("\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n"),
            std::string::npos);
  return body;
}

Exposition ParseExposition(const std::string& body) {
  // `name{le="..."}? value` — the only sample shape the renderer emits.
  static const std::regex kSample(
      R"([a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? )"
      R"((-?\d+(\.\d+)?([eE][+-]?\d+)?|NaN|\+Inf|-Inf))");
  Exposition out;
  size_t begin = 0;
  while (begin < body.size()) {
    size_t end = body.find('\n', begin);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const size_t name_end = line.find(' ', 7);
      (line[2] == 'H' ? out.help_names : out.type_names)
          .insert(line.substr(7, name_end - 7));
      continue;
    }
    if (!std::regex_match(line, kSample)) {
      out.malformed.push_back(line);
      continue;
    }
    const size_t value_at = line.rfind(' ') + 1;
    const double value = std::strtod(line.c_str() + value_at, nullptr);
    const size_t brace = line.find('{');
    if (brace == std::string::npos) {
      out.samples[line.substr(0, value_at - 1)] = value;
    } else {
      const size_t le = brace + 5;  // past `{le="`
      out.buckets[line.substr(0, brace)].emplace_back(
          line.substr(le, line.find('"', le) - le), value);
    }
  }
  return out;
}

double SampleOr0(const Exposition& e, const std::string& name) {
  const auto it = e.samples.find(name);
  return it == e.samples.end() ? 0.0 : it->second;
}

// The live-scrape check on a served tenant: client threads run tracked
// estimates and report actuals against tenant-0 while the main thread
// scrapes. The scrape taken after they finish must be well-formed, carry
// the serving, feedback, exposition and accuracy families, and its counters
// must reconcile with the serving books and with what the clients saw.
TEST(ExpositionServerTest, ScrapeOfServedTenantsIsWellFormed) {
  const engine::Database db = engine::BuildTpchLike(23);
  const std::vector<plan::QueryPlan> plans = engine::GenerateLabeledPlans(
      db, engine::MachineM1(), engine::WorkloadKind::kComplex, 24, 3);
  core::DaceConfig config;
  config.epochs = 1;
  auto estimator = std::make_shared<core::DaceEstimator>(config);
  estimator->Train(plans);
  serve::ModelRegistry models;
  ASSERT_TRUE(models.Register("tenant-0", estimator).ok());
  serve::EstimatorService service(&models);

  auto server = ExpositionServer::Start(MetricsRegistry::Default(), 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();
  const Exposition before = ParseExposition(BodyOf(ScrapeOnce(port)));

  constexpr int kClients = 4;
  constexpr int kPerClient = 150;
  std::atomic<uint64_t> estimates{0}, joins{0};
  std::atomic<int> running{kClients};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const plan::QueryPlan& plan = plans[(7 * c + i) % plans.size()];
        auto tracked = service.EstimateTracked("tenant-0", plan);
        if (!tracked.ok()) continue;
        estimates.fetch_add(1, std::memory_order_relaxed);
        if (service
                .ReportActual("tenant-0", tracked->request_id,
                              plan.node(plan.root()).actual_time_ms)
                .ok()) {
          joins.fetch_add(1, std::memory_order_relaxed);
        }
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  int scrapes_under_load = 0;
  do {
    EXPECT_FALSE(BodyOf(ScrapeOnce(port)).empty());
    ++scrapes_under_load;
  } while (running.load(std::memory_order_acquire) > 0);
  for (std::thread& t : clients) t.join();

  const Exposition after = ParseExposition(BodyOf(ScrapeOnce(port)));
  EXPECT_TRUE(after.malformed.empty())
      << after.malformed.size() << " malformed sample line(s), first: "
      << (after.malformed.empty() ? "" : after.malformed.front());
  EXPECT_FALSE(after.type_names.empty());
  EXPECT_EQ(after.help_names, after.type_names);
  for (const auto& [name, series] : after.buckets) {
    ASSERT_FALSE(series.empty()) << name;
    for (size_t i = 1; i < series.size(); ++i) {
      EXPECT_LE(series[i - 1].second, series[i].second)
          << name << " is not cumulative at le=" << series[i].first;
    }
    EXPECT_EQ(series.back().first, "+Inf") << name;
  }
  for (const char* family :
       {"serve_feedback_predictions", "serve_feedback_joined",
        "serve_requests", "obs_exposition_scrapes"}) {
    EXPECT_TRUE(after.type_names.count(family) && after.samples.count(family))
        << "family missing from the scrape: " << family;
  }
  EXPECT_TRUE(after.buckets.count("accuracy_tenant_0_qerror_window_bucket"))
      << "tenant-0 accuracy window missing from the scrape";

  // The serving books, read from the scrape: every request resolved once.
  EXPECT_EQ(SampleOr0(after, "serve_ok") +
                SampleOr0(after, "serve_admission_rejected") +
                SampleOr0(after, "serve_deadline_missed"),
            SampleOr0(after, "serve_requests"));
  const auto delta = [&](const char* name) {
    return SampleOr0(after, name) - SampleOr0(before, name);
  };
  EXPECT_EQ(delta("serve_requests"), kClients * kPerClient);
  EXPECT_EQ(delta("serve_ok"), static_cast<double>(estimates.load()));
  EXPECT_EQ(delta("serve_feedback_predictions"),
            static_cast<double>(estimates.load()));
  EXPECT_GT(joins.load(), 0u);
  EXPECT_EQ(delta("serve_feedback_joined"), static_cast<double>(joins.load()));
  // Every earlier scrape is counted once the server has answered it; this
  // one is counted after its snapshot was taken.
  EXPECT_EQ(delta("obs_exposition_scrapes"), 1.0 + scrapes_under_load);
}

TEST(MetricsReportTest, WriteMetricsReportReturnsTypedErrors) {
  EXPECT_FALSE(WriteMetricsReport("").ok());
  EXPECT_FALSE(WriteMetricsReport("/nonexistent-dir/metrics.json").ok());
  const std::string path = ::testing::TempDir() + "/report_ok_metrics.json";
  EXPECT_TRUE(WriteMetricsReport(path).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_NE(contents.find("\"records\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dace::obs
