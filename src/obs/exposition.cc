#include "obs/exposition.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/logging.h"

namespace dace::obs {

namespace internal {

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_' || c == ':' || (digit && i > 0)) {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty()) out = "_";
  return out;
}

std::string EscapeHelp(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace internal

namespace {

// %.17g matches the JSON report's round-trip-exact rendering; Prometheus
// spells the non-finite values NaN / +Inf / -Inf.
void AppendValue(std::string* out, double v) {
  if (std::isnan(v)) {
    *out += "NaN";
  } else if (std::isinf(v)) {
    *out += v > 0 ? "+Inf" : "-Inf";
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out += buf;
  }
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

void AppendFamilyHeader(std::string* out, const std::string& family,
                        const std::string& raw_name, const char* kind_note,
                        const char* type) {
  *out += "# HELP " + family + " " + internal::EscapeHelp(raw_name);
  if (kind_note[0] != '\0') {
    *out += " ";
    *out += kind_note;
  }
  *out += "\n# TYPE " + family + " " + type + "\n";
}

void AppendHistogramFamily(std::string* out, const std::string& raw_name,
                           const Histogram::Snapshot& hist,
                           const char* kind_note) {
  const std::string family = internal::SanitizeMetricName(raw_name);
  AppendFamilyHeader(out, family, raw_name, kind_note, "histogram");
  uint64_t cumulative = 0;
  for (size_t i = 0; i < hist.upper_bounds.size(); ++i) {
    cumulative += hist.counts[i];
    *out += family + "_bucket{le=\"";
    AppendValue(out, hist.upper_bounds[i]);
    *out += "\"} ";
    AppendU64(out, cumulative);
    *out += "\n";
  }
  *out += family + "_bucket{le=\"+Inf\"} ";
  AppendU64(out, hist.count);
  *out += "\n" + family + "_sum ";
  AppendValue(out, hist.sum);
  *out += "\n" + family + "_count ";
  AppendU64(out, hist.count);
  *out += "\n";
}

}  // namespace

std::string RenderPrometheusText(const MetricsRegistry::Snapshot& snap) {
  std::string out;
  for (const auto& c : snap.counters) {
    const std::string family = internal::SanitizeMetricName(c.name);
    AppendFamilyHeader(&out, family, c.name, "", "counter");
    out += family + " ";
    AppendU64(&out, c.value);
    out += "\n";
  }
  for (const auto& g : snap.gauges) {
    const std::string family = internal::SanitizeMetricName(g.name);
    AppendFamilyHeader(&out, family, g.name, "", "gauge");
    out += family + " ";
    AppendValue(&out, g.value);
    out += "\n";
  }
  for (const auto& e : snap.ewmas) {
    const std::string family = internal::SanitizeMetricName(e.name);
    AppendFamilyHeader(&out, family, e.name, "(ewma)", "gauge");
    out += family + " ";
    AppendValue(&out, e.value);
    out += "\n";
  }
  for (const auto& h : snap.histograms) {
    AppendHistogramFamily(&out, h.name, h.hist, "");
  }
  for (const auto& w : snap.windowed) {
    AppendHistogramFamily(&out, w.name, w.hist, "(windowed)");
  }
  return out;
}

// ----------------------------------------------------- ExpositionServer ----

StatusOr<std::unique_ptr<ExpositionServer>> ExpositionServer::Start(
    MetricsRegistry* registry, int port) {
  DACE_CHECK(registry != nullptr);
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("metrics port out of range: " +
                                   std::to_string(port));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::Unavailable(
        "bind 127.0.0.1:" + std::to_string(port) + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) < 0) {
    const Status status =
        Status::Internal(std::string("listen(): ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const Status status =
        Status::Internal(std::string("getsockname(): ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int bound_port = static_cast<int>(ntohs(bound.sin_port));
  DACE_LOG(INFO) << "metrics exposition listening on 127.0.0.1:" << bound_port;
  return std::unique_ptr<ExpositionServer>(
      new ExpositionServer(registry, fd, bound_port));
}

ExpositionServer::ExpositionServer(MetricsRegistry* registry, int listen_fd,
                                   int port)
    : registry_(registry), listen_fd_(listen_fd), port_(port) {
  thread_ = std::thread([this] { AcceptLoop(); });
}

ExpositionServer::~ExpositionServer() {
  stop_.store(true, std::memory_order_relaxed);
  // shutdown() wakes the blocking accept(); close() alone does not on all
  // kernels.
  ::shutdown(listen_fd_, SHUT_RDWR);
  thread_.join();
  ::close(listen_fd_);
}

void ExpositionServer::AcceptLoop() {
  Counter* scrapes =
      MetricsRegistry::Default()->GetCounter("obs.exposition.scrapes");
  for (;;) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (stop_.load(std::memory_order_relaxed)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listening socket is gone
    }
    // Drain (and ignore) whatever request line the client sent; the
    // endpoint serves exactly one document.
    char request[1024];
    (void)::read(conn, request, sizeof(request));
    const std::string body = RenderPrometheusText(registry_->TakeSnapshot());
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
    // MSG_NOSIGNAL: a scraper that hangs up mid-response must cost this
    // write an EPIPE, not the whole process a SIGPIPE.
    size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n = ::send(conn, response.data() + sent,
                               response.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(conn);
    scrapes->Add(1);
  }
}

}  // namespace dace::obs
