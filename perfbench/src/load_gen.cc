#include "load_gen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "bench.h"

namespace perfbench {

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConnection::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool HttpConnection::RoundTrip(const std::string& request,
                               HttpResponse* response) {
  if (fd_ < 0) return false;
  size_t written = 0;
  while (written < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + written,
                             request.size() - written, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return false;
    }
    written += static_cast<size_t>(n);
  }
  if (!ReadResponse(response)) {
    Close();
    return false;
  }
  return true;
}

bool HttpConnection::ReadResponse(HttpResponse* response) {
  char chunk[16384];
  size_t head_end = std::string::npos;
  size_t body_length = 0;
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        // Status line "HTTP/1.1 200 OK", then headers.
        const size_t space = buffer_.find(' ');
        if (space == std::string::npos || space > head_end) return false;
        response->status = std::atoi(buffer_.c_str() + space + 1);
        bool have_length = false;
        size_t line = buffer_.find("\r\n") + 2;
        while (line < head_end) {
          const size_t eol = buffer_.find("\r\n", line);
          const std::string header = buffer_.substr(line, eol - line);
          if (header.size() > 15 &&
              strncasecmp(header.c_str(), "content-length:", 15) == 0) {
            body_length = std::strtoull(header.c_str() + 15, nullptr, 10);
            have_length = true;
          }
          line = eol + 2;
        }
        if (!have_length) return false;
      }
    }
    if (head_end != std::string::npos &&
        buffer_.size() >= head_end + 4 + body_length) {
      response->body = buffer_.substr(head_end + 4, body_length);
      buffer_.erase(0, head_end + 4 + body_length);
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string BuildRequest(const std::string& method, const std::string& target,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!content_type.empty()) {
    out += "Content-Type: " + content_type + "\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  return out + body;
}

std::vector<Sample> RunPhase(std::vector<HttpConnection>* connections,
                             int port, Traffic* traffic,
                             std::vector<uint64_t>* next_seq,
                             double duration) {
  const int conns = static_cast<int>(connections->size());
  const double end = Now() + duration;
  std::vector<std::vector<Sample>> per_conn(conns);
  std::vector<std::thread> senders;
  for (int c = 0; c < conns; ++c) {
    senders.emplace_back([&, c] {
      HttpConnection& conn = (*connections)[c];
      HttpResponse response;
      for (double sent = Now(); sent < end; sent = Now()) {
        const uint64_t k = (*next_seq)[c]++;
        int kind = 0;
        const std::string& request = traffic->Request(c, k, &kind);
        const bool delivered = conn.RoundTrip(request, &response);
        const double done = Now();
        const bool ok = delivered && response.status >= 200 &&
                        response.status < 300 &&
                        traffic->Check(c, k, kind, response);
        if (!delivered) conn.Connect(port);
        per_conn[c].push_back({sent, done, kind, ok});
      }
    });
  }
  for (std::thread& t : senders) t.join();
  std::vector<Sample> all;
  for (auto& samples : per_conn) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.sent < b.sent; });
  return all;
}

std::vector<double> LatenciesUs(const std::vector<Sample>& samples,
                                int kind) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (kind >= 0 && s.kind != kind) continue;
    out.push_back(s.ok ? (s.done - s.sent) * 1e6
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

double WindowedPercentileUs(const std::vector<Sample>& samples, int kind,
                            int windows, double p) {
  if (samples.empty() || windows < 1) return 0.0;
  const double first = samples.front().sent;
  const double width =
      std::max(samples.back().sent - first, 1e-9) / windows;
  std::vector<std::vector<Sample>> slices(windows);
  for (const Sample& s : samples) {
    const int w =
        std::min(windows - 1, static_cast<int>((s.sent - first) / width));
    slices[w].push_back(s);
  }
  std::vector<double> per_slice;
  for (const auto& slice : slices) {
    const std::vector<double> latencies = LatenciesUs(slice, kind);
    if (!latencies.empty()) per_slice.push_back(Percentile(latencies, p));
  }
  return Median(per_slice);
}

}  // namespace perfbench
