// Closed-loop HTTP load generator: a few keep-alive connections, one sender
// thread each, every sender issuing its next request as soon as the last
// answer arrived. An open loop at a fixed rate measured the host instead:
// on a shared VM, waking idle vCPUs between requests cost milliseconds.
#ifndef PERFBENCH_LOAD_GEN_H_
#define PERFBENCH_LOAD_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// One blocking keep-alive HTTP/1.1 connection to 127.0.0.1. Independent
/// of the server's own client code, so the measured path is the server's
/// alone.
class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool Connect(int port);
  /// Sends `request` (a full serialized request) and reads one response.
  /// On false the connection is closed; Connect again to reuse it.
  bool RoundTrip(const std::string& request, HttpResponse* response);
  void Close();

 private:
  bool ReadResponse(HttpResponse* response);

  int fd_ = -1;
  std::string buffer_;
};

std::string BuildRequest(const std::string& method, const std::string& target,
                         const std::string& content_type,
                         const std::string& body);

/// The workload's request sequence. Sequence numbers count per connection
/// across phases, so an ordered request stream (refreshes) stays ordered.
class Traffic {
 public:
  virtual ~Traffic() = default;
  /// The k-th request of connection `conn`; `*kind` tags it for reporting.
  virtual const std::string& Request(int conn, uint64_t k, int* kind) = 0;
  /// True when `response` is the right answer to that request.
  virtual bool Check(int conn, uint64_t k, int kind,
                     const HttpResponse& response) = 0;
};

struct Sample {
  double sent;  // Request written (Now() seconds).
  double done;  // Response fully read.
  int kind;
  bool ok;
};

/// Runs one phase: every connection sends back to back for `duration`
/// seconds. Returns every sample, sorted by send time. Connections that
/// fail are reconnected for the next request.
std::vector<Sample> RunPhase(std::vector<HttpConnection>* connections,
                             int port, Traffic* traffic,
                             std::vector<uint64_t>* next_seq,
                             double duration);

/// Latency (done - sent) in µs of the samples of `kind` (-1 = all); failed
/// samples count as +infinity so they miss any limit.
std::vector<double> LatenciesUs(const std::vector<Sample>& samples, int kind);
/// Splits the samples (sorted by send time) into `windows` equal time
/// slices and returns the median over slices of each slice's p-th latency
/// percentile (kind and failure handling as in LatenciesUs). A host stall
/// then moves one slice, not the run's figure.
double WindowedPercentileUs(const std::vector<Sample>& samples, int kind,
                            int windows, double p);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_GEN_H_
