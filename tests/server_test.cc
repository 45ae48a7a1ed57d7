// The HTTP serving subsystem end to end over loopback: the wire protocol
// (parser, payload codecs, status mapping), retry/backoff policy, and the
// live server — bit-identical assignment against the offline engine,
// atomic reload under concurrent load, deadline expiry as 504, admission
// control shedding, online refresh, and graceful drain. Failure paths are
// driven through the fault-injection registry (model.load, server.reload,
// server.accept, serve.refresh, assign.batch).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dbsvec.h"
#include "data/synthetic.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "model/dbsvec_model.h"
#include "serve/assignment_engine.h"
#include "server/http.h"
#include "server/http_client.h"
#include "server/payload.h"
#include "server/retry.h"
#include "server/server.h"

namespace dbsvec {
namespace {

using server::HttpClient;
using server::HttpParser;
using server::HttpRequest;
using server::HttpResponse;
using server::PayloadEncoding;
using server::RetryOptions;
using server::RetryPolicy;
using server::RetryReport;
using server::Server;
using server::ServerOptions;

// ---------------------------------------------------------------------------
// HTTP parser + serializer

TEST(HttpParserTest, ParsesSplitAndPipelinedRequests) {
  HttpParser parser(1 << 20);
  const std::string wire =
      "POST /v1/assign HTTP/1.1\r\nContent-Type: application/json\r\n"
      "Content-Length: 5\r\n\r\nhello"
      "GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  // Byte-at-a-time delivery must parse identically to one big read.
  for (const char byte : wire) {
    ASSERT_TRUE(parser.Feed(std::string_view(&byte, 1)).ok());
  }
  HttpRequest first;
  ASSERT_TRUE(parser.Next(&first));
  EXPECT_EQ(first.method, "POST");
  EXPECT_EQ(first.target, "/v1/assign");
  EXPECT_EQ(first.body, "hello");
  EXPECT_EQ(first.Header("content-type"), "application/json");
  EXPECT_TRUE(first.keep_alive);
  HttpRequest second;
  ASSERT_TRUE(parser.Next(&second));
  EXPECT_EQ(second.method, "GET");
  EXPECT_EQ(second.target, "/v1/healthz");
  EXPECT_TRUE(second.body.empty());
  EXPECT_FALSE(second.keep_alive);
  HttpRequest none;
  EXPECT_FALSE(parser.Next(&none));
}

TEST(HttpParserTest, RejectsChunkedAndOversizedBodies) {
  HttpParser chunked(1 << 20);
  const Status chunked_status = chunked.Feed(
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(chunked_status.code(), Status::Code::kInvalidArgument);

  HttpParser small(16);
  const Status big_status =
      small.Feed("POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
  EXPECT_EQ(big_status.code(), Status::Code::kResourceExhausted);
}

TEST(HttpTest, StatusMappingMatchesWireProtocol) {
  EXPECT_EQ(server::HttpStatusFromStatus(Status::Ok()), 200);
  EXPECT_EQ(server::HttpStatusFromStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(server::HttpStatusFromStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(server::HttpStatusFromStatus(Status::FailedPrecondition("x")),
            412);
  EXPECT_EQ(server::HttpStatusFromStatus(Status::DeadlineExceeded("x")), 504);
  EXPECT_EQ(server::HttpStatusFromStatus(Status::IoError("x")), 503);
  EXPECT_EQ(server::HttpStatusFromStatus(Status::ResourceExhausted("x")),
            503);
  EXPECT_EQ(server::HttpStatusFromStatus(Status::Unavailable("x")), 503);
  EXPECT_EQ(server::HttpStatusFromStatus(Status::Internal("x")), 500);
}

// ---------------------------------------------------------------------------
// Payload codecs

TEST(PayloadTest, JsonRoundTrip) {
  Dataset points(1);
  ASSERT_TRUE(server::ParseAssignBody(
                  " {\"points\" : [[1.5, -2], [3e2, 0.25]]} ",
                  PayloadEncoding::kJson, 100, &points)
                  .ok());
  ASSERT_EQ(points.size(), 2);
  ASSERT_EQ(points.dim(), 2);
  EXPECT_DOUBLE_EQ(points.point(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(points.point(1)[0], 300.0);

  const std::string labels =
      server::EncodeAssignResponse({0, -1, 7}, PayloadEncoding::kJson);
  EXPECT_EQ(labels, "{\"labels\":[0,-1,7]}");
}

TEST(PayloadTest, JsonRejectsRaggedAndNonFinite) {
  Dataset points(1);
  EXPECT_EQ(server::ParseAssignBody("{\"points\":[[1,2],[3]]}",
                                    PayloadEncoding::kJson, 100, &points)
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server::ParseAssignBody("{\"points\":[[1,nan]]}",
                                    PayloadEncoding::kJson, 100, &points)
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server::ParseAssignBody("{\"points\":[[1],[2],[3]]}",
                                    PayloadEncoding::kJson, 2, &points)
                .code(),
            Status::Code::kResourceExhausted);
}

TEST(PayloadTest, BinaryRoundTrip) {
  // u32 count=2, u32 dim=1, then 2 doubles LE.
  std::string body;
  const auto put_u32 = [&body](uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      body.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
    }
  };
  const auto put_f64 = [&body](double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      body.push_back(static_cast<char>((bits >> (8 * b)) & 0xff));
    }
  };
  put_u32(2);
  put_u32(1);
  put_f64(0.5);
  put_f64(-4.0);
  Dataset points(1);
  ASSERT_TRUE(server::ParseAssignBody(body, PayloadEncoding::kBinary, 100,
                                      &points)
                  .ok());
  ASSERT_EQ(points.size(), 2);
  EXPECT_DOUBLE_EQ(points.point(1)[0], -4.0);

  // Truncated payload must be rejected, not read out of bounds.
  EXPECT_FALSE(server::ParseAssignBody(body.substr(0, body.size() - 1),
                                       PayloadEncoding::kBinary, 100, &points)
                   .ok());

  const std::string encoded =
      server::EncodeAssignResponse({3, -1}, PayloadEncoding::kBinary);
  ASSERT_EQ(encoded.size(), 4 + 2 * 4);
  EXPECT_EQ(static_cast<uint8_t>(encoded[0]), 2);
  EXPECT_EQ(static_cast<int8_t>(encoded[8]), -1);
}

// ---------------------------------------------------------------------------
// Retry policy

TEST(RetryTest, RetryableCategories) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::IoError("x")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::ResourceExhausted("x")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Unavailable("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::InvalidArgument("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Internal("x")));
}

TEST(RetryTest, BackoffScheduleIsDeterministicAndBounded) {
  RetryOptions options;
  options.max_attempts = 5;
  options.initial_backoff_ms = 10.0;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 35.0;
  options.jitter = 0.2;
  options.seed = 42;
  const RetryPolicy policy(options);
  const std::vector<double> schedule = policy.BackoffScheduleMs();
  ASSERT_EQ(schedule.size(), 4u);  // One sleep between each pair of tries.
  double base = 10.0;
  for (const double sleep_ms : schedule) {
    EXPECT_GE(sleep_ms, base * 0.8);
    EXPECT_LE(sleep_ms, base * 1.2);
    base = std::min(base * 2.0, 35.0);
  }
  // Same seed => same schedule; different seed => (almost surely) not.
  EXPECT_EQ(RetryPolicy(options).BackoffScheduleMs(), schedule);
  options.seed = 43;
  EXPECT_NE(RetryPolicy(options).BackoffScheduleMs(), schedule);
}

RetryOptions FastRetryOptions(int max_attempts) {
  RetryOptions options;
  options.max_attempts = max_attempts;
  options.initial_backoff_ms = 1.0;
  options.max_backoff_ms = 4.0;
  return options;
}

TEST(RetryTest, RecoversFromTransientFailuresWithinBudget) {
  const RetryPolicy policy(FastRetryOptions(4));
  int calls = 0;
  RetryReport report;
  const Status status = policy.Run(
      "op", Deadline(),
      [&calls]() -> Status {
        ++calls;
        return calls < 3 ? Status::IoError("flaky") : Status::Ok();
      },
      &report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_FALSE(report.exhausted);
  // The sleeps taken are exactly the schedule prefix for the retries made.
  const std::vector<double> schedule = policy.BackoffScheduleMs();
  ASSERT_EQ(report.backoffs_ms.size(), 2u);
  EXPECT_EQ(report.backoffs_ms[0], schedule[0]);
  EXPECT_EQ(report.backoffs_ms[1], schedule[1]);
}

TEST(RetryTest, ExhaustionSurfacesAsUnavailable) {
  const RetryPolicy policy(FastRetryOptions(3));
  RetryReport report;
  const Status status = policy.Run(
      "doomed", Deadline(),
      []() -> Status { return Status::IoError("still down"); }, &report);
  EXPECT_EQ(status.code(), Status::Code::kUnavailable);
  EXPECT_NE(status.message().find("doomed"), std::string::npos);
  EXPECT_NE(status.message().find("3 attempts"), std::string::npos);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_TRUE(report.exhausted);
}

TEST(RetryTest, NonRetryableFailsFast) {
  const RetryPolicy policy(FastRetryOptions(4));
  RetryReport report;
  const Status status = policy.Run(
      "bad", Deadline(),
      []() -> Status { return Status::InvalidArgument("no"); }, &report);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_FALSE(report.exhausted);
}

TEST(RetryTest, DeadlineCutsRetriesShort) {
  RetryOptions options = FastRetryOptions(10);
  options.initial_backoff_ms = 200.0;
  options.max_backoff_ms = 200.0;
  const RetryPolicy policy(options);
  const Status status = policy.Run(
      "slow", Deadline::AfterMillis(30),
      []() -> Status { return Status::IoError("down"); }, nullptr);
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Live server over loopback

class ServerTest : public ::testing::Test {
 protected:
  static constexpr int kDim = 3;

  void SetUp() override {
    FailpointRegistry::Instance().DisarmAll();
    temp_dir_ = std::filesystem::temp_directory_path() /
                ("dbsvec_server_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(temp_dir_);
    // Same seed as model A's training set: the queries land inside the
    // trained clusters (non-noise, core-adjacent) instead of being noise
    // relative to a disjoint random scene.
    queries_ = MakeBlobs(/*n=*/400, /*seed=*/29);
    model_a_path_ = (temp_dir_ / "a.dbsvm").string();
    model_b_path_ = (temp_dir_ / "b.dbsvm").string();
    FitAndSave(/*seed=*/29, model_a_path_);
    FitAndSave(/*seed=*/31, model_b_path_);
  }

  void TearDown() override {
    server_.reset();
    FailpointRegistry::Instance().DisarmAll();
    std::error_code ec;
    std::filesystem::remove_all(temp_dir_, ec);
  }

  static Dataset MakeBlobs(int n, uint64_t seed) {
    GaussianBlobsParams params;
    params.n = n;
    params.dim = kDim;
    params.num_clusters = 4;
    params.noise_fraction = 0.05;
    params.seed = seed;
    return GenerateGaussianBlobs(params);
  }

  void FitAndSave(uint64_t seed, const std::string& path) {
    const Dataset train = MakeBlobs(1'000, seed);
    DbsvecParams params;
    params.epsilon = 6.0;
    params.min_pts = 15;
    Clustering result;
    DbsvecModel model;
    ASSERT_TRUE(RunDbsvec(train, params, &result, &model).ok());
    ASSERT_GT(model.core_points.size(), 0);
    ASSERT_TRUE(SaveModel(model, path).ok());
  }

  void StartServer(ServerOptions options = {}) {
    std::unique_ptr<AssignmentEngine> engine;
    ASSERT_TRUE(AssignmentEngine::Load(model_a_path_, options.engine_options,
                                       &engine)
                    .ok());
    options.port = 0;
    ASSERT_TRUE(Server::Start(std::shared_ptr<AssignmentEngine>(
                                  std::move(engine)),
                              options, &server_)
                    .ok());
  }

  Status Connect(HttpClient* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  /// Offline ground truth: AssignBatch on a freshly loaded engine.
  std::vector<int32_t> OfflineLabels(const std::string& model_path,
                                     const Dataset& points) {
    std::unique_ptr<AssignmentEngine> engine;
    EXPECT_TRUE(AssignmentEngine::Load(model_path, {}, &engine).ok());
    std::vector<int32_t> labels;
    EXPECT_TRUE(engine->AssignBatch(points, &labels).ok());
    return labels;
  }

  static std::string JsonBody(const Dataset& points, int begin, int count) {
    std::string body = "{\"points\":[";
    char buffer[64];
    for (int i = 0; i < count; ++i) {
      body += i > 0 ? ",[" : "[";
      const auto point = points.point(begin + i);
      for (size_t d = 0; d < point.size(); ++d) {
        std::snprintf(buffer, sizeof(buffer), "%s%.17g", d > 0 ? "," : "",
                      point[d]);
        body += buffer;
      }
      body += "]";
    }
    return body + "]}";
  }

  static std::vector<int32_t> LabelsFromJson(const std::string& body) {
    std::vector<int32_t> labels;
    const size_t open = body.find('[');
    size_t cursor = open + 1;
    while (cursor < body.size() && body[cursor] != ']') {
      labels.push_back(
          static_cast<int32_t>(std::strtol(body.c_str() + cursor, nullptr,
                                           10)));
      cursor = body.find_first_of(",]", cursor);
      if (body[cursor] == ',') {
        ++cursor;
      }
    }
    return labels;
  }

  std::filesystem::path temp_dir_;
  std::string model_a_path_;
  std::string model_b_path_;
  Dataset queries_{kDim};
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, HealthzAndUnknownRoutes) {
  StartServer();
  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());
  HttpResponse response;
  ASSERT_TRUE(client.Roundtrip("GET", "/v1/healthz", "", "", {}, &response)
                  .ok());
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body, "ok\n");
  ASSERT_TRUE(
      client.Roundtrip("GET", "/v1/nothing", "", "", {}, &response).ok());
  EXPECT_EQ(response.status_code, 404);
  ASSERT_TRUE(
      client.Roundtrip("POST", "/v1/healthz", "", "x", {}, &response).ok());
  EXPECT_EQ(response.status_code, 405);
}

TEST_F(ServerTest, AssignMatchesOfflineEngineBitIdentically) {
  ServerOptions options;
  options.num_workers = 4;  // Any thread count must give identical labels.
  StartServer(options);
  const std::vector<int32_t> expected =
      OfflineLabels(model_a_path_, queries_);

  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());
  // JSON, in several batches over one keep-alive connection.
  std::vector<int32_t> served;
  const int batch = 64;
  for (int begin = 0; begin < queries_.size(); begin += batch) {
    const int count = std::min(batch, queries_.size() - begin);
    HttpResponse response;
    ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                                 JsonBody(queries_, begin, count), {},
                                 &response)
                    .ok());
    ASSERT_EQ(response.status_code, 200) << response.body;
    const std::vector<int32_t> labels = LabelsFromJson(response.body);
    ASSERT_EQ(labels.size(), static_cast<size_t>(count));
    served.insert(served.end(), labels.begin(), labels.end());
  }
  EXPECT_EQ(served, expected);

  // Binary payload: same points, same labels, byte-exact i32s.
  std::string body;
  const auto put_u32 = [&body](uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      body.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
    }
  };
  put_u32(static_cast<uint32_t>(queries_.size()));
  put_u32(kDim);
  for (int i = 0; i < queries_.size(); ++i) {
    for (const double x : queries_.point(i)) {
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof(bits));
      for (int b = 0; b < 8; ++b) {
        body.push_back(static_cast<char>((bits >> (8 * b)) & 0xff));
      }
    }
  }
  HttpResponse response;
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign",
                               "application/octet-stream", body, {},
                               &response)
                  .ok());
  ASSERT_EQ(response.status_code, 200);
  ASSERT_EQ(response.body.size(), 4 + expected.size() * 4);
  for (size_t i = 0; i < expected.size(); ++i) {
    int32_t label = 0;
    std::memcpy(&label, response.body.data() + 4 + i * 4, 4);
    ASSERT_EQ(label, expected[i]) << "binary label " << i;
  }
}

TEST_F(ServerTest, BadRequestsAreTypedNotFatal) {
  StartServer();
  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());
  HttpResponse response;
  // Wrong dimensionality -> 400 naming both dims.
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               "{\"points\":[[1,2]]}", {}, &response)
                  .ok());
  EXPECT_EQ(response.status_code, 400);
  EXPECT_NE(response.body.find("dimension"), std::string::npos);
  // Malformed JSON -> 400; connection stays serviceable (keep-alive).
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               "{\"points\":", {}, &response)
                  .ok());
  EXPECT_EQ(response.status_code, 400);
  // Bad deadline header -> 400.
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               JsonBody(queries_, 0, 1),
                               {"X-Deadline-Ms: soon"}, &response)
                  .ok());
  EXPECT_EQ(response.status_code, 400);
  // Unknown Content-Type -> 400.
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "text/csv", "1,2,3", {},
                               &response)
                  .ok());
  EXPECT_EQ(response.status_code, 400);
  EXPECT_EQ(server_->stats().requests_bad.load(), 4u);
  // And the connection still serves good requests afterwards.
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               JsonBody(queries_, 0, 4), {}, &response)
                  .ok());
  EXPECT_EQ(response.status_code, 200);
}

TEST_F(ServerTest, DeadlineExpiryIs504AndCounted) {
  StartServer();
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .ArmSpec("assign.batch:delay_ms:50")
                  .ok());
  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());
  HttpResponse response;
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               JsonBody(queries_, 0, 64),
                               {"X-Deadline-Ms: 5"}, &response)
                  .ok());
  EXPECT_EQ(response.status_code, 504);
  EXPECT_NE(response.body.find("\"num_deadline_hits\":1"), std::string::npos)
      << response.body;
  EXPECT_EQ(server_->stats().num_deadline_hits.load(), 1u);
  FailpointRegistry::Instance().DisarmAll();
  // Without the header the same request completes normally again.
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               JsonBody(queries_, 0, 64), {}, &response)
                  .ok());
  EXPECT_EQ(response.status_code, 200);
}

TEST_F(ServerTest, AdmissionControlShedsWith503RetryAfter) {
  ServerOptions options;
  options.max_inflight = 1;
  options.num_workers = 2;
  StartServer(options);
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .ArmSpec("assign.batch:delay_ms:100")
                  .ok());
  std::atomic<int> shed{0};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &shed, &ok] {
      HttpClient client;
      ASSERT_TRUE(Connect(&client).ok());
      HttpResponse response;
      ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                                   JsonBody(queries_, 0, 16), {}, &response)
                      .ok());
      if (response.status_code == 503) {
        EXPECT_EQ(response.Header("Retry-After"), "1");
        ++shed;
      } else {
        EXPECT_EQ(response.status_code, 200);
        ++ok;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  FailpointRegistry::Instance().DisarmAll();
  // With one in-flight slot and 100 ms per assign, concurrent requests
  // must shed — and at least one must get through.
  EXPECT_GT(shed.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(server_->stats().requests_shed.load(),
            static_cast<uint64_t>(shed.load()));
  // Health stays exempt from admission control.
  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());
  HttpResponse response;
  ASSERT_TRUE(
      client.Roundtrip("GET", "/v1/healthz", "", "", {}, &response).ok());
  EXPECT_EQ(response.status_code, 200);
}

TEST_F(ServerTest, StatzReportsModelIdentityWithoutRereadingFile) {
  StartServer();
  const std::shared_ptr<AssignmentEngine> engine = server_->engine();
  char expected_crc[16];
  std::snprintf(expected_crc, sizeof(expected_crc), "\"%08x\"",
                engine->model_crc());
  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());
  HttpResponse response;
  ASSERT_TRUE(
      client.Roundtrip("GET", "/v1/statz", "", "", {}, &response).ok());
  ASSERT_EQ(response.status_code, 200);
  EXPECT_NE(response.body.find(
                "\"model_version\":" +
                std::to_string(DbsvecModel::kFormatVersion)),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find(std::string("\"model_crc\":") + expected_crc),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"model_sv_budget\":0"), std::string::npos);
  EXPECT_NE(response.body.find("\"model_sample_threshold\":0"),
            std::string::npos);
  EXPECT_NE(response.body.find("\"requests_total\""), std::string::npos);
  EXPECT_NE(response.body.find("\"assign_latency_p99_us\""),
            std::string::npos);
}

TEST_F(ServerTest, ReloadSwapsModelAtomically) {
  StartServer();
  const uint32_t crc_a = server_->engine()->model_crc();
  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());
  HttpResponse response;
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/reload", "application/json",
                               "{\"path\": \"" + model_b_path_ + "\"}", {},
                               &response)
                  .ok());
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"reloaded\":true"), std::string::npos);
  EXPECT_NE(server_->engine()->model_crc(), crc_a);
  // Served labels now match the offline answer of model B.
  const std::vector<int32_t> expected =
      OfflineLabels(model_b_path_, queries_);
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               JsonBody(queries_, 0, queries_.size()), {},
                               &response)
                  .ok());
  ASSERT_EQ(response.status_code, 200);
  EXPECT_EQ(LabelsFromJson(response.body), expected);
  EXPECT_EQ(server_->stats().reloads_ok.load(), 1u);
}

TEST_F(ServerTest, ReloadFailureRollsBackAndMapsTo503) {
  ServerOptions options;
  options.reload_retry = FastRetryOptions(3);
  StartServer(options);
  const uint32_t crc_before = server_->engine()->model_crc();
  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());
  HttpResponse response;
  // Missing file: IoError, retried until the budget runs out, 503 out.
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/reload", "application/json",
                               (temp_dir_ / "missing.dbsvm").string(), {},
                               &response)
                  .ok());
  EXPECT_EQ(response.status_code, 503);
  EXPECT_NE(response.body.find("\"attempts\":3"), std::string::npos)
      << response.body;
  // The previous engine keeps serving, untouched.
  EXPECT_EQ(server_->engine()->model_crc(), crc_before);
  EXPECT_EQ(server_->stats().reloads_failed.load(), 1u);
  EXPECT_EQ(server_->stats().reload_attempts.load(), 3u);
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               JsonBody(queries_, 0, 8), {}, &response)
                  .ok());
  EXPECT_EQ(response.status_code, 200);
}

TEST_F(ServerTest, ReloadRetryRecoversAndExhaustsThroughFailpoints) {
  ServerOptions options;
  options.reload_retry = FastRetryOptions(4);
  StartServer(options);

  // model.load:error:io — every load attempt fails, the budget exhausts,
  // and the typed exhaustion Status surfaces (mapped to 503 over HTTP).
  ASSERT_TRUE(
      FailpointRegistry::Instance().ArmSpec("model.load:error:io").ok());
  RetryReport report;
  Status status = server_->Reload(model_b_path_, Deadline(), &report);
  EXPECT_EQ(status.code(), Status::Code::kUnavailable);
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.attempts, 4);
  EXPECT_EQ(FailpointRegistry::Instance().HitCount("model.load"), 4u);
  // The sleeps taken match the policy's deterministic schedule.
  const std::vector<double> schedule =
      RetryPolicy(options.reload_retry).BackoffScheduleMs();
  ASSERT_EQ(report.backoffs_ms.size(), 3u);
  EXPECT_EQ(report.backoffs_ms, std::vector<double>(schedule.begin(),
                                                    schedule.begin() + 3));
  FailpointRegistry::Instance().DisarmAll();

  // server.reload:error — internal, not retryable: exactly one attempt.
  ASSERT_TRUE(
      FailpointRegistry::Instance().ArmSpec("server.reload:error").ok());
  status = server_->Reload(model_b_path_, Deadline(), &report);
  EXPECT_EQ(status.code(), Status::Code::kInternal);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_FALSE(report.exhausted);
  FailpointRegistry::Instance().DisarmAll();

  // Disarmed, the same reload succeeds within one attempt.
  status = server_->Reload(model_b_path_, Deadline(), &report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.attempts, 1);
}

TEST_F(ServerTest, ReloadUnderLoadNeverTearsALabelBatch) {
  ServerOptions options;
  options.num_workers = 4;
  StartServer(options);
  // Precompute the only two legal answers for the probe batch: model A's
  // labels and model B's labels. Any response mixing the two (or failing)
  // is a torn read across the swap.
  const int kProbe = 32;
  Dataset probe(kDim);
  for (int i = 0; i < kProbe; ++i) {
    probe.Append(queries_.point(i));
  }
  const std::vector<int32_t> labels_a = OfflineLabels(model_a_path_, probe);
  const std::vector<int32_t> labels_b = OfflineLabels(model_b_path_, probe);
  const std::string body = JsonBody(queries_, 0, kProbe);

  std::atomic<bool> stop{false};
  std::atomic<int> responses{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([this, &body, &labels_a, &labels_b, &stop,
                          &responses, &torn] {
      HttpClient client;
      ASSERT_TRUE(Connect(&client).ok());
      while (!stop.load(std::memory_order_acquire)) {
        HttpResponse response;
        ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign",
                                     "application/json", body, {}, &response)
                        .ok());
        ASSERT_EQ(response.status_code, 200) << response.body;
        const std::vector<int32_t> labels = LabelsFromJson(response.body);
        if (labels != labels_a && labels != labels_b) {
          ++torn;
        }
        ++responses;
      }
    });
  }
  // Swap back and forth while the clients hammer.
  for (int swap = 0; swap < 6; ++swap) {
    const std::string& path = swap % 2 == 0 ? model_b_path_ : model_a_path_;
    ASSERT_TRUE(server_->Reload(path, Deadline()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(responses.load(), 8);
  EXPECT_EQ(server_->stats().reloads_ok.load(), 6u);
}

TEST_F(ServerTest, OnlineRefreshAbsorbsCoreAdjacentPoints) {
  ServerOptions options;
  options.online_refresh = true;
  options.engine_options.online_refresh = true;
  StartServer(options);
  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());
  HttpResponse response;
  // Assigning the training distribution itself puts points inside member
  // spheres, so some get absorbed into the overlay.
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               JsonBody(queries_, 0, 200), {}, &response)
                  .ok());
  ASSERT_EQ(response.status_code, 200);
  EXPECT_GT(server_->stats().cores_absorbed.load(), 0u);
  EXPECT_EQ(server_->stats().refresh_failures.load(), 0u);

  // An injected refresh fault degrades to a no-op: labels still 200.
  ASSERT_TRUE(
      FailpointRegistry::Instance().ArmSpec("serve.refresh:error").ok());
  ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                               JsonBody(queries_, 200, 100), {}, &response)
                  .ok());
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(server_->stats().refresh_failures.load(), 1u);
  FailpointRegistry::Instance().DisarmAll();
}

TEST_F(ServerTest, AcceptFailpointRejectsConnections) {
  StartServer();
  ASSERT_TRUE(
      FailpointRegistry::Instance().ArmSpec("server.accept:error").ok());
  HttpClient client;
  ASSERT_TRUE(Connect(&client).ok());  // TCP accept happens, then close.
  HttpResponse response;
  EXPECT_FALSE(client.Roundtrip("GET", "/v1/healthz", "", "", {}, &response)
                   .ok());
  FailpointRegistry::Instance().DisarmAll();
  // New connections work again.
  ASSERT_TRUE(Connect(&client).ok());
  ASSERT_TRUE(
      client.Roundtrip("GET", "/v1/healthz", "", "", {}, &response).ok());
  EXPECT_EQ(response.status_code, 200);
  EXPECT_GE(server_->stats().connections_rejected.load(), 1u);
}

TEST_F(ServerTest, ShutdownDrainsInFlightRequests) {
  StartServer();
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .ArmSpec("assign.batch:delay_ms:100")
                  .ok());
  std::atomic<int> status_code{0};
  std::thread slow_client([this, &status_code] {
    HttpClient client;
    ASSERT_TRUE(Connect(&client).ok());
    HttpResponse response;
    ASSERT_TRUE(client.Roundtrip("POST", "/v1/assign", "application/json",
                                 JsonBody(queries_, 0, 16), {}, &response)
                    .ok());
    status_code.store(response.status_code);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_->Shutdown();  // Must wait for the in-flight response to flush.
  slow_client.join();
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(status_code.load(), 200);
}

TEST_F(ServerTest, IdleStartShutdownLoopNeverHangs) {
  // Shutdown must wake every idle worker: a flag stored without the queue
  // mutex can slip between a worker's predicate check and its wait, and
  // the join then hangs. Each idle start/stop cycle is a fresh chance; the
  // unlocked store hung within 5000 cycles of 8 workers in 2 of 3 runs.
  constexpr int kCycles = 4000;
  std::shared_ptr<AssignmentEngine> engine;
  {
    std::unique_ptr<AssignmentEngine> loaded;
    ASSERT_TRUE(AssignmentEngine::Load(model_a_path_, {}, &loaded).ok());
    engine = std::move(loaded);
  }
  std::atomic<int> cycles{0};
  std::atomic<bool> failed{false};
  std::thread cycler([&] {
    ServerOptions options;
    options.num_workers = 8;
    for (int i = 0; i < kCycles; ++i) {
      std::unique_ptr<Server> server;
      if (!Server::Start(engine, options, &server).ok()) {
        failed.store(true);
        return;
      }
      server->Shutdown();
      cycles.fetch_add(1);
    }
  });
  // The deadline is per cycle, so a slow (sanitized, loaded) host only
  // stretches the loop; a cycle that makes no progress for 30 s is a hang.
  int seen = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen < kCycles && !failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int now_done = cycles.load();
    if (now_done != seen) {
      seen = now_done;
      deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    } else if (std::chrono::steady_clock::now() > deadline) {
      // A hung join cannot be cancelled; fail loudly instead of hanging.
      ADD_FAILURE() << "Shutdown hung after " << seen << " cycles";
      std::abort();
    }
  }
  cycler.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(cycles.load(), kCycles);
}

}  // namespace
}  // namespace dbsvec
