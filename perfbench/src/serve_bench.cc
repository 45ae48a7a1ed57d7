// Serving workloads over an in-process Server with default options (one
// I/O loop, two workers), fed by the closed-loop generator of load_gen.h on
// two keep-alive connections.
//
//   serve_point_json     single-point JSON assigns; transport, parsing and
//                        queueing dominate. Every answer must equal the
//                        offline AssignBatch answer.
//   serve_batch_refresh  256-point binary assigns, every 10th request a
//                        256-point refresh sent in order on connection 0;
//                        AssignBatch range queries and the overlay lock
//                        dominate. Labels must be in range, and afterwards a
//                        probe set must match an offline engine that
//                        replayed the same refreshes.
//
// The model is fitted on 100k points of a shuffled 120k random-walk draw
// (the fit_walk8d generator); the held-out 20k points are the queries, so
// they land inside the clusters instead of failing the sphere prefilter.
//
// The traced run replays the serving layers offline (ReplayServeLayers,
// shared with the fit workloads) and traces the model's fit
// (TraceFitLayers), so every traced run reports every layer.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/dbsvec.h"
#include "data/synthetic.h"
#include "load_gen.h"
#include "model/dbsvec_model.h"
#include "serve/assignment_engine.h"
#include "server/payload.h"
#include "server/server.h"

namespace perfbench {
namespace {

using dbsvec::AssignmentEngine;
using dbsvec::Dataset;
using dbsvec::DbsvecModel;

constexpr int kAssign = 0;
constexpr int kRefresh = 1;
constexpr size_t kBatchPoints = 256;
/// Connection 0 sends every 5th of its requests as a refresh; both
/// connections send at about the same pace, so about every 10th request is
/// one.
constexpr uint64_t kRefreshEvery = 5;

/// Percentiles are taken per time window of `window_s` seconds and
/// medianed over the windows (WindowedPercentileUs). A JSON window holds
/// some 3–5k requests, a batch window some 300–400 assigns and 40
/// refreshes; a host stall then spoils one window instead of deciding the
/// run.
struct ServeConfig {
  bool batch = false;
  double window_s = 0.0;
};

ServeConfig ConfigFor(const Options& options) {
  ServeConfig config;
  config.batch = options.workload == "serve_batch_refresh";
  config.window_s = config.batch ? 0.5 : 0.25;
  return config;
}

/// Number of `config.window_s` windows in a phase of `duration` seconds.
int Windows(const ServeConfig& config, double duration) {
  return std::max(1, static_cast<int>(std::lround(duration / config.window_s)));
}

struct ServeInput {
  FitInput fit;  // The 100k training points and the fit parameters.
  Dataset queries{1};
};

/// A 120k walk draw from the fit workload's generator seed, shuffled by
/// `--seed`; the first 100k points train the model, the other 20k are the
/// queries.
ServeInput MakeInput(const Options& options) {
  dbsvec::RandomWalkParams gen;
  const dbsvec::PointIndex n_train = options.smoke ? 10'000 : 100'000;
  const dbsvec::PointIndex n_query = options.smoke ? 2'000 : 20'000;
  gen.n = n_train + n_query;
  gen.dim = 8;
  gen.num_clusters = 10;
  gen.seed = kWalkDataSeed;
  const Dataset all = Shuffled(dbsvec::GenerateRandomWalk(gen), options.seed);
  ServeInput input;
  input.fit.data = Dataset(gen.dim);
  input.queries = Dataset(gen.dim);
  for (dbsvec::PointIndex i = 0; i < all.size(); ++i) {
    (i < n_train ? input.fit.data : input.queries).Append(all.point(i));
  }
  input.fit.params.epsilon = 5000.0;
  input.fit.params.min_pts = options.smoke ? 20 : 100;
  return input;
}

dbsvec::AssignmentOptions EngineOptions(bool online_refresh) {
  dbsvec::AssignmentOptions options;
  options.online_refresh = online_refresh;
  return options;
}

std::shared_ptr<AssignmentEngine> MakeEngine(const DbsvecModel& model,
                                             bool online_refresh,
                                             Report* report) {
  std::unique_ptr<AssignmentEngine> engine;
  const dbsvec::Status status =
      AssignmentEngine::Create(model, EngineOptions(online_refresh), &engine);
  if (!status.ok()) {
    report->Fail("engine create: " + status.ToString());
    return nullptr;
  }
  return std::shared_ptr<AssignmentEngine>(std::move(engine));
}

/// Points [begin, begin + count) of `queries`, wrapping around.
Dataset Block(const Dataset& queries, size_t begin, size_t count) {
  Dataset block(queries.dim());
  for (size_t k = 0; k < count; ++k) {
    block.Append(queries.point(
        static_cast<dbsvec::PointIndex>((begin + k) % queries.size())));
  }
  return block;
}

std::string JsonBody(const Dataset& points) {
  std::string body = "{\"points\": [";
  char buf[40];
  for (dbsvec::PointIndex i = 0; i < points.size(); ++i) {
    body += i ? ", [" : "[";
    for (int j = 0; j < points.dim(); ++j) {
      std::snprintf(buf, sizeof(buf), "%.17g", points.at(i, j));
      body += j ? ", " : "";
      body += buf;
    }
    body += "]";
  }
  return body + "]}";
}

std::string BinaryBody(const Dataset& points) {
  const uint32_t header[2] = {static_cast<uint32_t>(points.size()),
                              static_cast<uint32_t>(points.dim())};
  std::string body(reinterpret_cast<const char*>(header), sizeof(header));
  body.append(reinterpret_cast<const char*>(points.data().data()),
              points.data().size() * sizeof(double));
  return body;
}

bool DecodeBinaryLabels(const std::string& body, std::vector<int32_t>* out) {
  uint32_t count = 0;
  if (body.size() < 4) return false;
  std::memcpy(&count, body.data(), 4);
  if (body.size() != 4 + 4 * static_cast<size_t>(count)) return false;
  out->resize(count);
  std::memcpy(out->data(), body.data() + 4, 4 * static_cast<size_t>(count));
  return true;
}

/// The bodies a workload sends: one per query point (JSON) or one per
/// 256-point block (binary assign and refresh).
struct Bodies {
  std::vector<Dataset> points;
  std::vector<std::string> assign;   // Full HTTP requests.
  std::vector<std::string> refresh;  // Full HTTP requests (batch only).
  std::vector<std::string> raw;      // Assign bodies, for decode replays.
};

Bodies MakeBodies(const Dataset& queries, bool batch) {
  Bodies bodies;
  const size_t q = static_cast<size_t>(queries.size());
  const size_t count = batch ? (q + kBatchPoints - 1) / kBatchPoints : q;
  for (size_t b = 0; b < count; ++b) {
    bodies.points.push_back(batch ? Block(queries, b * kBatchPoints,
                                          kBatchPoints)
                                  : Block(queries, b, 1));
    const Dataset& points = bodies.points.back();
    bodies.raw.push_back(batch ? BinaryBody(points) : JsonBody(points));
    const std::string type =
        batch ? "application/octet-stream" : "application/json";
    bodies.assign.push_back(
        BuildRequest("POST", "/v1/assign", type, bodies.raw.back()));
    if (batch) {
      bodies.refresh.push_back(
          BuildRequest("POST", "/v1/refresh", type, bodies.raw.back()));
    }
  }
  return bodies;
}

/// Single-point JSON assigns, answers checked against the offline engine.
class PointJsonTraffic final : public Traffic {
 public:
  PointJsonTraffic(const Bodies& bodies, std::vector<int32_t> expected)
      : bodies_(bodies), expected_(std::move(expected)) {}

  const std::string& Request(int conn, uint64_t k, int* kind) override {
    *kind = kAssign;
    return bodies_.assign[Index(conn, k)];
  }
  bool Check(int conn, uint64_t k, int, const HttpResponse& r) override {
    const size_t open = r.body.find('[');
    if (open == std::string::npos) return false;
    char* end = nullptr;
    const long label = std::strtol(r.body.c_str() + open + 1, &end, 10);
    return end != nullptr && *end == ']' && label == expected_[Index(conn, k)];
  }

 private:
  size_t Index(int conn, uint64_t k) const {
    return (2 * k + static_cast<uint64_t>(conn)) % bodies_.assign.size();
  }
  const Bodies& bodies_;
  std::vector<int32_t> expected_;
};

/// 256-point binary assigns with ordered refreshes on connection 0.
class BatchRefreshTraffic final : public Traffic {
 public:
  BatchRefreshTraffic(const Bodies& bodies, int32_t num_clusters)
      : bodies_(bodies), num_clusters_(num_clusters) {}

  const std::string& Request(int conn, uint64_t k, int* kind) override {
    if (conn == 0 && k % kRefreshEvery == kRefreshEvery - 1) {
      *kind = kRefresh;
      return bodies_.refresh[(k / kRefreshEvery) % bodies_.refresh.size()];
    }
    *kind = kAssign;
    return bodies_.assign[(2 * k + static_cast<uint64_t>(conn)) %
                          bodies_.assign.size()];
  }
  bool Check(int, uint64_t k, int kind, const HttpResponse& r) override {
    if (kind == kRefresh) {
      // Only connection 0 refreshes, so this list is in send order.
      refreshed_.push_back((k / kRefreshEvery) % bodies_.refresh.size());
      return r.body.find("\"refreshed\":true") != std::string::npos;
    }
    std::vector<int32_t> labels;
    if (!DecodeBinaryLabels(r.body, &labels) ||
        labels.size() != kBatchPoints) {
      return false;
    }
    for (const int32_t label : labels) {
      if (label < -1 || label >= num_clusters_) return false;
    }
    return true;
  }
  /// Refresh bodies the server acknowledged, in order.
  const std::vector<size_t>& refreshed() const { return refreshed_; }

 private:
  const Bodies& bodies_;
  int32_t num_clusters_;
  std::vector<size_t> refreshed_;
};

/// Takes ownership of a started server and never shuts it down.
/// Server::Shutdown sets its stop flag and notifies the worker queue
/// without holding the queue mutex, so a worker can miss the wake-up and
/// the join hangs (seen in about 1 of 30 runs). The servers stay up, idle,
/// until main ends the process with _Exit.
dbsvec::server::Server* KeepAlive(
    std::unique_ptr<dbsvec::server::Server> server) {
  static auto* servers =
      new std::vector<std::unique_ptr<dbsvec::server::Server>>();
  servers->push_back(std::move(server));
  return servers->back().get();
}

/// A running server plus everything its set-up produced.
struct Deployment {
  DbsvecModel model;
  dbsvec::server::Server* server = nullptr;
  double fit_s = 0.0;
};

/// Fit → SaveModel → AssignmentEngine::Load → Server::Start.
bool Deploy(const Options& options, const ServeInput& input,
            const std::string& model_path, Deployment* out, Report* report) {
  const ServeConfig config = ConfigFor(options);
  const double start = Now();
  dbsvec::Clustering fit;
  dbsvec::Status status =
      dbsvec::RunDbsvec(input.fit.data, input.fit.params, &fit, &out->model);
  out->fit_s = Now() - start;
  if (!status.ok()) {
    report->Fail("fit: " + status.ToString());
    return false;
  }
  status = dbsvec::SaveModel(out->model, model_path);
  if (!status.ok()) {
    report->Fail("save: " + status.ToString());
    return false;
  }
  std::unique_ptr<AssignmentEngine> engine;
  status = AssignmentEngine::Load(model_path, EngineOptions(config.batch),
                                  &engine);
  if (!status.ok()) {
    report->Fail("load: " + status.ToString());
    return false;
  }
  dbsvec::server::ServerOptions server_options;
  server_options.engine_options = EngineOptions(config.batch);
  std::unique_ptr<dbsvec::server::Server> server;
  status = dbsvec::server::Server::Start(
      std::shared_ptr<AssignmentEngine>(std::move(engine)), server_options,
      &server);
  if (!status.ok()) {
    report->Fail("server start: " + status.ToString());
    return false;
  }
  out->server = KeepAlive(std::move(server));
  return true;
}

/// Counts every sample as one operation.
void CountSamples(const std::vector<Sample>& samples, Report* report) {
  uint64_t failed = 0;
  for (const Sample& s : samples) failed += s.ok ? 0 : 1;
  report->Count(true, samples.size() - failed);
  if (failed > 0) {
    report->Fail(std::to_string(failed) + " failed requests", failed);
  }
}

/// Sends the probe set on one connection and compares it with an offline
/// engine that replayed the acknowledged refreshes in order.
void CheckProbe(const ServeInput& input, const Bodies& bodies,
                const DbsvecModel& model, const std::vector<size_t>& refreshed,
                HttpConnection* conn, int port, Report* report) {
  const Dataset probe = Block(input.queries, 0,
                              std::min<size_t>(2048, input.queries.size()));
  const std::string request = BuildRequest(
      "POST", "/v1/assign", "application/octet-stream", BinaryBody(probe));
  HttpResponse response;
  std::vector<int32_t> served;
  if (!conn->Connect(port) || !conn->RoundTrip(request, &response) ||
      response.status != 200 || !DecodeBinaryLabels(response.body, &served)) {
    report->Fail("probe request failed");
    return;
  }
  const auto offline = MakeEngine(model, /*online_refresh=*/true, report);
  if (offline == nullptr) return;
  std::vector<int32_t> labels;
  for (const size_t b : refreshed) {
    const Dataset& points = bodies.points[b];
    if (!offline->AssignBatch(points, &labels).ok() ||
        !offline->AbsorbCoreAdjacent(points, labels).ok()) {
      report->Fail("offline refresh replay failed");
      return;
    }
  }
  std::vector<int32_t> expected;
  if (!offline->AssignBatch(probe, &expected).ok() || served != expected) {
    report->Fail("probe labels differ from the offline refresh replay");
    return;
  }
  report->Count(true);
}

/// Pulls a numeric field out of the /v1/statz JSON (first occurrence —
/// the server-wide value precedes the per-model breakdown).
double StatzField(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

bool RunServe(const Options& options, Report* report) {
  const ServeConfig config = ConfigFor(options);
  const std::string model_path = options.work_dir + "/model-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".dbsvec";

  // Set-up, repeated; the last deployment serves the traffic.
  const int setups = options.trace ? 1 : (options.smoke ? 2 : 3);
  std::vector<double> setup_s, fit_s;
  ServeInput input;
  Deployment deployment;
  for (int rep = 0; rep < setups; ++rep) {
    deployment = Deployment();
    const double start = Now();
    input = MakeInput(options);
    if (!Deploy(options, input, model_path, &deployment, report)) {
      return false;
    }
    setup_s.push_back(Now() - start);
    fit_s.push_back(deployment.fit_s);
  }
  std::remove(model_path.c_str());
  report->Count(true);
  const int port = deployment.server->port();
  const DbsvecModel& model = deployment.model;

  // With the pool of one (see main), AssignBatch runs on the server worker
  // that took the request, so the server is its three threads and the
  // generator its two, as the four CPUs allow. With a full pool every batch
  // woke three more threads per request, and those wake-ups on a shared
  // host swung batch latency by ±35% between runs.
  const Bodies bodies = MakeBodies(input.queries, config.batch);
  const auto oracle = MakeEngine(model, /*online_refresh=*/false, report);
  if (oracle == nullptr) return false;
  std::vector<int32_t> expected;
  if (!oracle->AssignBatch(input.queries, &expected).ok()) {
    report->Fail("offline AssignBatch failed");
    return false;
  }
  std::unique_ptr<Traffic> traffic;
  BatchRefreshTraffic* batch_traffic = nullptr;
  if (config.batch) {
    auto t = std::make_unique<BatchRefreshTraffic>(bodies, model.num_clusters);
    batch_traffic = t.get();
    traffic = std::move(t);
  } else {
    traffic = std::make_unique<PointJsonTraffic>(bodies, expected);
  }

  std::vector<HttpConnection> connections(2);
  for (HttpConnection& connection : connections) {
    if (!connection.Connect(port)) {
      report->Fail("connect failed");
      return false;
    }
  }
  std::vector<uint64_t> seq(connections.size(), 0);
  auto run = [&](double duration) {
    return RunPhase(&connections, port, traffic.get(), &seq, duration);
  };

  // Warm-up, then traffic for the rest of the budget (a third of it in the
  // traced run, whose budget goes to the fit layers).
  const double seconds = options.seconds;
  const double warmup_s = std::min(0.3, 0.1 * seconds);
  CountSamples(run(warmup_s), report);
  // Peak RSS of set-up and warm-up: later, the generator's sample buffers
  // grow with throughput and would count against the server.
  const double peak_mb = PeakRssMb();
  const double traffic_s =
      options.trace ? seconds / 3.0 : std::max(seconds - warmup_s, 0.1);
  const std::vector<Sample> samples = run(traffic_s);
  CountSamples(samples, report);
  const std::vector<double> assign_us = LatenciesUs(samples, kAssign);
  const std::vector<double> refresh_us = LatenciesUs(samples, kRefresh);
  const int windows = Windows(config, traffic_s);

  if (config.batch) {
    CheckProbe(input, bodies, model, batch_traffic->refreshed(),
               &connections[0], port, report);
  }
  HttpResponse statz;
  const bool have_statz =
      connections[1].RoundTrip(BuildRequest("GET", "/v1/statz", "", ""),
                               &statz) &&
      statz.status == 200;
  report->Count(have_statz);
  connections.clear();

  // What only the live server shows goes on the detail line.
  report->Detail("requests_per_s",
                 static_cast<double>(samples.size()) / traffic_s);
  report->Detail("assign_samples", static_cast<double>(assign_us.size()));
  report->Detail("refresh_samples", static_cast<double>(refresh_us.size()));
  report->Detail("assign_p99_us",
                 WindowedPercentileUs(samples, kAssign, windows, 99.0));
  if (config.batch) {
    report->Detail("refresh_p50_us",
                   WindowedPercentileUs(samples, kRefresh, windows, 50.0));
  }
  report->Detail("statz_assign_p99_us",
                 StatzField(statz.body, "assign_latency_p99_us"));
  report->Detail("statz_shed", StatzField(statz.body, "requests_shed"));
  report->Detail("statz_bad", StatzField(statz.body, "requests_bad"));
  report->Detail("statz_deadline_hits",
                 StatzField(statz.body, "num_deadline_hits"));
  report->Detail("model_fit_s", Median(fit_s));
  report->Detail("model_clusters", static_cast<double>(model.num_clusters));
  report->Detail("model_cores", static_cast<double>(model.core_points.size()));

  if (options.trace) {
    TraceFitLayers(input.fit, options, report, nullptr);
    return ReplayServeLayers(model, input.queries, config.batch,
                             /*online_refresh=*/config.batch, options,
                             report);
  }
  report->Metric(
      "latency_p50_ms",
      WindowedPercentileUs(samples, kAssign, windows, 50.0) / 1e3, "ms");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", peak_mb, "MiB");
  report->Metric("ok_frac",
                 1.0 - static_cast<double>(report->failed()) /
                           static_cast<double>(report->attempted()),
                 "ratio");
  return true;
}

}  // namespace

bool RunServeWorkload(const Options& options, Report* report) {
  return RunServe(options, report);
}

bool ReplayServeLayers(const DbsvecModel& model, const Dataset& queries,
                       bool batch, bool online_refresh,
                       const Options& options, Report* report) {
  const std::string model_path = options.work_dir + "/replay-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".dbsvec";
  const Bodies bodies = MakeBodies(queries, batch);

  const int reps = options.smoke ? 2 : 5;
  std::vector<double> save_s, load_s, create_s;
  for (int rep = 0; rep < reps; ++rep) {
    double t = Now();
    report->Count(dbsvec::SaveModel(model, model_path).ok());
    save_s.push_back(Now() - t);
    DbsvecModel loaded;
    t = Now();
    report->Count(dbsvec::LoadModel(model_path, &loaded).ok() &&
                  loaded == model);
    load_s.push_back(Now() - t);
    t = Now();
    const auto created = MakeEngine(loaded, online_refresh, report);
    create_s.push_back(Now() - t);
  }
  struct stat file_stat {};
  const double model_bytes =
      ::stat(model_path.c_str(), &file_stat) == 0
          ? static_cast<double>(file_stat.st_size)
          : 0.0;
  std::remove(model_path.c_str());

  // Engine replays on a fresh engine configured like the served one, so its
  // counters cover only them and its assign path (overlay lookups included)
  // matches the server's.
  const auto oracle = MakeEngine(model, /*online_refresh=*/false, report);
  const auto engine = MakeEngine(model, online_refresh, report);
  if (oracle == nullptr || engine == nullptr) return false;
  std::vector<int32_t> expected;
  if (!oracle->AssignBatch(queries, &expected).ok()) {
    report->Fail("offline AssignBatch failed");
    return false;
  }
  const dbsvec::server::PayloadEncoding encoding =
      batch ? dbsvec::server::PayloadEncoding::kBinary
            : dbsvec::server::PayloadEncoding::kJson;
  const size_t replay_bodies = std::min<size_t>(bodies.raw.size(), 2000);
  std::vector<double> decode_us, encode_us, batch_us, point_us;
  std::vector<int32_t> labels;
  for (size_t b = 0; b < replay_bodies; ++b) {
    Dataset decoded(1);
    double t = Now();
    const dbsvec::Status parsed = dbsvec::server::ParseAssignBody(
        bodies.raw[b], encoding, 1u << 20, &decoded);
    decode_us.push_back((Now() - t) * 1e6);
    report->Count(parsed.ok() && decoded.data() == bodies.points[b].data());
    t = Now();
    report->Count(engine->AssignBatch(bodies.points[b], &labels).ok());
    batch_us.push_back((Now() - t) * 1e6);
    t = Now();
    const std::string encoded =
        dbsvec::server::EncodeAssignResponse(labels, encoding);
    encode_us.push_back((Now() - t) * 1e6);
    report->Count(!encoded.empty());
  }
  for (dbsvec::PointIndex i = 0;
       i < std::min<dbsvec::PointIndex>(queries.size(), 2000); ++i) {
    int32_t label = 0;
    const double t = Now();
    const dbsvec::Status status = engine->Assign(queries.point(i), &label);
    point_us.push_back((Now() - t) * 1e6);
    report->Count(status.ok() && label == expected[i]);
  }
  const AssignmentEngine::ServeStats engine_stats = engine->stats();

  // The bodies in send order through a separate refresh engine, as a
  // refresh stream would absorb them.
  const auto absorber = MakeEngine(model, /*online_refresh=*/true, report);
  if (absorber == nullptr) return false;
  std::vector<double> absorb_us;
  for (size_t b = 0; b < replay_bodies; ++b) {
    report->Count(absorber->AssignBatch(bodies.points[b], &labels).ok());
    const double t = Now();
    report->Count(absorber->AbsorbCoreAdjacent(bodies.points[b], labels).ok());
    absorb_us.push_back((Now() - t) * 1e6);
  }
  report->Detail("replay_bodies", static_cast<double>(replay_bodies));
  report->Metric("serve.engine_create_s", Median(create_s), "s");
  report->Metric("serve.assign_batch_us", Median(batch_us), "us");
  report->Metric("serve.assign_point_us", Median(point_us), "us");
  report->Metric("serve.prefilter_reject_frac",
                 static_cast<double>(engine_stats.sphere_rejections) /
                     static_cast<double>(engine_stats.points_assigned),
                 "ratio");
  report->Metric("serve.range_queries_per_point",
                 static_cast<double>(engine_stats.range_queries) /
                     static_cast<double>(engine_stats.points_assigned),
                 "count");
  report->Metric("serve.absorb_us", Median(absorb_us), "us");
  report->Metric("serve.cores_absorbed",
                 static_cast<double>(absorber->stats().cores_absorbed),
                 "count");
  report->Metric("server.decode_us", Median(decode_us), "us");
  report->Metric("server.encode_us", Median(encode_us), "us");
  report->Metric("model.save_s", Median(save_s), "s");
  report->Metric("model.load_s", Median(load_s), "s");
  report->Metric("model.bytes", model_bytes, "bytes");
  return true;
}

}  // namespace perfbench
