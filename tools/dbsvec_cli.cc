// dbsvec_cli — cluster a CSV (or generated demo data) from the command
// line with any algorithm in the library. Run with --help for usage.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli_options.h"
#include "cli/cli_runner.h"
#include "cluster/dbscan.h"
#include "common/csv.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "eval/recall.h"
#include "fault/failpoint.h"
#include "model/dbsvec_model.h"
#include "model/overlay_journal.h"
#include "serve/assignment_engine.h"
#include "server/durability.h"
#include "server/server.h"

namespace dbsvec {
namespace {

/// Degraded-solve summary shared by the cluster and fit outputs: printed
/// only when something actually degraded, so healthy runs stay unchanged.
void PrintDegradedStats(const ClusteringStats& stats) {
  if (stats.num_nonconverged_solves == 0 && stats.num_svdd_fallbacks == 0 &&
      stats.num_caps_rescaled == 0) {
    return;
  }
  std::printf("degraded: nonconverged_solves=%llu svdd_fallbacks=%llu "
              "caps_rescaled=%llu\n",
              static_cast<unsigned long long>(stats.num_nonconverged_solves),
              static_cast<unsigned long long>(stats.num_svdd_fallbacks),
              static_cast<unsigned long long>(stats.num_caps_rescaled));
}

/// SMO aggregate line shared by the cluster and fit outputs. The max makes
/// per-solve cost visible without a profiler: under --sv-budget it must
/// stay bounded in B, not in the target size. The budget line appears only
/// when the bounded-cost machinery or the target cap actually fired.
void PrintSolverStats(const ClusteringStats& stats) {
  if (stats.num_svdd_trainings == 0) {
    return;
  }
  std::printf("smo: solves=%llu iterations=%lld max_per_solve=%lld "
              "nonconverged=%llu\n",
              static_cast<unsigned long long>(stats.num_svdd_trainings),
              static_cast<long long>(stats.smo_iterations),
              static_cast<long long>(stats.max_smo_iterations),
              static_cast<unsigned long long>(stats.num_nonconverged_solves));
  if (stats.num_budget_merges > 0 || stats.num_budget_forgets > 0 ||
      stats.num_sampled_solves > 0 || stats.num_capped_solves > 0) {
    std::printf("budget: merges=%llu forgets=%llu sampled_solves=%llu "
                "capped_solves=%llu\n",
                static_cast<unsigned long long>(stats.num_budget_merges),
                static_cast<unsigned long long>(stats.num_budget_forgets),
                static_cast<unsigned long long>(stats.num_sampled_solves),
                static_cast<unsigned long long>(stats.num_capped_solves));
  }
}

/// `fit`: cluster with DBSVEC, persist the model, report its summary.
int RunFitCommand(const cli::CliOptions& options) {
  Dataset dataset(1);
  if (const Status status = cli::LoadInput(options, &dataset);
      !status.ok()) {
    std::fprintf(stderr, "input: %s\n", status.ToString().c_str());
    return 1;
  }
  Clustering result;
  DbsvecModel model;
  Stopwatch timer;
  if (const Status status =
          cli::RunFit(options, &dataset, &result, &model);
      !status.ok()) {
    std::fprintf(stderr, "fit: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("fit: DBSVEC on %d points (d=%d), eps=%.4g, MinPts=%d\n",
              dataset.size(), dataset.dim(), model.epsilon, model.min_pts);
  std::printf("clusters=%d noise=%d time=%.3fs\n", result.num_clusters,
              result.CountNoise(), timer.ElapsedSeconds());
  PrintSolverStats(result.stats);
  PrintDegradedStats(result.stats);
  uint32_t model_crc = 0;
  if (const Status status = ModelPayloadCrc(model, &model_crc);
      !status.ok()) {
    std::fprintf(stderr, "model crc: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("model: core_points=%d (%d core-SVs) spheres=%zu version=%u "
              "crc=%08x -> %s\n",
              model.core_points.size(),
              static_cast<int>(std::count(model.core_is_sv.begin(),
                                          model.core_is_sv.end(), 1)),
              model.spheres.size(), DbsvecModel::kFormatVersion, model_crc,
              options.model_out_path.c_str());
  if (!options.output_path.empty()) {
    if (const Status status =
            WriteCsv(dataset, result.labels, options.output_path);
        !status.ok()) {
      std::fprintf(stderr, "output: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("labelled points written to %s\n",
                options.output_path.c_str());
  }
  return 0;
}

/// `assign`: load a model, stream the input points through it.
int RunAssignCommand(const cli::CliOptions& options) {
  Dataset points(1);
  std::vector<int32_t> labels;
  Stopwatch timer;
  if (const Status status = cli::RunAssign(options, &points, &labels);
      !status.ok()) {
    std::fprintf(stderr, "assign: %s\n", status.ToString().c_str());
    return 1;
  }
  const double elapsed = timer.ElapsedSeconds();
  int32_t noise = 0;
  for (const int32_t label : labels) {
    noise += label < 0 ? 1 : 0;
  }
  std::printf("assign: %d points from %s, noise=%d time=%.3fs "
              "(%.0f points/s)\n",
              points.size(), options.input_path.c_str(), noise, elapsed,
              elapsed > 0.0 ? points.size() / elapsed : 0.0);
  if (!options.output_path.empty()) {
    if (const Status status =
            WriteCsv(points, labels, options.output_path);
        !status.ok()) {
      std::fprintf(stderr, "output: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("labelled points written to %s\n",
                options.output_path.c_str());
  }
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

/// `serve`: load a model (with crash recovery in durable mode), serve it
/// over HTTP until SIGTERM/SIGINT, then drain and shut down cleanly.
int RunServeCommand(const cli::CliOptions& options) {
  AssignmentOptions engine_options;
  engine_options.index = options.index;
  engine_options.shards = options.shards;
  engine_options.online_refresh = options.serve_refresh;

  server::DurabilityOptions durability;
  durability.enabled = options.serve_durable;
  durability.fsync = options.fsync_policy;
  durability.fsync_interval_ms = options.fsync_interval_ms;
  durability.checkpoint_interval_ms = options.checkpoint_interval_ms;

  const bool registry_mode = !options.serve_data_dir.empty();
  std::shared_ptr<AssignmentEngine> engine;
  std::shared_ptr<OverlayJournal> journal;
  server::RecoveryReport recovery;
  if (!registry_mode) {
    durability.snapshot_path = options.snapshot_path;
    durability.journal_path = options.journal_path;
    server::ResolveDurabilityPaths(options.model_path, &durability);

    // Startup goes through RecoverEngine even without --durable: transient
    // I/O errors while loading the model retry with backoff instead of
    // failing the process.
    std::unique_ptr<AssignmentEngine> loaded;
    if (const Status status = server::RecoverEngine(
            options.model_path, durability, engine_options,
            server::RetryOptions(), &loaded, &journal, &recovery);
        !status.ok()) {
      std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
      return 1;
    }
    engine = std::move(loaded);
  }
  // In registry mode the server recovers every model under the data dir
  // itself (per-model snapshot + journal); --model only seeds `default`
  // after startup, below.

  server::ServerOptions server_options;
  server_options.host = options.serve_host;
  server_options.port = options.serve_port;
  server_options.num_io_threads = options.serve_io_threads;
  server_options.num_workers = options.serve_workers;
  server_options.max_inflight = options.serve_max_inflight;
  server_options.default_deadline_ms = options.serve_default_deadline_ms;
  server_options.engine_options = engine_options;
  server_options.online_refresh = options.serve_refresh;
  server_options.durability = durability;
  server_options.journal = journal;
  server_options.recovery = recovery;
  server_options.data_dir = options.serve_data_dir;
  server_options.max_models = options.serve_max_models;
  server_options.model_max_inflight = options.serve_model_max_inflight;
  std::unique_ptr<server::Server> server;
  if (const Status status =
          server::Server::Start(engine, server_options, &server);
      !status.ok()) {
    std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
    return 1;
  }
  if (registry_mode) {
    const registry::RegistryRecoveryReport& recovered =
        server->registry_recovery();
    if (!options.model_path.empty() &&
        server->registry().Find("default") == nullptr) {
      // Seed-once: import the artifact as `default`; a restart recovers it
      // from the data dir instead, so re-running the same command is safe.
      if (const Status status = server->registry().CreateFromFile(
              "default", options.model_path);
          !status.ok()) {
        std::fprintf(stderr, "serve: seed default model: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
    std::printf("serve: registry data-dir=%s models=%zu "
                "(recovered=%d failed=%d) max-models=%d%s\n",
                options.serve_data_dir.c_str(), server->registry().size(),
                recovered.recovered, recovered.failed,
                options.serve_max_models,
                options.serve_durable ? " durable" : "");
    for (const std::string& failed : recovered.failed_names) {
      std::fprintf(stderr, "serve: model '%s' failed recovery, skipped\n",
                   failed.c_str());
    }
  } else {
    std::printf("serve: model=%s version=%u crc=%08x\n",
                options.model_path.c_str(), engine->model_version(),
                engine->model_crc());
  }
  if (options.serve_durable && !registry_mode) {
    std::printf("serve: durable snapshot=%s journal=%s fsync=%s "
                "(recovered: from_snapshot=%d replayed=%llu "
                "torn_bytes=%llu discarded=%llu)\n",
                durability.snapshot_path.c_str(),
                durability.journal_path.c_str(),
                FsyncPolicyName(durability.fsync),
                recovery.loaded_from_snapshot ? 1 : 0,
                static_cast<unsigned long long>(recovery.records_replayed),
                static_cast<unsigned long long>(
                    recovery.torn_bytes_truncated),
                static_cast<unsigned long long>(
                    recovery.journals_discarded));
  }
  std::printf("serve: listening on %s:%d (io=%d workers=%d inflight<=%d%s)\n",
              server_options.host.c_str(), server->port(),
              server_options.num_io_threads, server_options.num_workers,
              server_options.max_inflight,
              options.serve_refresh ? " refresh=on" : "");
  std::fflush(stdout);

  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("serve: stop signal received, draining\n");
  server->Shutdown();
  const server::ServerStats& stats = server->stats();
  std::printf("serve: shut down cleanly (requests=%llu assigned=%llu "
              "shed=%llu deadline_hits=%llu)\n",
              static_cast<unsigned long long>(stats.requests_total.load()),
              static_cast<unsigned long long>(stats.points_assigned.load()),
              static_cast<unsigned long long>(stats.requests_shed.load()),
              static_cast<unsigned long long>(
                  stats.num_deadline_hits.load()));
  return 0;
}

int Main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  cli::CliOptions options;
  if (const Status status = cli::ParseCliOptions(args, &options);
      !status.ok()) {
    std::fprintf(stderr, "%s\n\n%s", status.ToString().c_str(),
                 cli::HelpText().c_str());
    return 2;
  }
  if (options.show_help) {
    std::printf("%s", cli::HelpText().c_str());
    return 0;
  }
  SetGlobalThreads(options.threads);
  if (!options.failpoints.empty()) {
    if (const Status status =
            FailpointRegistry::Instance().ArmSpec(options.failpoints);
        !status.ok()) {
      std::fprintf(stderr, "--failpoints: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  if (options.command == cli::Command::kFit) {
    return RunFitCommand(options);
  }
  if (options.command == cli::Command::kAssign) {
    return RunAssignCommand(options);
  }
  if (options.command == cli::Command::kServe) {
    return RunServeCommand(options);
  }

  Dataset dataset(1);
  if (const Status status = cli::LoadInput(options, &dataset);
      !status.ok()) {
    std::fprintf(stderr, "input: %s\n", status.ToString().c_str());
    return 1;
  }
  const double epsilon = cli::ResolveEpsilon(options, dataset);
  std::printf("%s on %d points (d=%d), eps=%.4g, MinPts=%d\n",
              cli::AlgorithmName(options.algorithm), dataset.size(),
              dataset.dim(), epsilon, options.min_pts);

  Clustering result;
  if (const Status status =
          cli::RunAlgorithm(options, dataset, epsilon, &result);
      !status.ok()) {
    std::fprintf(stderr, "clustering: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("clusters=%d noise=%d time=%.3fs range_queries=%llu "
              "distance_computations=%llu\n",
              result.num_clusters, result.CountNoise(),
              result.stats.elapsed_seconds,
              static_cast<unsigned long long>(
                  result.stats.num_range_queries),
              static_cast<unsigned long long>(
                  result.stats.num_distance_computations));
  if (result.stats.num_svdd_trainings > 0) {
    std::printf("svdd_trainings=%llu support_vectors=%llu merges=%llu\n",
                static_cast<unsigned long long>(
                    result.stats.num_svdd_trainings),
                static_cast<unsigned long long>(
                    result.stats.num_support_vectors),
                static_cast<unsigned long long>(result.stats.num_merges));
  }
  PrintSolverStats(result.stats);
  PrintDegradedStats(result.stats);

  if (options.compare_dbscan) {
    DbscanParams exact;
    exact.epsilon = epsilon;
    exact.min_pts = options.min_pts;
    Clustering reference;
    if (const Status status = RunDbscan(dataset, exact, &reference);
        status.ok()) {
      std::printf("vs exact DBSCAN: recall=%.4f precision=%.4f "
                  "(dbscan: clusters=%d noise=%d time=%.3fs)\n",
                  PairRecall(reference.labels, result.labels),
                  PairPrecision(reference.labels, result.labels),
                  reference.num_clusters, reference.CountNoise(),
                  reference.stats.elapsed_seconds);
    } else {
      std::fprintf(stderr, "compare: %s\n", status.ToString().c_str());
    }
  }

  if (!options.output_path.empty()) {
    if (const Status status =
            WriteCsv(dataset, result.labels, options.output_path);
        !status.ok()) {
      std::fprintf(stderr, "output: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("labelled points written to %s\n",
                options.output_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dbsvec

int main(int argc, char** argv) { return dbsvec::Main(argc, argv); }
