#ifndef DBSVEC_CLI_CLI_OPTIONS_H_
#define DBSVEC_CLI_CLI_OPTIONS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/dbsvec.h"
#include "index/neighbor_index.h"
#include "model/overlay_journal.h"

namespace dbsvec::cli {

/// Top-level CLI mode. `cluster` (the default, no command word) keeps the
/// original flag-only interface; `fit` additionally persists a trained
/// DBSVEC model; `assign` serves point-assignment queries from one;
/// `serve` exposes a model over HTTP (docs/SERVING.md).
enum class Command {
  kCluster,
  kFit,
  kAssign,
  kServe,
};

/// Which clusterer the CLI runs.
enum class Algorithm {
  kDbsvec,
  kDbscan,
  kRhoApprox,
  kLshDbscan,
  kNqDbscan,
  kKMeans,
  kHdbscan,
};

/// Built-in demo data generators (used when no --input is given).
enum class DemoData {
  kNone,
  kWalk,   ///< Random-walk clusters (the paper's synthetic workload).
  kBlobs,  ///< Gaussian blobs.
  kT4,     ///< t4.8k-style 2-D scene.
};

/// Parsed command-line options of the dbsvec_cli tool.
struct CliOptions {
  Command command = Command::kCluster;
  Algorithm algorithm = Algorithm::kDbsvec;
  std::string input_path;   ///< CSV to cluster; empty => use `demo`.
  std::string output_path;  ///< Labelled CSV to write; empty => stdout
                            ///< summary only.
  DemoData demo = DemoData::kWalk;
  int demo_n = 20'000;
  int demo_dim = 8;

  double epsilon = 0.0;  ///< <= 0 => self-calibrate via SuggestEpsilon.
  int min_pts = 100;
  int kmeans_k = 10;
  int min_cluster_size = 10;  ///< HDBSCAN only.

  NuMode nu_mode = NuMode::kAuto;
  double fixed_nu = 0.1;
  IndexType index = IndexType::kKdTree;
  double rho = 0.001;
  uint64_t seed = 7;
  int threads = 0;  ///< 0 = hardware concurrency, 1 = sequential.
  int shards = 0;   ///< >= 1: sharded execution engine; 0 = unsharded.
  int sv_budget = 0;         ///< > 0: support-vector budget per solve.
  int sample_threshold = 0;  ///< > 0: boundary-preserving target sampling.

  bool compare_dbscan = false;  ///< Also run exact DBSCAN, report recall.
  bool show_help = false;

  // fit/assign (model persistence + serving).
  std::string model_out_path;  ///< fit: where to write the model.
  std::string model_path;      ///< assign: model to load.
  bool normalize = false;      ///< fit: paper-range normalization, recorded
                               ///< in the model's transform.
  int assign_batch = 4096;     ///< assign: points per AssignBatch call.

  // Robustness (docs/ROBUSTNESS.md).
  int64_t deadline_ms = 0;   ///< > 0: overall time budget for the run.
  std::string failpoints;    ///< DBSVEC_FAILPOINTS-syntax spec to arm.

  // serve (docs/SERVING.md). --model, --index, and --threads above also
  // apply; --threads sizes the global pool AssignBatch fans out on.
  std::string serve_host = "127.0.0.1";
  int serve_port = 8080;      ///< 0 binds an ephemeral port.
  int serve_io_threads = 1;   ///< Event-loop threads.
  int serve_workers = 2;      ///< Request-processing threads.
  int serve_max_inflight = 64;
  int64_t serve_default_deadline_ms = 0;  ///< Per-request default budget.
  bool serve_refresh = false;  ///< Online core absorption (overlay).

  // Multi-tenant registry (docs/SERVING.md, "Model registry"). With a
  // data dir, each model lives under <data-dir>/<name>/ with its own
  // snapshot + journal, and --model (optional) seeds the `default` model
  // on first start; without one the server is single-model in-memory
  // unless models are uploaded.
  std::string serve_data_dir;       ///< Empty = no per-model durability.
  int serve_max_models = 64;        ///< Registry capacity.
  int serve_model_max_inflight = 0; ///< Per-model admission; 0 = global only.

  // Durability (docs/ROBUSTNESS.md). --durable implies --refresh for
  // serve. assign also honors --snapshot/--journal: it then recovers
  // engine state exactly like a restarted server (the offline recovery
  // oracle the crash harness compares against).
  bool serve_durable = false;
  std::string snapshot_path;  ///< Empty => `<model>.ckpt`.
  std::string journal_path;   ///< Empty => `<model>.wal`.
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  int64_t fsync_interval_ms = 50;
  int64_t checkpoint_interval_ms = 0;  ///< 0 = manual (POST /v1/snapshot).
};

/// Parses argv into `*options`. Returns InvalidArgument with a message
/// naming the offending flag on bad input. Recognized flags are listed by
/// HelpText().
Status ParseCliOptions(const std::vector<std::string>& args,
                       CliOptions* options);

/// Usage text for --help.
std::string HelpText();

/// Human-readable algorithm name.
const char* AlgorithmName(Algorithm algorithm);

}  // namespace dbsvec::cli

#endif  // DBSVEC_CLI_CLI_OPTIONS_H_
