#include "cli/cli_options.h"

#include <cstdlib>

namespace dbsvec::cli {
namespace {

bool ParseKeyValue(const std::string& arg, std::string* key,
                   std::string* value) {
  if (arg.rfind("--", 0) != 0) {
    return false;
  }
  const size_t eq = arg.find('=');
  if (eq == std::string::npos) {
    *key = arg.substr(2);
    *value = "";
  } else {
    *key = arg.substr(2, eq - 2);
    *value = arg.substr(eq + 1);
  }
  return true;
}

Status ParseAlgorithm(const std::string& value, Algorithm* out) {
  if (value == "dbsvec") {
    *out = Algorithm::kDbsvec;
  } else if (value == "dbscan") {
    *out = Algorithm::kDbscan;
  } else if (value == "rho" || value == "rho-approx") {
    *out = Algorithm::kRhoApprox;
  } else if (value == "lsh" || value == "dbscan-lsh") {
    *out = Algorithm::kLshDbscan;
  } else if (value == "nq" || value == "nq-dbscan") {
    *out = Algorithm::kNqDbscan;
  } else if (value == "kmeans") {
    *out = Algorithm::kKMeans;
  } else if (value == "hdbscan") {
    *out = Algorithm::kHdbscan;
  } else {
    return Status::InvalidArgument("unknown --algorithm: " + value);
  }
  return Status::Ok();
}

Status ParseIndex(const std::string& value, IndexType* out) {
  if (value == "kd") {
    *out = IndexType::kKdTree;
  } else if (value == "rstar" || value == "rtree") {
    *out = IndexType::kRStarTree;
  } else if (value == "brute") {
    *out = IndexType::kBruteForce;
  } else if (value == "grid") {
    *out = IndexType::kGrid;
  } else {
    return Status::InvalidArgument("unknown --index: " + value);
  }
  return Status::Ok();
}

Status ParseDemo(const std::string& value, DemoData* out) {
  if (value == "walk") {
    *out = DemoData::kWalk;
  } else if (value == "blobs") {
    *out = DemoData::kBlobs;
  } else if (value == "t4") {
    *out = DemoData::kT4;
  } else {
    return Status::InvalidArgument("unknown --demo: " + value);
  }
  return Status::Ok();
}

Status ParsePositiveDouble(const std::string& key, const std::string& value,
                           double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || parsed <= 0.0) {
    return Status::InvalidArgument("--" + key + " must be a positive number");
  }
  *out = parsed;
  return Status::Ok();
}

Status ParsePositiveInt(const std::string& key, const std::string& value,
                        int* out) {
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || parsed <= 0) {
    return Status::InvalidArgument("--" + key + " must be a positive integer");
  }
  *out = static_cast<int>(parsed);
  return Status::Ok();
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kDbsvec:
      return "DBSVEC";
    case Algorithm::kDbscan:
      return "DBSCAN";
    case Algorithm::kRhoApprox:
      return "rho-approximate DBSCAN";
    case Algorithm::kLshDbscan:
      return "DBSCAN-LSH";
    case Algorithm::kNqDbscan:
      return "NQ-DBSCAN";
    case Algorithm::kKMeans:
      return "k-means";
    case Algorithm::kHdbscan:
      return "HDBSCAN*";
  }
  return "unknown";
}

std::string HelpText() {
  return
      "dbsvec_cli — density-based clustering from the command line\n"
      "\n"
      "Usage: dbsvec_cli [fit|assign|serve] [--flags]\n"
      "  (no command)  cluster a dataset, print a summary (original mode)\n"
      "  fit           cluster with DBSVEC and persist the trained model\n"
      "  assign        assign new points using a persisted model\n"
      "  serve         expose a persisted model over HTTP (docs/SERVING.md)\n"
      "\n"
      "Input (pick one):\n"
      "  --input=FILE.csv        headerless numeric CSV, one point per row\n"
      "  --demo=walk|blobs|t4    generate demo data (default: walk)\n"
      "  --demo-n=N --demo-dim=D demo size (default 20000 x 8)\n"
      "\n"
      "Clustering:\n"
      "  --algorithm=dbsvec|dbscan|rho|lsh|nq|kmeans|hdbscan  (default dbsvec)\n"
      "  --eps=X                 radius; omit to self-calibrate\n"
      "  --minpts=N              density threshold (default 100)\n"
      "  --k=N                   clusters for kmeans (default 10)\n"
      "  --mcs=N                 min cluster size for hdbscan (default 10)\n"
      "  --nu=auto|min|X         DBSVEC penalty factor (default auto)\n"
      "  --index=kd|rstar|brute|grid   range-query engine (default kd)\n"
      "  --rho=X                 rho for rho-approximate (default 0.001)\n"
      "  --seed=N                RNG seed (default 7)\n"
      "  --threads=N             worker threads: 0 = all cores (default),\n"
      "                          1 = sequential; results are identical\n"
      "  --shards=P              partition the dataset into P NUMA-homed\n"
      "                          shards with per-shard indexes (dbsvec,\n"
      "                          dbscan, assign, serve); 0 = unsharded\n"
      "                          (default); labels are identical at any P\n"
      "  --sv-budget=B           cap each SVDD solve at B support vectors\n"
      "                          (merge/forget maintenance, iteration cap\n"
      "                          linear in B); 0 = exact SMO (default)\n"
      "                          (docs/PERFORMANCE.md, bounded-cost SVDD)\n"
      "  --sample-threshold=S    train SVDD targets larger than S on a\n"
      "                          boundary-preserving sample of size S and\n"
      "                          re-check the rest against the sphere;\n"
      "                          0 = full targets (default)\n"
      "\n"
      "Output:\n"
      "  --output=FILE.csv       write points + label column\n"
      "  --compare-dbscan        also run exact DBSCAN, report recall\n"
      "  --help                  this text\n"
      "\n"
      "Model persistence (fit) / serving (assign):\n"
      "  --model-out=FILE.dbsvm  fit: write the trained model here\n"
      "  --normalize             fit: normalize to the paper range first;\n"
      "                          the transform is recorded in the model and\n"
      "                          replayed on every assigned point\n"
      "  --model=FILE.dbsvm      assign: model to load\n"
      "  --batch=N               assign: points per batched call "
      "(default 4096)\n"
      "\n"
      "Serving (serve; also honors --model, --index, --threads):\n"
      "  --host=ADDR             bind address (default 127.0.0.1)\n"
      "  --port=N                TCP port; 0 = ephemeral (default 8080)\n"
      "  --io-threads=N          event-loop threads (default 1)\n"
      "  --workers=N             request worker threads (default 2)\n"
      "  --max-inflight=N        admission bound; beyond it /v1/assign and\n"
      "                          /v1/reload are shed with 503 (default 64)\n"
      "  --deadline-ms-default=N per-request budget when the client sends\n"
      "                          no X-Deadline-Ms header (default: none)\n"
      "  --refresh               absorb core-adjacent assigned points into\n"
      "                          the dynamic overlay (online refresh)\n"
      "  --data-dir=DIR          multi-tenant model registry root: every\n"
      "                          model (PUT /v1/models/<name>) gets its own\n"
      "                          DIR/<name>/{model.dbsvec,snapshot.dbsvec,\n"
      "                          overlay.journal} and is recovered on start;\n"
      "                          --model then only seeds `default` once\n"
      "  --max-models=N          registry capacity (default 64)\n"
      "  --model-max-inflight=N  per-model admission bound on top of\n"
      "                          --max-inflight; 0 = global only (default)\n"
      "\n"
      "Durability (serve; --snapshot/--journal also apply to assign, which\n"
      "then recovers state exactly like a restarted server):\n"
      "  --durable               journal absorbed overlay points and answer\n"
      "                          POST /v1/snapshot; implies --refresh\n"
      "  --snapshot=FILE         checkpoint artifact (default <model>.ckpt)\n"
      "  --journal=FILE          write-ahead journal (default <model>.wal)\n"
      "  --fsync=always|interval|off   journal fsync policy (default\n"
      "                          interval; always = fsync per record)\n"
      "  --fsync-interval-ms=N   background fsync period (default 50)\n"
      "  --checkpoint-interval-ms=N  automatic checkpoint period;\n"
      "                          0 = manual only (default)\n"
      "\n"
      "Robustness:\n"
      "  --deadline-ms=N         overall time budget; an exceeded budget\n"
      "                          exits with a DeadlineExceeded status\n"
      "  --failpoints=SPEC       arm fault-injection sites, same syntax as\n"
      "                          the DBSVEC_FAILPOINTS env var\n"
      "                          (site:mode[:arg],...)\n";
}

Status ParseCliOptions(const std::vector<std::string>& args,
                       CliOptions* options) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string key;
    std::string value;
    if (!ParseKeyValue(arg, &key, &value)) {
      // A bare first word selects the command; anything else is an error.
      if (i == 0 && arg == "fit") {
        options->command = Command::kFit;
        continue;
      }
      if (i == 0 && arg == "assign") {
        options->command = Command::kAssign;
        continue;
      }
      if (i == 0 && arg == "serve") {
        options->command = Command::kServe;
        continue;
      }
      return Status::InvalidArgument("unexpected argument: " + arg);
    }
    if (key == "help") {
      options->show_help = true;
    } else if (key == "input") {
      options->input_path = value;
    } else if (key == "output") {
      options->output_path = value;
    } else if (key == "demo") {
      DBSVEC_RETURN_IF_ERROR(ParseDemo(value, &options->demo));
    } else if (key == "demo-n") {
      DBSVEC_RETURN_IF_ERROR(ParsePositiveInt(key, value, &options->demo_n));
    } else if (key == "demo-dim") {
      DBSVEC_RETURN_IF_ERROR(
          ParsePositiveInt(key, value, &options->demo_dim));
    } else if (key == "algorithm") {
      DBSVEC_RETURN_IF_ERROR(ParseAlgorithm(value, &options->algorithm));
    } else if (key == "eps") {
      DBSVEC_RETURN_IF_ERROR(
          ParsePositiveDouble(key, value, &options->epsilon));
    } else if (key == "minpts") {
      DBSVEC_RETURN_IF_ERROR(ParsePositiveInt(key, value, &options->min_pts));
    } else if (key == "k") {
      DBSVEC_RETURN_IF_ERROR(
          ParsePositiveInt(key, value, &options->kmeans_k));
    } else if (key == "mcs") {
      DBSVEC_RETURN_IF_ERROR(
          ParsePositiveInt(key, value, &options->min_cluster_size));
    } else if (key == "nu") {
      if (value == "auto") {
        options->nu_mode = NuMode::kAuto;
      } else if (value == "min") {
        options->nu_mode = NuMode::kMinimum;
      } else {
        options->nu_mode = NuMode::kFixed;
        DBSVEC_RETURN_IF_ERROR(
            ParsePositiveDouble(key, value, &options->fixed_nu));
        if (options->fixed_nu > 1.0) {
          return Status::InvalidArgument("--nu must be in (0, 1]");
        }
      }
    } else if (key == "index") {
      DBSVEC_RETURN_IF_ERROR(ParseIndex(value, &options->index));
    } else if (key == "rho") {
      DBSVEC_RETURN_IF_ERROR(ParsePositiveDouble(key, value, &options->rho));
    } else if (key == "seed") {
      int seed = 0;
      DBSVEC_RETURN_IF_ERROR(ParsePositiveInt(key, value, &seed));
      options->seed = static_cast<uint64_t>(seed);
    } else if (key == "threads") {
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || parsed < 0) {
        return Status::InvalidArgument(
            "--threads must be a non-negative integer");
      }
      options->threads = static_cast<int>(parsed);
    } else if (key == "shards") {
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || parsed < 0) {
        return Status::InvalidArgument(
            "--shards must be a non-negative integer");
      }
      options->shards = static_cast<int>(parsed);
    } else if (key == "sv-budget") {
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || parsed < 0) {
        return Status::InvalidArgument(
            "--sv-budget must be a non-negative integer");
      }
      options->sv_budget = static_cast<int>(parsed);
    } else if (key == "sample-threshold") {
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || parsed < 0) {
        return Status::InvalidArgument(
            "--sample-threshold must be a non-negative integer");
      }
      options->sample_threshold = static_cast<int>(parsed);
    } else if (key == "compare-dbscan") {
      options->compare_dbscan = value != "0" && value != "false";
    } else if (key == "model-out") {
      options->model_out_path = value;
    } else if (key == "model") {
      options->model_path = value;
    } else if (key == "normalize") {
      options->normalize = value != "0" && value != "false";
    } else if (key == "batch") {
      DBSVEC_RETURN_IF_ERROR(
          ParsePositiveInt(key, value, &options->assign_batch));
    } else if (key == "deadline-ms") {
      int deadline_ms = 0;
      DBSVEC_RETURN_IF_ERROR(ParsePositiveInt(key, value, &deadline_ms));
      options->deadline_ms = deadline_ms;
    } else if (key == "host") {
      options->serve_host = value;
    } else if (key == "port") {
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || parsed < 0 || parsed > 65535) {
        return Status::InvalidArgument("--port must be in [0, 65535]");
      }
      options->serve_port = static_cast<int>(parsed);
    } else if (key == "io-threads") {
      DBSVEC_RETURN_IF_ERROR(
          ParsePositiveInt(key, value, &options->serve_io_threads));
    } else if (key == "workers") {
      DBSVEC_RETURN_IF_ERROR(
          ParsePositiveInt(key, value, &options->serve_workers));
    } else if (key == "max-inflight") {
      DBSVEC_RETURN_IF_ERROR(
          ParsePositiveInt(key, value, &options->serve_max_inflight));
    } else if (key == "deadline-ms-default") {
      int default_ms = 0;
      DBSVEC_RETURN_IF_ERROR(ParsePositiveInt(key, value, &default_ms));
      options->serve_default_deadline_ms = default_ms;
    } else if (key == "refresh") {
      options->serve_refresh = value != "0" && value != "false";
    } else if (key == "data-dir") {
      if (value.empty()) {
        return Status::InvalidArgument("--data-dir needs a directory path");
      }
      options->serve_data_dir = value;
    } else if (key == "max-models") {
      DBSVEC_RETURN_IF_ERROR(
          ParsePositiveInt(key, value, &options->serve_max_models));
    } else if (key == "model-max-inflight") {
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || parsed < 0) {
        return Status::InvalidArgument(
            "--model-max-inflight must be a non-negative integer");
      }
      options->serve_model_max_inflight = static_cast<int>(parsed);
    } else if (key == "durable") {
      options->serve_durable = value != "0" && value != "false";
    } else if (key == "snapshot") {
      options->snapshot_path = value;
    } else if (key == "journal") {
      options->journal_path = value;
    } else if (key == "fsync") {
      DBSVEC_RETURN_IF_ERROR(
          ParseFsyncPolicy(value, &options->fsync_policy));
    } else if (key == "fsync-interval-ms") {
      int interval_ms = 0;
      DBSVEC_RETURN_IF_ERROR(ParsePositiveInt(key, value, &interval_ms));
      options->fsync_interval_ms = interval_ms;
    } else if (key == "checkpoint-interval-ms") {
      int interval_ms = 0;
      DBSVEC_RETURN_IF_ERROR(ParsePositiveInt(key, value, &interval_ms));
      options->checkpoint_interval_ms = interval_ms;
    } else if (key == "failpoints") {
      if (value.empty()) {
        return Status::InvalidArgument(
            "--failpoints needs a site:mode[:arg],... spec");
      }
      options->failpoints = value;
    } else {
      return Status::InvalidArgument("unknown flag: --" + key);
    }
  }
  if (options->command == Command::kFit && !options->show_help &&
      options->model_out_path.empty()) {
    return Status::InvalidArgument("fit requires --model-out=FILE");
  }
  if (options->command == Command::kAssign && !options->show_help) {
    if (options->model_path.empty()) {
      return Status::InvalidArgument("assign requires --model=FILE");
    }
    if (options->input_path.empty()) {
      return Status::InvalidArgument(
          "assign requires --input=FILE.csv (points to assign)");
    }
  }
  if (options->command == Command::kServe && !options->show_help &&
      options->model_path.empty() && options->serve_data_dir.empty()) {
    return Status::InvalidArgument(
        "serve requires --model=FILE or --data-dir=DIR");
  }
  if (options->serve_durable) {
    // A durable server journals absorbed points, so absorption must be on.
    options->serve_refresh = true;
  }
  return Status::Ok();
}

}  // namespace dbsvec::cli
