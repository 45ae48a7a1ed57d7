// perfbench: the repository benchmark. One process runs one workload at one
// seed and prints, as its last stdout line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The two lines before it describe the host and the run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>]
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "simd/simd.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Detail(const std::string& key, const std::string& json_value) {
  detail_.emplace_back(key, json_value);
}

void Report::Detail(const std::string& key, double value) {
  detail_.emplace_back(key, Num(value));
}

void Report::Fail(const std::string& reason, uint64_t n) {
  Count(false, n);
  if (failures_.size() < 16) failures_.push_back(reason);
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Report::DetailJson() const {
  std::string out = "{\"detail\": {";
  bool first = true;
  for (const auto& [key, value] : detail_) {
    out += (first ? "" : ", ") + Quote(key) + ": " + value;
    first = false;
  }
  out += "}, \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + Quote(failures_[i]);
  }
  return out + "]}";
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    out += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " +
           Num(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}}";
}

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

dbsvec::Dataset Shuffled(const dbsvec::Dataset& data, uint64_t seed) {
  std::vector<dbsvec::PointIndex> order(data.size());
  for (dbsvec::PointIndex i = 0; i < data.size(); ++i) order[i] = i;
  dbsvec::Rng rng(Mix(seed, 1));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  dbsvec::Dataset out(data.dim());
  for (const dbsvec::PointIndex i : order) out.Append(data.point(i));
  return out;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : value;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (!value(&v)) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      options.trace = v == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = v;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (options.workload.empty() || !have_seed || options.seconds <= 0.0) {
    return Usage("--workload, --seed and a positive --seconds are required");
  }

  // Pin the environment: an armed failpoint would turn the benchmark into a
  // fault-injection run, and the cache budget and SIMD backend change what
  // is measured. The values found are recorded on the host line.
  if (std::getenv("DBSVEC_FAILPOINTS") != nullptr) {
    std::fprintf(stderr, "perfbench: refusing to run with DBSVEC_FAILPOINTS "
                         "set\n");
    return 1;
  }
  const std::string cache_env = EnvOr("DBSVEC_CACHE_MB", "");
  const std::string simd_env = EnvOr("DBSVEC_SIMD", "");
  setenv("DBSVEC_CACHE_MB", "0", 1);
  unsetenv("DBSVEC_SIMD");
  // The library runs sequentially (a pool of one) everywhere except the
  // traced run's pool comparison. On the shared 4-vCPU VMs this was built
  // on, a 4-thread pool made fits 1.5-1.9x slower than one thread and
  // spread their run medians 3x wider: waking a pool thread on an idle
  // vCPU costs up to milliseconds, and the fit wakes them thousands of
  // times. common.pool_speedup_vs_1t keeps the pool's effect in view.
  dbsvec::SetGlobalThreads(1);

  const bool fit = options.workload == "fit_walk8d" ||
                   options.workload == "fit_blobs2d_noisy";
  const bool serve = options.workload == "serve_point_json" ||
                     options.workload == "serve_batch_refresh";
  if (!fit && !serve) {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  const std::string host =
      "{\"host\": {\"cpu\": " + Quote(CpuModel()) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd_backend\": " +
      Quote(dbsvec::simd::BackendName(dbsvec::simd::ActiveBackend())) +
      ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
      ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
      ", \"pool_threads\": " + std::to_string(dbsvec::GlobalThreads()) +
      ", \"workload\": " + Quote(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"data_seed\": " +
      std::to_string(options.workload == "fit_blobs2d_noisy"
                         ? kBlobsDataSeed
                         : kWalkDataSeed) +
      ", \"unseen_seed\": " +
      std::to_string(Mix(options.seed, 0x5eed) % 1000000007) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"smoke\": " + (options.smoke ? "1" : "0") +
      ", \"env_DBSVEC_CACHE_MB\": " + Quote(cache_env) +
      ", \"env_DBSVEC_SIMD\": " + Quote(simd_env) +
      ", \"pinned\": \"DBSVEC_CACHE_MB=0, DBSVEC_SIMD unset (auto)\"}}";
  std::printf("%s\n", host.c_str());
  std::fflush(stdout);

  Report report;
  const bool ok = fit ? RunFitWorkload(options, &report)
                      : RunServeWorkload(options, &report);
  if (ok) {
    std::printf("%s\n%s\n", report.DetailJson().c_str(),
                report.ResultJson().c_str());
  } else {
    std::fprintf(stderr, "perfbench: %s\n", report.DetailJson().c_str());
  }
  // _Exit, not return: serving runs leave their servers running (see
  // KeepAlive in serve_bench.cc), and static destructors must not race
  // their threads.
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(ok ? 0 : 1);
}
