// Shared plumbing of the perfbench binary: run options, the result
// collector that becomes the final JSON line, and small statistics helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "core/dbsvec.h"
#include "model/dbsvec_model.h"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget of the run (the timed loop, not set-up).
  double seconds = 10.0;
  /// false: end-to-end metrics; true: the traced run with per-layer metrics.
  bool trace = false;
  /// Small inputs so the benchmark's own tests finish in seconds.
  bool smoke = false;
  /// Scratch directory for model files and span dumps.
  std::string work_dir = ".";
};

/// Collects metrics, operation counts and free-form detail for one run.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Extra context printed on the detail line (sample counts, rung table).
  void Detail(const std::string& key, const std::string& json_value);
  void Detail(const std::string& key, double value);

  /// Counts one checked operation; `ok` false marks it failed.
  void Count(bool ok, uint64_t n = 1) {
    attempted_ += n;
    if (!ok) failed_ += n;
  }
  /// Records `n` failed operations with a reason.
  void Fail(const std::string& reason, uint64_t n = 1);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The detail line (JSON object) and the final result line.
  std::string DetailJson() const;
  std::string ResultJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> detail_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Monotonic seconds (steady_clock) since an arbitrary process epoch.
double Now();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100] (0 when empty).
double Percentile(std::vector<double> values, double p);

/// Peak resident set size (VmHWM) since the process started or since the
/// last ResetPeakRss, in MiB.
double PeakRssMb();
/// Returns freed heap memory to the system and restarts the peak, so the
/// next PeakRssMb covers only what follows.
void ResetPeakRss();

/// Renders a double with every significant digit.
std::string Num(double value);
/// Renders `values` as a JSON array.
std::string NumList(const std::vector<double>& values);

/// splitmix64 — derives independent sub-seeds from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// `data` with its points in a seeded random order.
dbsvec::Dataset Shuffled(const dbsvec::Dataset& data, uint64_t seed);

/// Generator seeds of the workloads' point sets (see MakeInput).
constexpr uint64_t kWalkDataSeed = 23;
constexpr uint64_t kBlobsDataSeed = 17;

/// A dataset to cluster and the parameters to cluster it with.
struct FitInput {
  dbsvec::Dataset data{1};
  dbsvec::DbsvecParams params;
};

/// Workload entry points; each fills `report` and returns false only when
/// the run could not produce a result at all.
bool RunFitWorkload(const Options& options, Report* report);
bool RunServeWorkload(const Options& options, Report* report);

/// The traced run's fit layers (index, core, svm, simd, common), measured
/// on `input` for about `options.seconds`; reports their per-layer metrics
/// and trace_overhead_frac. When `model` is non-null it receives the model
/// of the reference fit. Every workload fits, so every traced run calls
/// this.
void TraceFitLayers(const FitInput& input, const Options& options,
                    Report* report, dbsvec::DbsvecModel* model);

/// The traced run's serving layers (serve, server, model), replayed
/// offline on `model` with `queries` sent as single-point JSON bodies or
/// as 256-point binary bodies (`batch`). `online_refresh` configures the
/// replay engine like the served one. Reports their per-layer metrics.
bool ReplayServeLayers(const dbsvec::DbsvecModel& model,
                       const dbsvec::Dataset& queries, bool batch,
                       bool online_refresh, const Options& options,
                       Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
