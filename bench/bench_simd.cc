// SIMD micro-kernel harness: throughput of the batched primitives
// (squared-distance and eps-count over SoA blocks) scalar vs the best
// vector backend (AVX-512 when available, else AVX2) at d ∈ {2, 8, 32},
// the Gaussian-kernel exp in ns per element (glibc exp against KernelExp
// on every available backend), plus end-to-end DBSVEC wall time on the
// Fig. 6 random-walk workload with the SIMD dispatch forced off and on —
// unsharded and sharded. Labels must be bit-identical across backends —
// the harness fails otherwise. The JSON additionally reports the
// primitive-vs-e2e speedup ratio: how much of the micro-kernel gain
// survives to the full fit.
//
// Flags: --points --reps --n --dim --eps --minpts --seed --shards --out
// Writes BENCH_simd.json next to the text tables.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/dataset.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/dbsvec.h"
#include "data/synthetic.h"
#include "simd/simd.h"
#include "simd/soa_block.h"

namespace dbsvec {
namespace {

struct PrimitiveRun {
  std::string primitive;
  int dim = 0;
  double scalar_mpts = 0.0;  // Million point-distances per second.
  double simd_mpts = 0.0;
  double speedup = 1.0;
};

Dataset RandomDataset(PointIndex n, int dim, uint64_t seed) {
  Rng rng(seed);
  Dataset dataset(dim);
  dataset.Reserve(n);
  std::vector<double> p(dim);
  for (PointIndex i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) {
      p[j] = rng.Uniform(0.0, 100.0);
    }
    dataset.Append(p);
  }
  return dataset;
}

/// Best-of-`reps` wall time of `body()` (which must consume its result via
/// the returned checksum so the work cannot be optimized away).
template <typename Body>
double BestSeconds(int reps, double* checksum, const Body& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    *checksum += body();
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed < best) {
      best = elapsed;
    }
  }
  return best;
}

double DistancePass(const simd::SoaBlockView& view,
                    std::span<const double> query, double* d2, int inner) {
  double sum = 0.0;
  for (int k = 0; k < inner; ++k) {
    view.SquaredDistances(query, 0, view.size(), d2);
    sum += d2[view.size() - 1];
  }
  return sum;
}

double CountPass(const simd::SoaBlockView& view, std::span<const double> query,
                 double eps_sq, int inner) {
  size_t total = 0;
  for (int k = 0; k < inner; ++k) {
    total += view.CountWithin(query, 0, view.size(), eps_sq);
  }
  return static_cast<double>(total);
}

/// One kernel row's exp over `d2` per inner pass, through `exp_row`.
template <typename ExpRow>
double ExpPass(const std::vector<double>& d2, double c, double* out,
               int inner, const ExpRow& exp_row) {
  double sum = 0.0;
  for (int k = 0; k < inner; ++k) {
    exp_row(d2.data(), c, out, d2.size());
    sum += out[d2.size() - 1];
  }
  return sum;
}

int Main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const PointIndex points =
      static_cast<PointIndex>(args.GetInt("points", 4'096));
  const int reps = static_cast<int>(args.GetInt("reps", 7));
  const std::string json_path = args.GetString("out", "BENCH_simd.json");
  const int e2e_shards = static_cast<int>(args.GetInt("shards", 4));
  const bool have_avx2 = simd::Avx2Available();
  const bool have_avx512 = simd::Avx512Available();
  const simd::Backend best = have_avx512  ? simd::Backend::kAvx512
                             : have_avx2 ? simd::Backend::kAvx2
                                         : simd::Backend::kScalar;
  const bool have_simd = best != simd::Backend::kScalar;
  const char* best_name = simd::BackendName(best);

  std::printf("simd backends: scalar%s%s (best: %s)\n",
              have_avx2 ? ", avx2" : "", have_avx512 ? ", avx512" : "",
              best_name);

  // --- Primitive throughput, cache-resident blocks -----------------------
  std::vector<PrimitiveRun> primitives;
  bench::Table prim_table(
      {"primitive", "dim", "scalar Mpt/s", "simd Mpt/s", "speedup"});
  double checksum = 0.0;
  for (const int dim : {2, 8, 32}) {
    const Dataset dataset = RandomDataset(points, dim, 1000 + dim);
    const simd::SoaBlockView view(dataset);
    std::vector<double> query(dataset.point(0).begin(),
                              dataset.point(0).end());
    std::vector<double> d2(view.size());
    // Scale the inner loop so one timed pass does ~16M point-distances.
    const int inner = static_cast<int>(16'000'000 / points) + 1;
    const double total = static_cast<double>(points) * inner;

    // eps_sq near the median distance keeps the count branch honest.
    view.SquaredDistances(query, 0, view.size(), d2.data());
    std::vector<double> sorted = d2;
    std::sort(sorted.begin(), sorted.end());
    const double eps_sq = sorted[sorted.size() / 2];

    struct Timing {
      double scalar = 0.0;
      double simd = 0.0;
    };
    Timing dist, count;
    {
      simd::ForceBackend(simd::Backend::kScalar);
      dist.scalar = BestSeconds(reps, &checksum, [&] {
        return DistancePass(view, query, d2.data(), inner);
      });
      count.scalar = BestSeconds(reps, &checksum, [&] {
        return CountPass(view, query, eps_sq, inner);
      });
    }
    if (have_simd) {
      simd::ForceBackend(best);
      dist.simd = BestSeconds(reps, &checksum, [&] {
        return DistancePass(view, query, d2.data(), inner);
      });
      count.simd = BestSeconds(reps, &checksum, [&] {
        return CountPass(view, query, eps_sq, inner);
      });
    }

    const auto add = [&](const char* name, const Timing& t) {
      PrimitiveRun run;
      run.primitive = name;
      run.dim = dim;
      run.scalar_mpts = total / t.scalar / 1e6;
      run.simd_mpts = t.simd > 0.0 ? total / t.simd / 1e6 : 0.0;
      run.speedup = t.simd > 0.0 ? t.scalar / t.simd : 1.0;
      prim_table.AddRow({run.primitive, std::to_string(dim),
                         bench::FormatDouble(run.scalar_mpts, 1),
                         bench::FormatDouble(run.simd_mpts, 1),
                         bench::FormatDouble(run.speedup, 2)});
      primitives.push_back(run);
    };
    add("squared_distance", dist);
    add("count_within", count);
  }
  prim_table.Print();

  // --- Gaussian-kernel exp, ns per element --------------------------------
  // One kernel row of the d = 8 dataset with σ at the median distance, so
  // the exponents span the range the penalty weights and SMO rows see.
  struct ExpRun {
    std::string name;
    double ns = 0.0;
  };
  std::vector<ExpRun> exp_runs;
  {
    const Dataset dataset = RandomDataset(points, 8, 1008);
    const simd::SoaBlockView view(dataset);
    std::vector<double> d2(view.size());
    view.SquaredDistances(dataset.point(0), 0, view.size(), d2.data());
    std::vector<double> sorted = d2;
    std::sort(sorted.begin(), sorted.end());
    const double c = 1.0 / (2.0 * sorted[sorted.size() / 2]);
    std::vector<double> out(d2.size());
    const int inner = static_cast<int>(16'000'000 / points) + 1;
    const double total = static_cast<double>(points) * inner;
    const auto ns = [&](const auto& exp_row) {
      return BestSeconds(reps, &checksum, [&] {
               return ExpPass(d2, c, out.data(), inner, exp_row);
             }) /
             total * 1e9;
    };
    exp_runs.push_back(
        {"glibc", ns([](const double* x, double cc, double* y, size_t n) {
           for (size_t k = 0; k < n; ++k) {
             y[k] = std::exp(-x[k] * cc);
           }
         })});
    std::vector<simd::Backend> backends = {simd::Backend::kScalar};
    if (have_avx2) {
      backends.push_back(simd::Backend::kAvx2);
    }
    if (have_avx512) {
      backends.push_back(simd::Backend::kAvx512);
    }
    for (const simd::Backend backend : backends) {
      simd::ForceBackend(backend);
      exp_runs.push_back({std::string("KernelExp ") +
                              simd::BackendName(backend),
                          ns(simd::ActiveOps().kernel_exp)});
    }
  }
  bench::Table exp_table({"exp", "ns/element"});
  for (const ExpRun& run : exp_runs) {
    exp_table.AddRow({run.name, bench::FormatDouble(run.ns, 2)});
  }
  exp_table.Print();

  // --- End-to-end DBSVEC on the Fig. 6 workload --------------------------
  RandomWalkParams data;
  data.n = static_cast<PointIndex>(args.GetInt("n", 100'000));
  data.dim = static_cast<int>(args.GetInt("dim", 8));
  data.seed = static_cast<uint64_t>(args.GetInt("seed", 23));
  DbsvecParams params;
  params.epsilon = args.GetDouble("eps", 5'000.0);
  params.min_pts = static_cast<int>(args.GetInt("minpts", 100));

  std::printf("generating random-walk workload: n=%d dim=%d seed=%llu\n",
              data.n, data.dim, static_cast<unsigned long long>(data.seed));
  const Dataset dataset = GenerateRandomWalk(data);

  struct E2eRun {
    std::string backend;
    int shards = 0;
    double seconds = 0.0;
    double speedup = 1.0;  // vs scalar at the same shard count.
    bool labels_match = true;
  };
  std::vector<E2eRun> e2e_runs;
  bool labels_match = true;
  double scalar_seconds = 0.0;  // Unsharded scalar reference.
  double simd_seconds = 0.0;    // Unsharded best-backend time.
  bench::Table e2e_table({"backend", "shards", "seconds", "speedup", "match"});
  for (const int shards : {0, e2e_shards}) {
    if (shards != 0 && shards == e2e_shards && e2e_shards <= 0) {
      break;
    }
    params.shards = shards;
    // The scalar run at this shard count is both the timing and the label
    // reference (label numbering is only comparable within a shard
    // setting: the sharded engine's merged neighbor order is sorted, the
    // unsharded engines' is traversal order).
    double shard_scalar_seconds = 0.0;
    std::vector<int32_t> shard_scalar_labels;
    {
      simd::ForceBackend(simd::Backend::kScalar);
      Clustering result;
      Stopwatch timer;
      const Status status = RunDbsvec(dataset, params, &result);
      shard_scalar_seconds = timer.ElapsedSeconds();
      if (!status.ok()) {
        std::fprintf(stderr, "dbsvec(scalar, shards=%d): %s\n", shards,
                     status.ToString().c_str());
        return 1;
      }
      shard_scalar_labels = std::move(result.labels);
      if (shards == 0) {
        scalar_seconds = shard_scalar_seconds;
      }
      e2e_runs.push_back({"scalar", shards, shard_scalar_seconds, 1.0, true});
      e2e_table.AddRow({"scalar", std::to_string(shards),
                        bench::FormatSeconds(shard_scalar_seconds), "1.00",
                        "yes"});
    }
    if (have_simd) {
      simd::ForceBackend(best);
      Clustering result;
      Stopwatch timer;
      const Status status = RunDbsvec(dataset, params, &result);
      const double elapsed = timer.ElapsedSeconds();
      if (!status.ok()) {
        std::fprintf(stderr, "dbsvec(%s, shards=%d): %s\n", best_name, shards,
                     status.ToString().c_str());
        return 1;
      }
      const bool match = result.labels == shard_scalar_labels;
      labels_match = labels_match && match;
      if (shards == 0) {
        simd_seconds = elapsed;
      }
      e2e_runs.push_back(
          {best_name, shards, elapsed, shard_scalar_seconds / elapsed, match});
      e2e_table.AddRow({best_name, std::to_string(shards),
                        bench::FormatSeconds(elapsed),
                        bench::FormatDouble(shard_scalar_seconds / elapsed, 2),
                        match ? "yes" : "NO"});
    }
  }
  e2e_table.Print();

  // Primitive-vs-e2e ratio: how much of the micro-kernel speedup (the
  // squared-distance primitive at the e2e workload's dimensionality, or
  // the geometric mean over measured dims when absent) survives to the
  // full unsharded fit. A ratio near 1 means the fit is distance-bound;
  // well below 1 means Amdahl overhead (SMO, expansion bookkeeping)
  // dominates.
  double primitive_speedup = 0.0;
  {
    double log_sum = 0.0;
    int matching = 0;
    for (const PrimitiveRun& run : primitives) {
      if (run.primitive == std::string("squared_distance") &&
          run.dim == data.dim) {
        primitive_speedup = run.speedup;
      }
    }
    if (primitive_speedup == 0.0) {
      for (const PrimitiveRun& run : primitives) {
        if (run.primitive == std::string("squared_distance") &&
            run.speedup > 0.0) {
          log_sum += std::log(run.speedup);
          ++matching;
        }
      }
      primitive_speedup = matching > 0
                              ? std::exp(log_sum / matching)
                              : 1.0;
    }
  }
  const double e2e_speedup =
      simd_seconds > 0.0 ? scalar_seconds / simd_seconds : 1.0;
  const double primitive_vs_e2e_ratio =
      primitive_speedup > 0.0 ? e2e_speedup / primitive_speedup : 1.0;
  std::printf("primitive speedup %.2fx, e2e speedup %.2fx — ratio %.2f\n",
              primitive_speedup, e2e_speedup, primitive_vs_e2e_ratio);

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"avx2_available\": " << (have_avx2 ? "true" : "false") << ",\n"
       << "  \"avx512_available\": " << (have_avx512 ? "true" : "false")
       << ",\n"
       << "  \"simd_backend\": \"" << best_name << "\",\n"
       << "  \"primitive_points\": " << points << ",\n"
       << "  \"primitives\": [\n";
  for (size_t i = 0; i < primitives.size(); ++i) {
    const PrimitiveRun& run = primitives[i];
    json << "    {\"primitive\": \"" << run.primitive
         << "\", \"dim\": " << run.dim << ", \"scalar_mpts\": "
         << run.scalar_mpts << ", \"simd_mpts\": " << run.simd_mpts
         << ", \"speedup\": " << run.speedup << "}"
         << (i + 1 < primitives.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"exp_ns_per_element\": {";
  for (size_t i = 0; i < exp_runs.size(); ++i) {
    json << "\"" << exp_runs[i].name << "\": " << exp_runs[i].ns
         << (i + 1 < exp_runs.size() ? ", " : "");
  }
  json << "},\n"
       << "  \"end_to_end\": {\"workload\": {\"generator\": \"random_walk\", "
       << "\"n\": " << data.n << ", \"dim\": " << data.dim
       << ", \"eps\": " << params.epsilon << ", \"minpts\": "
       << params.min_pts << ", \"seed\": " << data.seed << "},\n"
       << "    \"scalar_seconds\": " << scalar_seconds
       << ", \"simd_seconds\": " << simd_seconds << ", \"speedup\": "
       << e2e_speedup
       << ", \"labels_match\": " << (labels_match ? "true" : "false")
       << ",\n    \"runs\": [\n";
  for (size_t i = 0; i < e2e_runs.size(); ++i) {
    const E2eRun& run = e2e_runs[i];
    json << "      {\"backend\": \"" << run.backend << "\", \"shards\": "
         << run.shards << ", \"seconds\": " << run.seconds
         << ", \"speedup\": " << run.speedup << ", \"labels_match\": "
         << (run.labels_match ? "true" : "false") << "}"
         << (i + 1 < e2e_runs.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n"
       << "  \"primitive_vs_e2e\": {\"primitive_speedup\": "
       << primitive_speedup << ", \"e2e_speedup\": " << e2e_speedup
       << ", \"ratio\": " << primitive_vs_e2e_ratio << "}\n}\n";
  std::printf("[json written to %s] (checksum %.3g)\n", json_path.c_str(),
              checksum);

  if (!labels_match) {
    std::fprintf(stderr,
                 "FAIL: labels diverged between the scalar and %s backends "
                 "— the determinism contract is broken\n", best_name);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dbsvec

int main(int argc, char** argv) { return dbsvec::Main(argc, argv); }
