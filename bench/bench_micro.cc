// Google-benchmark micro-benchmarks for the library's substrates: range
// queries across index backends, SMO/SVDD training, penalty weights, and
// the pair-recall metric. These back the constant factors quoted in
// DESIGN.md and catch performance regressions in the building blocks that
// every paper experiment rests on.

#include <numeric>

#include "benchmark/benchmark.h"
#include "cluster/kmeans.h"
#include "common/rng.h"
#include "core/penalty_weights.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "index/brute_force_index.h"
#include "index/grid_index.h"
#include "index/kd_tree.h"
#include "index/lsh_index.h"
#include "index/r_star_tree.h"
#include "svm/svdd.h"

namespace dbsvec {
namespace {

Dataset MakeData(PointIndex n, int dim) {
  RandomWalkParams params;
  params.n = n;
  params.dim = dim;
  params.num_clusters = 10;
  params.seed = 99;
  return GenerateRandomWalk(params);
}

constexpr double kEps = 5000.0;

void BM_KdTreeBuild(benchmark::State& state) {
  const Dataset data = MakeData(static_cast<PointIndex>(state.range(0)), 8);
  for (auto _ : state) {
    KdTree tree(data);
    benchmark::DoNotOptimize(&tree);
  }
}
BENCHMARK(BM_KdTreeBuild)->Arg(10000)->Arg(50000);

void BM_KdTreeRangeQuery(benchmark::State& state) {
  const Dataset data = MakeData(50000, static_cast<int>(state.range(0)));
  const KdTree tree(data);
  std::vector<PointIndex> out;
  PointIndex q = 0;
  for (auto _ : state) {
    tree.RangeQuery(data.point(q), kEps, &out);
    benchmark::DoNotOptimize(out.data());
    q = (q + 17) % data.size();
  }
}
BENCHMARK(BM_KdTreeRangeQuery)->Arg(2)->Arg(8)->Arg(16);

void BM_RStarTreeRangeQuery(benchmark::State& state) {
  const Dataset data = MakeData(50000, static_cast<int>(state.range(0)));
  const RStarTree tree(data);
  std::vector<PointIndex> out;
  PointIndex q = 0;
  for (auto _ : state) {
    tree.RangeQuery(data.point(q), kEps, &out);
    benchmark::DoNotOptimize(out.data());
    q = (q + 17) % data.size();
  }
}
BENCHMARK(BM_RStarTreeRangeQuery)->Arg(2)->Arg(8);

void BM_BruteForceRangeQuery(benchmark::State& state) {
  const Dataset data = MakeData(50000, 8);
  const BruteForceIndex index(data);
  std::vector<PointIndex> out;
  PointIndex q = 0;
  for (auto _ : state) {
    index.RangeQuery(data.point(q), kEps, &out);
    benchmark::DoNotOptimize(out.data());
    q = (q + 17) % data.size();
  }
}
BENCHMARK(BM_BruteForceRangeQuery);

void BM_GridRangeQuery(benchmark::State& state) {
  const Dataset data = MakeData(50000, static_cast<int>(state.range(0)));
  const GridIndex index(data, kEps);
  std::vector<PointIndex> out;
  PointIndex q = 0;
  for (auto _ : state) {
    index.RangeQuery(data.point(q), kEps, &out);
    benchmark::DoNotOptimize(out.data());
    q = (q + 17) % data.size();
  }
}
BENCHMARK(BM_GridRangeQuery)->Arg(2)->Arg(4);

void BM_LshRangeQuery(benchmark::State& state) {
  const Dataset data = MakeData(50000, 8);
  const LshIndex index(data, kEps);
  std::vector<PointIndex> out;
  PointIndex q = 0;
  for (auto _ : state) {
    index.RangeQuery(data.point(q), kEps, &out);
    benchmark::DoNotOptimize(out.data());
    q = (q + 17) % data.size();
  }
}
BENCHMARK(BM_LshRangeQuery);

void BM_SvddTrain(benchmark::State& state) {
  const PointIndex n = static_cast<PointIndex>(state.range(0));
  const Dataset data = MakeData(n, 8);
  std::vector<PointIndex> target(n);
  std::iota(target.begin(), target.end(), 0);
  SvddParams params;
  params.nu = 0.05;
  for (auto _ : state) {
    SvddModel model;
    benchmark::DoNotOptimize(Svdd::Train(data, target, params, &model).ok());
  }
}
BENCHMARK(BM_SvddTrain)->Arg(256)->Arg(1024)->Arg(4096);

void BM_PenaltyWeights(benchmark::State& state) {
  const PointIndex n = static_cast<PointIndex>(state.range(0));
  const Dataset data = MakeData(n, 8);
  std::vector<PointIndex> target(n);
  std::iota(target.begin(), target.end(), 0);
  const std::vector<int32_t> counts(n, 1);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePenaltyWeights(
        data, target, counts, 1000.0, PenaltyWeightOptions(), &rng));
  }
}
BENCHMARK(BM_PenaltyWeights)->Arg(200)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_PairRecall(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<int32_t> a(n);
  std::vector<int32_t> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(rng.NextBounded(50));
    b[i] = static_cast<int32_t>(rng.NextBounded(50));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PairRecall(a, b));
  }
}
BENCHMARK(BM_PairRecall)->Arg(100000)->Arg(1000000);

void BM_KMeansIteration(benchmark::State& state) {
  const Dataset data = MakeData(20000, 8);
  KMeansParams params;
  params.k = 10;
  params.max_iterations = 5;
  for (auto _ : state) {
    Clustering out;
    benchmark::DoNotOptimize(RunKMeans(data, params, &out).ok());
  }
}
BENCHMARK(BM_KMeansIteration);

}  // namespace
}  // namespace dbsvec

BENCHMARK_MAIN();
