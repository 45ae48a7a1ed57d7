// Cross-cutting checks on the instrumentation every bench harness relies
// on: the counters in ClusteringStats and NeighborIndex must be mutually
// consistent and match the algorithms' cost models.

#include <memory>

#include "cluster/dbscan.h"
#include "cluster/nq_dbscan.h"
#include "common/thread_pool.h"
#include "core/dbsvec.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "index/neighbor_index.h"
#include "test_util.h"

namespace dbsvec {
namespace {

Dataset Blobs(PointIndex n, uint64_t seed) {
  GaussianBlobsParams gen;
  gen.n = n;
  gen.dim = 2;
  gen.num_clusters = 3;
  gen.stddev = 1.0;
  gen.noise_fraction = 0.05;
  gen.seed = seed;
  return GenerateGaussianBlobs(gen);
}

TEST(StatsConsistencyTest, DbscanIssuesExactlyOneQueryPerPoint) {
  const Dataset dataset = Blobs(700, 601);
  DbscanParams params;
  params.min_pts = 6;
  params.epsilon = SuggestEpsilon(dataset, params.min_pts);
  for (const IndexType index :
       {IndexType::kBruteForce, IndexType::kKdTree, IndexType::kRStarTree,
        IndexType::kGrid}) {
    params.index = index;
    Clustering out;
    ASSERT_TRUE(RunDbscan(dataset, params, &out).ok());
    // Every point is visited once, plus one expansion query per point
    // labelled during growth — the total equals n plus the number of
    // frontier pops, which is exactly the number of clustered points.
    const uint64_t clustered = static_cast<uint64_t>(
        dataset.size() - out.CountNoise());
    EXPECT_GE(out.stats.num_range_queries, clustered)
        << IndexTypeName(index);
    EXPECT_LE(out.stats.num_range_queries,
              static_cast<uint64_t>(dataset.size()) + clustered)
        << IndexTypeName(index);
    EXPECT_GT(out.stats.num_distance_computations, 0u)
        << IndexTypeName(index);
  }
}

TEST(StatsConsistencyTest, BruteForceDistanceCountIsQueriesTimesN) {
  const Dataset dataset = Blobs(500, 603);
  DbscanParams params;
  params.min_pts = 6;
  params.epsilon = SuggestEpsilon(dataset, params.min_pts);
  params.index = IndexType::kBruteForce;
  Clustering out;
  ASSERT_TRUE(RunDbscan(dataset, params, &out).ok());
  EXPECT_EQ(out.stats.num_distance_computations,
            out.stats.num_range_queries *
                static_cast<uint64_t>(dataset.size()));
}

TEST(StatsConsistencyTest, TreeIndexPrunesDistanceComputations) {
  const Dataset dataset = Blobs(2000, 605);
  DbscanParams params;
  params.min_pts = 8;
  params.epsilon = SuggestEpsilon(dataset, params.min_pts);
  params.index = IndexType::kBruteForce;
  Clustering brute;
  ASSERT_TRUE(RunDbscan(dataset, params, &brute).ok());
  params.index = IndexType::kKdTree;
  Clustering kd;
  ASSERT_TRUE(RunDbscan(dataset, params, &kd).ok());
  EXPECT_LT(kd.stats.num_distance_computations,
            brute.stats.num_distance_computations / 2);
}

TEST(StatsConsistencyTest, DbsvecQueriesNeverExceedDbscanScale) {
  const Dataset dataset = Blobs(1500, 607);
  const int min_pts = 8;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  // theta*n bound: s + k + m + MinPts*l queries, all far below 2n even in
  // the worst case of this workload.
  EXPECT_LT(out.stats.num_range_queries,
            2 * static_cast<uint64_t>(dataset.size()));
  EXPECT_GT(out.stats.num_svdd_trainings, 0u);
  EXPECT_GE(out.stats.num_support_vectors, out.stats.num_svdd_trainings);
  EXPECT_GT(out.stats.smo_iterations, 0);
  EXPECT_GE(out.stats.noise_list_size,
            static_cast<uint64_t>(out.CountNoise()));
  EXPECT_GE(out.stats.elapsed_seconds, 0.0);
}

TEST(StatsConsistencyTest, CappedSolvesCountOnlyCapSubsampledRounds) {
  const Dataset dataset = Blobs(1500, 615);
  DbsvecParams params;
  params.min_pts = 8;
  params.epsilon = SuggestEpsilon(dataset, params.min_pts);

  params.max_svdd_target = 0;
  Clustering uncapped;
  ASSERT_TRUE(RunDbsvec(dataset, params, &uncapped).ok());
  EXPECT_GT(uncapped.stats.num_svdd_trainings, 0u);
  EXPECT_EQ(uncapped.stats.num_capped_solves, 0u);

  // ~475-point blobs: a cap of 64 subsamples the first rounds of every
  // sub-cluster, and the count is a pure function of the run, so it must
  // not move with the thread count.
  params.max_svdd_target = 64;
  Clustering capped[2];
  const int threads[2] = {1, 8};
  for (int k = 0; k < 2; ++k) {
    SetGlobalThreads(threads[k]);
    const Status status = RunDbsvec(dataset, params, &capped[k]);
    SetGlobalThreads(0);
    ASSERT_TRUE(status.ok());
  }
  EXPECT_GT(capped[0].stats.num_capped_solves, 0u);
  EXPECT_LE(capped[0].stats.num_capped_solves,
            capped[0].stats.num_svdd_trainings +
                capped[0].stats.num_svdd_fallbacks);
  EXPECT_EQ(capped[0].stats.num_capped_solves,
            capped[1].stats.num_capped_solves);
  EXPECT_EQ(capped[0].labels, capped[1].labels);
}

TEST(StatsConsistencyTest, NqDbscanCountsFullScansPerSeed) {
  const Dataset dataset = Blobs(600, 609);
  NqDbscanParams params;
  params.min_pts = 6;
  params.epsilon = SuggestEpsilon(dataset, params.min_pts);
  Clustering out;
  ASSERT_TRUE(RunNqDbscan(dataset, params, &out).ok());
  // At least one full scan (n distance computations) per cluster seed and
  // per noise point.
  const uint64_t seeds =
      static_cast<uint64_t>(out.num_clusters) +
      static_cast<uint64_t>(out.CountNoise());
  EXPECT_GE(out.stats.num_distance_computations,
            seeds * static_cast<uint64_t>(dataset.size()) / 2);
}

TEST(StatsConsistencyTest, IndexCountersAccumulateAndReset) {
  const Dataset dataset = Blobs(300, 611);
  const std::unique_ptr<NeighborIndex> index =
      CreateIndex(IndexType::kKdTree, dataset);
  std::vector<PointIndex> out;
  index->RangeQuery(dataset.point(0), 1.0, &out);
  (void)index->RangeCount(dataset.point(1), 1.0);
  EXPECT_EQ(index->num_range_queries(), 2u);
  index->ResetCounters();
  EXPECT_EQ(index->num_range_queries(), 0u);
  EXPECT_EQ(index->num_distance_computations(), 0u);
}

TEST(StatsConsistencyTest, IndexFactoryAndNames) {
  const Dataset dataset = Blobs(50, 613);
  for (const IndexType type :
       {IndexType::kBruteForce, IndexType::kKdTree, IndexType::kRStarTree,
        IndexType::kGrid}) {
    const std::unique_ptr<NeighborIndex> index =
        CreateIndex(type, dataset, 1.0);
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(&index->dataset(), &dataset);
    EXPECT_GT(std::string(IndexTypeName(type)).size(), 0u);
  }
}

}  // namespace
}  // namespace dbsvec
