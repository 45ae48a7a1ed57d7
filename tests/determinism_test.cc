// Bit-identical determinism of the parallel execution paths: every
// clusterer must produce the same labels, point types, and statistics
// (except wall-clock time) whether it runs sequentially or on a thread
// pool. This is the contract documented in docs/ALGORITHM.md — parallelism
// fans out pure computations and absorbs their results in a fixed order,
// so thread count must be unobservable in the output.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/dbscan.h"
#include "common/thread_pool.h"
#include "core/dbsvec.h"
#include "data/synthetic.h"
#include "serve/assignment_engine.h"

namespace dbsvec {
namespace {

// Thread counts compared against the sequential run. 8 exceeds the core
// count of small CI machines on purpose: oversubscription shuffles task
// interleavings harder than a perfectly sized pool.
constexpr int kParallelThreads = 8;

// Restores the global thread budget on scope exit so a failing test cannot
// leak a pool into unrelated tests of this binary.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { SetGlobalThreads(threads); }
  ~ScopedThreads() { SetGlobalThreads(0); }
};

Dataset WalkDataset() {
  RandomWalkParams params;
  params.n = 6'000;
  params.dim = 4;
  params.num_clusters = 6;
  params.seed = 23;
  return GenerateRandomWalk(params);
}

void ExpectSameStats(const ClusteringStats& a, const ClusteringStats& b) {
  EXPECT_EQ(a.num_range_queries, b.num_range_queries);
  EXPECT_EQ(a.num_distance_computations, b.num_distance_computations);
  EXPECT_EQ(a.num_svdd_trainings, b.num_svdd_trainings);
  EXPECT_EQ(a.num_support_vectors, b.num_support_vectors);
  EXPECT_EQ(a.num_merges, b.num_merges);
  EXPECT_EQ(a.noise_list_size, b.noise_list_size);
  EXPECT_EQ(a.smo_iterations, b.smo_iterations);
  EXPECT_EQ(a.num_capped_solves, b.num_capped_solves);
}

void ExpectSameClustering(const Clustering& a, const Clustering& b) {
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.point_types, b.point_types);
  ExpectSameStats(a.stats, b.stats);
}

constexpr IndexType kEngines[] = {IndexType::kBruteForce, IndexType::kKdTree,
                                  IndexType::kRStarTree, IndexType::kGrid};

TEST(DeterminismTest, DbsvecMatchesSequentialOnEveryEngine) {
  const Dataset dataset = WalkDataset();
  for (const IndexType engine : kEngines) {
    DbsvecParams params;
    params.epsilon = 5'000.0;
    params.min_pts = 60;
    params.index = engine;
    params.classify_points = true;

    Clustering sequential;
    {
      ScopedThreads threads(1);
      ASSERT_TRUE(RunDbsvec(dataset, params, &sequential).ok());
    }
    Clustering parallel;
    {
      ScopedThreads threads(kParallelThreads);
      ASSERT_TRUE(RunDbsvec(dataset, params, &parallel).ok());
    }
    SCOPED_TRACE(static_cast<int>(engine));
    ExpectSameClustering(sequential, parallel);
  }
}

TEST(DeterminismTest, DbscanMatchesSequentialOnEveryEngine) {
  const Dataset dataset = WalkDataset();
  for (const IndexType engine : kEngines) {
    DbscanParams params;
    params.epsilon = 5'000.0;
    params.min_pts = 60;
    params.index = engine;

    Clustering sequential;
    {
      ScopedThreads threads(1);
      ASSERT_TRUE(RunDbscan(dataset, params, &sequential).ok());
    }
    Clustering parallel;
    {
      ScopedThreads threads(kParallelThreads);
      ASSERT_TRUE(RunDbscan(dataset, params, &parallel).ok());
    }
    SCOPED_TRACE(static_cast<int>(engine));
    ExpectSameClustering(sequential, parallel);
  }
}

TEST(DeterminismTest, RepeatedParallelRunsAreStable) {
  // Two runs at the same thread count must also agree with each other —
  // catches races whose effect varies run to run rather than diverging
  // from the sequential baseline.
  const Dataset dataset = WalkDataset();
  DbsvecParams params;
  params.epsilon = 5'000.0;
  params.min_pts = 60;

  ScopedThreads threads(kParallelThreads);
  Clustering first;
  ASSERT_TRUE(RunDbsvec(dataset, params, &first).ok());
  Clustering second;
  ASSERT_TRUE(RunDbsvec(dataset, params, &second).ok());
  ExpectSameClustering(first, second);
}

TEST(ThreadPoolTest, ExecuteRunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.Execute(static_cast<int>(hits.size()), [&](int task) {
    hits[static_cast<size_t>(task)].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, NestedExecuteRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.Execute(8, [&](int) {
    // A task that itself calls Execute must not deadlock; nested work runs
    // inline on the calling worker.
    pool.Execute(4, [&](int) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ScopedThreads threads(kParallelThreads);
  std::vector<std::atomic<int>> hits(10'000);
  ParallelFor(hits.size(), /*grain=*/64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, GlobalBudgetOfOneDisablesPool) {
  ScopedThreads threads(1);
  EXPECT_EQ(GlobalThreads(), 1);
  EXPECT_EQ(GlobalThreadPool(), nullptr);
}

// --- Sharded execution engine -------------------------------------------
//
// The sharded engine's merged range-query results depend only on the point
// *set* (per-shard hits are globally sorted by id), so clustering output
// must be bit-identical at every shard count >= 1 and every thread count.
// Distance computations are partition-dependent (per-shard trees prune
// differently), so they are compared only across thread counts at a fixed
// shard count; every other statistic is invariant across both axes.

// Deliberately includes a count (7) that divides the dataset unevenly.
constexpr int kShardSweep[] = {1, 2, 4, 7};

Dataset ShardDataset() {
  // Smaller than WalkDataset: this sweep runs 4 engines x 4 shard counts
  // x 2 thread counts, including under TSan in tools/ci.sh.
  RandomWalkParams params;
  params.n = 2'000;
  params.dim = 4;
  params.num_clusters = 5;
  params.seed = 31;
  return GenerateRandomWalk(params);
}

void ExpectSameStatsExceptDistances(const ClusteringStats& a,
                                    const ClusteringStats& b) {
  EXPECT_EQ(a.num_range_queries, b.num_range_queries);
  EXPECT_EQ(a.num_svdd_trainings, b.num_svdd_trainings);
  EXPECT_EQ(a.num_support_vectors, b.num_support_vectors);
  EXPECT_EQ(a.num_merges, b.num_merges);
  EXPECT_EQ(a.noise_list_size, b.noise_list_size);
  EXPECT_EQ(a.smo_iterations, b.smo_iterations);
  EXPECT_EQ(a.num_capped_solves, b.num_capped_solves);
}

TEST(DeterminismTest, ShardedDbsvecBitIdenticalAtEveryShardAndThreadCount) {
  const Dataset dataset = ShardDataset();
  for (const IndexType engine : kEngines) {
    DbsvecParams params;
    params.epsilon = 5'000.0;
    params.min_pts = 40;
    params.index = engine;
    params.classify_points = true;

    params.shards = 1;
    Clustering baseline;
    {
      ScopedThreads threads(1);
      ASSERT_TRUE(RunDbsvec(dataset, params, &baseline).ok());
    }
    for (const int shards : kShardSweep) {
      params.shards = shards;
      Clustering fixed_shards;  // Reference at this shard count.
      {
        ScopedThreads threads(1);
        ASSERT_TRUE(RunDbsvec(dataset, params, &fixed_shards).ok());
      }
      for (const int threads_choice : {1, kParallelThreads}) {
        ScopedThreads threads(threads_choice);
        Clustering run;
        ASSERT_TRUE(RunDbsvec(dataset, params, &run).ok());
        SCOPED_TRACE(testing::Message()
                     << "engine=" << IndexTypeName(engine)
                     << " shards=" << shards
                     << " threads=" << threads_choice);
        EXPECT_EQ(run.labels, baseline.labels);
        EXPECT_EQ(run.point_types, baseline.point_types);
        EXPECT_EQ(run.num_clusters, baseline.num_clusters);
        ExpectSameStats(run.stats, fixed_shards.stats);
        ExpectSameStatsExceptDistances(run.stats, baseline.stats);
      }
    }
  }
}

TEST(DeterminismTest, ShardedDbscanBitIdenticalAtEveryShardAndThreadCount) {
  const Dataset dataset = ShardDataset();
  for (const IndexType engine : kEngines) {
    DbscanParams params;
    params.epsilon = 5'000.0;
    params.min_pts = 40;
    params.index = engine;

    params.shards = 1;
    Clustering baseline;
    {
      ScopedThreads threads(1);
      ASSERT_TRUE(RunDbscan(dataset, params, &baseline).ok());
    }
    for (const int shards : kShardSweep) {
      params.shards = shards;
      Clustering fixed_shards;
      {
        ScopedThreads threads(1);
        ASSERT_TRUE(RunDbscan(dataset, params, &fixed_shards).ok());
      }
      for (const int threads_choice : {1, kParallelThreads}) {
        ScopedThreads threads(threads_choice);
        Clustering run;
        ASSERT_TRUE(RunDbscan(dataset, params, &run).ok());
        SCOPED_TRACE(testing::Message()
                     << "engine=" << IndexTypeName(engine)
                     << " shards=" << shards
                     << " threads=" << threads_choice);
        EXPECT_EQ(run.labels, baseline.labels);
        EXPECT_EQ(run.point_types, baseline.point_types);
        EXPECT_EQ(run.num_clusters, baseline.num_clusters);
        ExpectSameStats(run.stats, fixed_shards.stats);
        ExpectSameStatsExceptDistances(run.stats, baseline.stats);
      }
    }
  }
}

TEST(DeterminismTest, ShardedAssignmentMatchesUnsharded) {
  // The serving index has no expansion loop: assignment answers depend only
  // on the range-query *set*, so a sharded serving engine must agree with
  // the unsharded one label for label.
  const Dataset dataset = ShardDataset();
  DbsvecParams params;
  params.epsilon = 5'000.0;
  params.min_pts = 40;
  Clustering out;
  DbsvecModel model;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out, &model).ok());

  std::unique_ptr<AssignmentEngine> unsharded;
  ASSERT_TRUE(
      AssignmentEngine::Create(model, {}, &unsharded).ok());
  std::vector<int32_t> reference;
  ASSERT_TRUE(unsharded->AssignBatch(dataset, &reference).ok());
  EXPECT_EQ(unsharded->shard_count(), 0);

  for (const int shards : kShardSweep) {
    AssignmentOptions options;
    options.shards = shards;
    std::unique_ptr<AssignmentEngine> engine;
    ASSERT_TRUE(AssignmentEngine::Create(model, options, &engine).ok());
    EXPECT_EQ(engine->shard_count(), shards);
    for (const int threads_choice : {1, kParallelThreads}) {
      ScopedThreads threads(threads_choice);
      std::vector<int32_t> labels;
      ASSERT_TRUE(engine->AssignBatch(dataset, &labels).ok());
      EXPECT_EQ(labels, reference)
          << "shards=" << shards << " threads=" << threads_choice;
    }
  }
}

TEST(DeterminismTest, AssignBatchMatchesSequential) {
  const Dataset dataset = WalkDataset();
  DbsvecParams params;
  params.epsilon = 5'000.0;
  params.min_pts = 60;
  Clustering out;
  DbsvecModel model;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out, &model).ok());

  std::unique_ptr<AssignmentEngine> engine;
  ASSERT_TRUE(AssignmentEngine::Create(std::move(model), {}, &engine).ok());

  std::vector<int32_t> sequential;
  {
    ScopedThreads threads(1);
    ASSERT_TRUE(engine->AssignBatch(dataset, &sequential).ok());
  }
  std::vector<int32_t> parallel;
  {
    ScopedThreads threads(kParallelThreads);
    ASSERT_TRUE(engine->AssignBatch(dataset, &parallel).ok());
  }
  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace dbsvec
