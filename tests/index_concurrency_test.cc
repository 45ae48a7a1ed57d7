// Concurrency conformance of every range-query engine: threads querying
// one index at once — directly and through the pooled RangeQueryBatch —
// must see exactly the sequential answers, and the instrumentation
// counters must sum to the sequential totals. The serving path
// (AssignmentEngine) calls RangeQueryWithDistances from many request
// threads against one shared index, so it relies on this contract alone.
// The dynamic R*-tree is checked between inserts (built, then only read),
// which is how the serving overlay reads it under its shared lock.

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/sharded_index.h"
#include "gtest/gtest.h"
#include "index/dynamic_r_star_tree.h"
#include "index/lsh_index.h"
#include "index/neighbor_index.h"
#include "test_util.h"

namespace dbsvec {
namespace {

constexpr double kEpsilon = 1.5;

struct EngineCase {
  std::string name;
  std::function<std::unique_ptr<NeighborIndex>(const Dataset&, double)>
      build;
};

// Names the case in test output (the default printer would dump the raw
// object bytes, pointers included, into the test name ctest records).
void PrintTo(const EngineCase& engine, std::ostream* os) {
  *os << engine.name;
}

std::unique_ptr<NeighborIndex> BuildSharded(const Dataset& dataset,
                                            double epsilon) {
  std::unique_ptr<exec::ShardedIndex> sharded;
  EXPECT_TRUE(exec::ShardedIndex::Create(IndexType::kKdTree, dataset,
                                         epsilon, /*shards=*/3, Deadline(),
                                         &sharded)
                  .ok());
  return sharded;
}

std::vector<EngineCase> AllEngines() {
  const auto of_type = [](IndexType type) {
    return [type](const Dataset& dataset, double epsilon) {
      return CreateIndex(type, dataset, epsilon);
    };
  };
  return {
      {"BruteForce", of_type(IndexType::kBruteForce)},
      {"KdTree", of_type(IndexType::kKdTree)},
      {"RStarTree", of_type(IndexType::kRStarTree)},
      {"Grid", of_type(IndexType::kGrid)},
      {"Lsh",
       [](const Dataset& dataset, double epsilon) {
         return std::make_unique<LshIndex>(dataset, epsilon);
       }},
      {"Sharded", BuildSharded},
      {"DynamicRStarTree",
       [](const Dataset& dataset, double /*epsilon*/) {
         return std::make_unique<DynamicRStarTree>(dataset);
       }},
  };
}

class IndexConcurrencyTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(IndexConcurrencyTest, ConcurrentQueriesMatchSequentialOracle) {
  const Dataset dataset = testing::RandomDataset(2000, 4, 10.0, 36);
  const std::unique_ptr<NeighborIndex> index =
      GetParam().build(dataset, kEpsilon);
  ASSERT_NE(index, nullptr);
  const PointIndex num_queries = 400;

  // Sequential oracle, one pass per entry point. Each pass's counter
  // deltas are recorded separately: a counting-only RangeCount may prune
  // differently from RangeQuery.
  std::vector<std::vector<PointIndex>> expected(num_queries);
  std::vector<std::vector<double>> expected_dist(num_queries);
  std::vector<PointIndex> expected_count(num_queries);
  std::vector<PointIndex> all_queries(num_queries);
  for (PointIndex q = 0; q < num_queries; ++q) {
    index->RangeQuery(dataset.point(q), kEpsilon, &expected[q]);
    all_queries[q] = q;
  }
  for (PointIndex q = 0; q < num_queries; ++q) {
    expected_count[q] = index->RangeCount(dataset.point(q), kEpsilon);
  }
  std::vector<std::vector<PointIndex>> sequential_batch;
  ASSERT_TRUE(
      index->RangeQueryBatch(all_queries, kEpsilon, &sequential_batch).ok());
  std::vector<PointIndex> ids;
  for (PointIndex q = 0; q < num_queries; ++q) {
    index->RangeQueryWithDistances(dataset.point(q), kEpsilon, &ids,
                                   &expected_dist[q]);
    ASSERT_EQ(ids, expected[q]) << "query " << q;
  }
  ASSERT_EQ(sequential_batch, expected);
  const uint64_t sequential_queries = index->num_range_queries();
  const uint64_t sequential_distances = index->num_distance_computations();
  index->ResetCounters();

  SetGlobalThreads(4);
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<PointIndex> out;
      std::vector<double> dist_sq;
      for (PointIndex q = 0; q < num_queries; ++q) {
        index->RangeQuery(dataset.point(q), kEpsilon, &out);
        if (out != expected[q]) {
          ++mismatches[t];
        }
        if (index->RangeCount(dataset.point(q), kEpsilon) !=
            expected_count[q]) {
          ++mismatches[t];
        }
        index->RangeQueryWithDistances(dataset.point(q), kEpsilon, &out,
                                       &dist_sq);
        if (out != expected[q] || dist_sq != expected_dist[q]) {
          ++mismatches[t];
        }
      }
      std::vector<PointIndex> batch(num_queries);
      for (PointIndex q = 0; q < num_queries; ++q) {
        batch[q] = (q + t * 97) % num_queries;
      }
      std::vector<std::vector<PointIndex>> results;
      if (!index->RangeQueryBatch(batch, kEpsilon, &results).ok()) {
        ++mismatches[t];
        return;
      }
      for (PointIndex k = 0; k < num_queries; ++k) {
        if (results[k] != expected[batch[k]]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  SetGlobalThreads(0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  // Each thread ran every query once through each of the four entry
  // points, as the sequential oracle did; the batch is a permutation.
  EXPECT_EQ(index->num_range_queries(), kThreads * sequential_queries);
  EXPECT_EQ(index->num_distance_computations(),
            kThreads * sequential_distances);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, IndexConcurrencyTest, ::testing::ValuesIn(AllEngines()),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace dbsvec
