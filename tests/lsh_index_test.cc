#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "index/brute_force_index.h"
#include "index/lsh_index.h"
#include "test_util.h"

namespace dbsvec {
namespace {

TEST(LshIndexTest, NoFalsePositives) {
  const double epsilon = 1.0;
  const Dataset dataset = testing::RandomDataset(400, 4, 10.0, 31);
  const LshIndex lsh(dataset, epsilon);
  std::vector<PointIndex> out;
  for (PointIndex q = 0; q < 40; ++q) {
    lsh.RangeQuery(dataset.point(q), epsilon, &out);
    for (const PointIndex i : out) {
      EXPECT_LE(dataset.SquaredDistance(q, i), epsilon * epsilon);
    }
  }
}

TEST(LshIndexTest, ResultsAreSubsetOfBruteForce) {
  const double epsilon = 1.5;
  const Dataset dataset = testing::RandomDataset(500, 3, 10.0, 32);
  const BruteForceIndex brute(dataset);
  const LshIndex lsh(dataset, epsilon);
  std::vector<PointIndex> exact;
  std::vector<PointIndex> approx;
  for (PointIndex q = 0; q < 40; ++q) {
    brute.RangeQuery(dataset.point(q), epsilon, &exact);
    lsh.RangeQuery(dataset.point(q), epsilon, &approx);
    const auto exact_sorted = testing::Sorted(exact);
    const auto approx_sorted = testing::Sorted(approx);
    EXPECT_TRUE(std::includes(exact_sorted.begin(), exact_sorted.end(),
                              approx_sorted.begin(), approx_sorted.end()));
  }
}

TEST(LshIndexTest, QueryAlwaysFindsItself) {
  // A point collides with itself in every table, so self-recall is exact.
  const Dataset dataset = testing::RandomDataset(200, 5, 10.0, 33);
  const LshIndex lsh(dataset, 1.0);
  std::vector<PointIndex> out;
  for (PointIndex q = 0; q < dataset.size(); ++q) {
    lsh.RangeQuery(dataset.point(q), 1.0, &out);
    EXPECT_NE(std::find(out.begin(), out.end(), q), out.end());
  }
}

TEST(LshIndexTest, RecallImprovesWithMoreTables) {
  const double epsilon = 2.0;
  const Dataset dataset = testing::RandomDataset(600, 6, 10.0, 34);
  const BruteForceIndex brute(dataset);
  LshParams few;
  few.num_tables = 1;
  LshParams many;
  many.num_tables = 16;
  const LshIndex lsh_few(dataset, epsilon, few);
  const LshIndex lsh_many(dataset, epsilon, many);
  std::vector<PointIndex> exact;
  std::vector<PointIndex> out;
  int64_t exact_total = 0;
  int64_t few_total = 0;
  int64_t many_total = 0;
  for (PointIndex q = 0; q < 50; ++q) {
    brute.RangeQuery(dataset.point(q), epsilon, &exact);
    exact_total += static_cast<int64_t>(exact.size());
    lsh_few.RangeQuery(dataset.point(q), epsilon, &out);
    few_total += static_cast<int64_t>(out.size());
    lsh_many.RangeQuery(dataset.point(q), epsilon, &out);
    many_total += static_cast<int64_t>(out.size());
  }
  EXPECT_GE(many_total, few_total);
  EXPECT_LE(many_total, exact_total);
  // 16 tables with one projection each should recover most neighbors.
  EXPECT_GT(static_cast<double>(many_total),
            0.6 * static_cast<double>(exact_total));
}

TEST(LshIndexTest, DeterministicForEqualSeeds) {
  const Dataset dataset = testing::RandomDataset(300, 4, 10.0, 35);
  const LshIndex a(dataset, 1.0);
  const LshIndex b(dataset, 1.0);
  std::vector<PointIndex> out_a;
  std::vector<PointIndex> out_b;
  for (PointIndex q = 0; q < 20; ++q) {
    a.RangeQuery(dataset.point(q), 1.0, &out_a);
    b.RangeQuery(dataset.point(q), 1.0, &out_b);
    EXPECT_EQ(testing::Sorted(out_a), testing::Sorted(out_b));
  }
}

}  // namespace
}  // namespace dbsvec
