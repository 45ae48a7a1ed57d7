#include <algorithm>
#include <cmath>
#include <numeric>

#include "gtest/gtest.h"
#include "svm/kernel_cache.h"
#include "svm/smo_solver.h"
#include "test_util.h"

namespace dbsvec {
namespace {

std::vector<PointIndex> AllIndices(const Dataset& dataset) {
  std::vector<PointIndex> idx(dataset.size());
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

TEST(SmoSolverTest, EmptyTargetRejected) {
  Dataset dataset(2);
  std::vector<PointIndex> target;
  KernelCache cache(dataset, target, 1.0);
  SmoSolution solution;
  EXPECT_EQ(SmoSolver::Solve(&cache, {}, SmoOptions(), &solution).code(),
            Status::Code::kInvalidArgument);
}

TEST(SmoSolverTest, InfeasibleBoundsRejected) {
  Dataset dataset(1, {0.0, 1.0});
  const auto target = AllIndices(dataset);
  KernelCache cache(dataset, target, 1.0);
  const std::vector<double> bounds = {0.3, 0.3};  // Sum < 1.
  SmoSolution solution;
  EXPECT_EQ(
      SmoSolver::Solve(&cache, bounds, SmoOptions(), &solution).code(),
      Status::Code::kInvalidArgument);
}

TEST(SmoSolverTest, NegativeBoundRejected) {
  Dataset dataset(1, {0.0, 1.0});
  const auto target = AllIndices(dataset);
  KernelCache cache(dataset, target, 1.0);
  const std::vector<double> bounds = {-0.1, 2.0};
  SmoSolution solution;
  EXPECT_EQ(
      SmoSolver::Solve(&cache, bounds, SmoOptions(), &solution).code(),
      Status::Code::kInvalidArgument);
}

TEST(SmoSolverTest, TwoSymmetricPointsSplitEvenly) {
  Dataset dataset(1, {0.0, 1.0});
  const auto target = AllIndices(dataset);
  KernelCache cache(dataset, target, 1.0);
  const std::vector<double> bounds = {1.0, 1.0};
  SmoSolution solution;
  ASSERT_TRUE(SmoSolver::Solve(&cache, bounds, SmoOptions(), &solution).ok());
  EXPECT_TRUE(solution.converged);
  EXPECT_NEAR(solution.alpha[0], 0.5, 1e-3);
  EXPECT_NEAR(solution.alpha[1], 0.5, 1e-3);
}

TEST(SmoSolverTest, BoxConstraintBinds) {
  Dataset dataset(1, {0.0, 1.0});
  const auto target = AllIndices(dataset);
  KernelCache cache(dataset, target, 1.0);
  // Unconstrained optimum is (0.5, 0.5); capping alpha_0 at 0.2 pushes the
  // mass to alpha_1.
  const std::vector<double> bounds = {0.2, 1.0};
  SmoSolution solution;
  ASSERT_TRUE(SmoSolver::Solve(&cache, bounds, SmoOptions(), &solution).ok());
  EXPECT_NEAR(solution.alpha[0], 0.2, 1e-6);
  EXPECT_NEAR(solution.alpha[1], 0.8, 1e-6);
}

TEST(SmoSolverTest, EqualityAndBoundsHoldOnRandomProblems) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Dataset dataset = testing::RandomDataset(120, 3, 5.0, 100 + seed);
    const auto target = AllIndices(dataset);
    KernelCache cache(dataset, target, 2.0);
    Rng rng(seed);
    std::vector<double> bounds(dataset.size());
    for (double& b : bounds) {
      b = rng.Uniform(0.01, 0.2);
    }
    SmoSolution solution;
    ASSERT_TRUE(
        SmoSolver::Solve(&cache, bounds, SmoOptions(), &solution).ok());
    double sum = 0.0;
    for (int i = 0; i < static_cast<int>(bounds.size()); ++i) {
      EXPECT_GE(solution.alpha[i], -1e-12);
      EXPECT_LE(solution.alpha[i], bounds[i] + 1e-12);
      sum += solution.alpha[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SmoSolverTest, AlphaKAlphaMatchesDirectComputation) {
  const Dataset dataset = testing::RandomDataset(60, 2, 5.0, 7);
  const auto target = AllIndices(dataset);
  KernelCache cache(dataset, target, 1.5);
  std::vector<double> bounds(dataset.size(), 0.05);
  SmoSolution solution;
  ASSERT_TRUE(SmoSolver::Solve(&cache, bounds, SmoOptions(), &solution).ok());
  double direct = 0.0;
  KernelCache fresh(dataset, target, 1.5);
  for (int i = 0; i < static_cast<int>(target.size()); ++i) {
    for (int j = 0; j < static_cast<int>(target.size()); ++j) {
      direct += solution.alpha[i] * solution.alpha[j] * fresh.At(i, j);
    }
  }
  EXPECT_NEAR(solution.alpha_k_alpha, direct, 1e-6);
}

TEST(SmoSolverTest, SolutionIsNoWorseThanUniform) {
  // The objective at the solver's alpha must not exceed the objective of
  // the feasible uniform allocation.
  const Dataset dataset = testing::RandomDataset(80, 3, 5.0, 11);
  const auto target = AllIndices(dataset);
  KernelCache cache(dataset, target, 2.0);
  std::vector<double> bounds(dataset.size(), 1.0);
  SmoSolution solution;
  ASSERT_TRUE(SmoSolver::Solve(&cache, bounds, SmoOptions(), &solution).ok());
  const int n = static_cast<int>(target.size());
  KernelCache fresh(dataset, target, 2.0);
  double uniform_obj = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      uniform_obj += fresh.At(i, j) / (static_cast<double>(n) * n);
    }
  }
  // Objective = alpha'K alpha − Σ alpha_i K_ii; the diagonal term is 1 for
  // any feasible alpha under the Gaussian kernel, so comparing the
  // quadratic part suffices.
  EXPECT_LE(solution.alpha_k_alpha, uniform_obj + 1e-6);
}

TEST(SmoSolverTest, DefaultIterationCapPinned) {
  // max_iterations = 0 is a contract, not a placeholder: the solver
  // interprets it as max(10'000, 100·ñ). Both halves are pinned — the
  // default value itself, and that a default-capped solve on a problem
  // needing many iterations actually converges (a regression to "0 means
  // no iterations" or a much smaller cap would flip `converged`).
  EXPECT_EQ(SmoOptions().max_iterations, 0);
  const Dataset dataset = testing::RandomDataset(200, 4, 5.0, 13);
  const auto target = AllIndices(dataset);
  KernelCache cache(dataset, target, 2.0);
  std::vector<double> bounds(dataset.size(), 0.02);
  SmoSolution solution;
  ASSERT_TRUE(SmoSolver::Solve(&cache, bounds, SmoOptions(), &solution).ok());
  EXPECT_TRUE(solution.converged);
  EXPECT_GT(solution.iterations, 3);  // Needs real work (see cap test below).
  EXPECT_LE(solution.iterations,
            std::max<int64_t>(10'000, 100LL * dataset.size()));
}

TEST(SmoSolverTest, IterationCapReported) {
  const Dataset dataset = testing::RandomDataset(200, 4, 5.0, 13);
  const auto target = AllIndices(dataset);
  KernelCache cache(dataset, target, 2.0);
  std::vector<double> bounds(dataset.size(), 0.02);
  SmoOptions options;
  options.max_iterations = 3;
  SmoSolution solution;
  ASSERT_TRUE(SmoSolver::Solve(&cache, bounds, options, &solution).ok());
  EXPECT_LE(solution.iterations, 3);
}

TEST(SmoSolverTest, SolutionIndependentOfRowCap) {
  // The solver reads the kernel only through Row(), and every miss
  // recomputes the row bit-identically, so the row cap changes residency
  // and nothing else. max_bytes = 1 keeps two rows resident and evicts on
  // almost every step.
  const Dataset dataset = testing::RandomDataset(200, 4, 5.0, 13);
  const auto target = AllIndices(dataset);
  std::vector<double> bounds(dataset.size(), 0.02);
  KernelCache roomy(dataset, target, 2.0);
  KernelCache thrashing(dataset, target, 2.0, /*max_bytes=*/1);
  ASSERT_EQ(thrashing.max_rows(), 2u);
  SmoSolution reference;
  SmoSolution evicting;
  ASSERT_TRUE(SmoSolver::Solve(&roomy, bounds, SmoOptions(), &reference).ok());
  ASSERT_TRUE(
      SmoSolver::Solve(&thrashing, bounds, SmoOptions(), &evicting).ok());
  EXPECT_GT(thrashing.rows_computed(), roomy.rows_computed());
  EXPECT_EQ(evicting.alpha, reference.alpha);
  EXPECT_EQ(evicting.iterations, reference.iterations);
  EXPECT_EQ(evicting.alpha_k_alpha, reference.alpha_k_alpha);
}

TEST(KernelCacheTest, RowMatchesDirectKernel) {
  const Dataset dataset = testing::RandomDataset(50, 3, 5.0, 17);
  std::vector<PointIndex> target = {0, 5, 10, 15, 20};
  KernelCache cache(dataset, target, 1.7);
  const GaussianKernel kernel(1.7);
  const auto row = cache.Row(2);
  for (int j = 0; j < cache.size(); ++j) {
    const double expected = kernel(dataset.point(target[2]),
                                   dataset.point(target[j]));
    EXPECT_NEAR(row[j], expected, 1e-6);
  }
}

TEST(KernelCacheTest, EvictionKeepsResultsCorrect) {
  const Dataset dataset = testing::RandomDataset(100, 2, 5.0, 19);
  std::vector<PointIndex> target(dataset.size());
  std::iota(target.begin(), target.end(), 0);
  // Tiny cache: 2 rows resident.
  KernelCache cache(dataset, target, 1.0, /*max_bytes=*/1);
  const GaussianKernel kernel(1.0);
  for (const int i : {0, 17, 31, 0, 99, 17}) {
    const auto row = cache.Row(i);
    EXPECT_NEAR(row[i], 1.0, 1e-7);
    EXPECT_NEAR(row[50],
                kernel(dataset.point(target[i]), dataset.point(target[50])),
                1e-6);
  }
  EXPECT_GT(cache.rows_computed(), 0u);
}

TEST(KernelCacheTest, DiagIsOneForGaussian) {
  Dataset dataset(2, {1.0, 2.0});
  std::vector<PointIndex> target = {0};
  KernelCache cache(dataset, target, 3.0);
  EXPECT_DOUBLE_EQ(cache.Diag(0), 1.0);
}

TEST(KernelCacheTest, AtMissComputesSingleEntryWithoutTouchingLru) {
  const Dataset dataset = testing::RandomDataset(64, 3, 5.0, 17);
  std::vector<PointIndex> target;
  for (PointIndex i = 0; i < 32; ++i) {
    target.push_back(i);
  }
  KernelCache kcache(dataset, target, 2.0);
  ASSERT_EQ(kcache.rows_resident(), 0u);

  // Double miss: the entry comes straight from the kernel function — no
  // row is materialized and the LRU stays empty.
  const double direct = kcache.At(3, 7);
  EXPECT_EQ(kcache.rows_resident(), 0u);
  EXPECT_EQ(kcache.rows_computed(), 0u);
  EXPECT_EQ(direct, kcache.kernel().FromSquaredDistance(
                        dataset.SquaredDistance(target[3], target[7])));

  // With row 3 resident, At serves from it (and from the symmetric row)
  // without materializing anything new.
  const std::span<const float> row3 = kcache.Row(3);
  EXPECT_EQ(kcache.rows_resident(), 1u);
  EXPECT_EQ(kcache.At(3, 7), static_cast<double>(row3[7]));
  EXPECT_EQ(kcache.At(7, 3), static_cast<double>(row3[7]));
  EXPECT_EQ(kcache.rows_resident(), 1u);
}

TEST(KernelCacheTest, FootprintAccountsForBookkeepingOverhead) {
  const Dataset dataset = testing::RandomDataset(64, 3, 5.0, 17);
  std::vector<PointIndex> target = {0, 1, 2, 3, 4, 5, 6, 7};
  KernelCache kcache(dataset, target, 2.0, /*max_bytes=*/1 << 20);
  // Footprint must exceed the raw payload: the list node, map node, and
  // vector header are real bytes.
  EXPECT_GT(kcache.row_footprint_bytes(), target.size() * sizeof(float));
  EXPECT_EQ(kcache.max_rows(), (1u << 20) / kcache.row_footprint_bytes());
}

TEST(GaussianKernelTest, KnownValues) {
  const GaussianKernel kernel(1.0);
  const std::vector<double> a = {0.0};
  const std::vector<double> b = {2.0};
  EXPECT_NEAR(kernel(a, b), std::exp(-2.0), 1e-12);
  EXPECT_DOUBLE_EQ(kernel(a, a), 1.0);
  EXPECT_DOUBLE_EQ(kernel.sigma(), 1.0);
}

}  // namespace
}  // namespace dbsvec
