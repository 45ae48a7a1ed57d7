#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/penalty_weights.h"
#include "gtest/gtest.h"
#include "simd/simd.h"
#include "svm/kernel.h"
#include "test_util.h"

namespace dbsvec {
namespace {

/// The point-major formulation of Eq. 5/7: for each target point, one
/// scalar kernel evaluation per anchor, plus a separate m² pass over the
/// anchor pairs. ComputePenaltyWeights walks the anchors in the outer loop
/// over batched distance rows instead and must reproduce this bit for bit.
std::vector<double> ReferencePenaltyWeights(
    const Dataset& dataset, std::span<const PointIndex> target,
    std::span<const int32_t> train_counts, double sigma,
    const PenaltyWeightOptions& options, Rng* rng) {
  const int n = static_cast<int>(target.size());
  std::vector<double> weights(n, 1.0);
  if (n == 0) {
    return weights;
  }
  const GaussianKernel kernel(sigma);
  std::vector<PointIndex> anchors;
  if (n <= options.anchor_count) {
    anchors.assign(target.begin(), target.end());
  } else {
    anchors.reserve(options.anchor_count);
    for (int s = 0; s < options.anchor_count; ++s) {
      anchors.push_back(target[rng->NextBounded(n)]);
    }
  }
  const double m = static_cast<double>(anchors.size());
  double mean_kk = 0.0;
  for (const PointIndex a : anchors) {
    for (const PointIndex b : anchors) {
      mean_kk += kernel.FromSquaredDistance(dataset.SquaredDistance(a, b));
    }
  }
  mean_kk /= m * m;
  std::vector<double> kd(n);
  double max_kd = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto x = dataset.point(target[i]);
    double s = 0.0;
    for (const PointIndex a : anchors) {
      s += kernel.FromSquaredDistance(dataset.SquaredDistanceTo(a, x));
    }
    kd[i] = mean_kk + 1.0 - 2.0 * s / m;
    max_kd = std::max(max_kd, kd[i]);
  }
  if (max_kd <= 0.0) {
    max_kd = 1.0;
  }
  double max_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    const int32_t t = train_counts[target[i]];
    weights[i] = std::pow(options.memory_factor, static_cast<double>(t)) *
                 (1.0 - kd[i] / max_kd);
    max_weight = std::max(max_weight, weights[i]);
  }
  const double floor_value =
      options.weight_floor * (max_weight > 0.0 ? max_weight : 1.0);
  for (double& w : weights) {
    w = std::max(w, floor_value);
  }
  return weights;
}

/// Every SIMD backend this build and CPU can run.
std::vector<simd::Backend> AvailableBackends() {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) {
    backends.push_back(simd::Backend::kAvx2);
  }
  if (simd::Avx512Available()) {
    backends.push_back(simd::Backend::kAvx512);
  }
  return backends;
}

/// Runs ComputePenaltyWeights under every available backend and expects
/// each weight to equal the reference bit for bit, and both to consume the
/// same RNG draws.
void ExpectMatchesReference(const Dataset& dataset,
                            std::span<const PointIndex> target,
                            std::span<const int32_t> counts, double sigma,
                            const PenaltyWeightOptions& options) {
  Rng ref_rng(91);
  const auto expected =
      ReferencePenaltyWeights(dataset, target, counts, sigma, options,
                              &ref_rng);
  const uint64_t ref_next = ref_rng.NextBounded(1u << 30);
  const simd::Backend previous = simd::ActiveBackend();
  for (const simd::Backend backend : AvailableBackends()) {
    SCOPED_TRACE(simd::BackendName(backend));
    simd::ForceBackend(backend);
    Rng rng(91);
    const auto weights =
        ComputePenaltyWeights(dataset, target, counts, sigma, options, &rng);
    EXPECT_EQ(rng.NextBounded(1u << 30), ref_next);
    ASSERT_EQ(weights.size(), expected.size());
    for (size_t i = 0; i < weights.size(); ++i) {
      ASSERT_EQ(weights[i], expected[i]) << "i=" << i;
    }
  }
  simd::ForceBackend(previous);
}

TEST(PenaltyWeightsTest, EmptyTargetReturnsEmpty) {
  Dataset dataset(2);
  Rng rng(1);
  const auto weights = ComputePenaltyWeights(dataset, {}, {}, 1.0,
                                             PenaltyWeightOptions(), &rng);
  EXPECT_TRUE(weights.empty());
}

TEST(PenaltyWeightsTest, AllWeightsPositive) {
  const Dataset dataset = testing::RandomDataset(100, 3, 10.0, 61);
  std::vector<PointIndex> target(dataset.size());
  std::iota(target.begin(), target.end(), 0);
  std::vector<int32_t> counts(dataset.size(), 0);
  Rng rng(2);
  const auto weights = ComputePenaltyWeights(dataset, target, counts, 2.0,
                                             PenaltyWeightOptions(), &rng);
  ASSERT_EQ(weights.size(), target.size());
  for (const double w : weights) {
    EXPECT_GT(w, 0.0);
  }
}

TEST(PenaltyWeightsTest, FarPointsGetSmallerWeights) {
  // Eq. 7: weight is inversely related to the kernel distance from the
  // target-set center, so boundary points must weigh less than central
  // ones.
  Rng gen(63);
  Dataset dataset(2);
  for (int i = 0; i < 200; ++i) {
    const double p[2] = {gen.Gaussian(0.0, 1.0), gen.Gaussian(0.0, 1.0)};
    dataset.Append(p);
  }
  const double far[2] = {6.0, 6.0};
  dataset.Append(far);
  const double center[2] = {0.0, 0.0};
  dataset.Append(center);
  std::vector<PointIndex> target(dataset.size());
  std::iota(target.begin(), target.end(), 0);
  std::vector<int32_t> counts(dataset.size(), 0);
  Rng rng(3);
  const auto weights = ComputePenaltyWeights(dataset, target, counts, 2.0,
                                             PenaltyWeightOptions(), &rng);
  const double far_weight = weights[dataset.size() - 2];
  const double center_weight = weights[dataset.size() - 1];
  EXPECT_LT(far_weight, center_weight);
}

TEST(PenaltyWeightsTest, OldPointsGetLargerWeights) {
  // lambda^{t_i}: a point that participated in more trainings gets an
  // exponentially larger penalty weight than an identical fresh point.
  Dataset dataset(2);
  Rng gen(65);
  for (int i = 0; i < 50; ++i) {
    const double p[2] = {gen.Gaussian(0.0, 1.0), gen.Gaussian(0.0, 1.0)};
    dataset.Append(p);
  }
  std::vector<PointIndex> target(dataset.size());
  std::iota(target.begin(), target.end(), 0);
  Rng rng(4);
  PenaltyWeightOptions options;
  options.memory_factor = 2.0;
  const auto fresh = ComputePenaltyWeights(
      dataset, target, std::vector<int32_t>(dataset.size(), 0), 2.0,
      options, &rng);
  // Age the point with the largest fresh weight (comfortably above the
  // floor, so the lambda^t factor is observable).
  const size_t pick = static_cast<size_t>(
      std::max_element(fresh.begin(), fresh.end()) - fresh.begin());
  std::vector<int32_t> counts(dataset.size(), 0);
  counts[pick] = 3;
  Rng rng2(4);
  const auto aged =
      ComputePenaltyWeights(dataset, target, counts, 2.0, options, &rng2);
  EXPECT_NEAR(aged[pick], fresh[pick] * 8.0, 1e-9);  // lambda^3 = 8.
}

TEST(PenaltyWeightsTest, AnchorEstimateTracksExactComputation) {
  const Dataset dataset = testing::RandomDataset(600, 2, 10.0, 67);
  std::vector<PointIndex> target(dataset.size());
  std::iota(target.begin(), target.end(), 0);
  std::vector<int32_t> counts(dataset.size(), 0);
  PenaltyWeightOptions exact;
  exact.anchor_count = 600;  // Full target: exact Eq. 5.
  PenaltyWeightOptions sampled;
  sampled.anchor_count = 128;
  Rng rng1(5);
  Rng rng2(5);
  const auto w_exact =
      ComputePenaltyWeights(dataset, target, counts, 3.0, exact, &rng1);
  const auto w_sampled =
      ComputePenaltyWeights(dataset, target, counts, 3.0, sampled, &rng2);
  double err = 0.0;
  for (size_t i = 0; i < w_exact.size(); ++i) {
    err += std::abs(w_exact[i] - w_sampled[i]);
  }
  err /= static_cast<double>(w_exact.size());
  EXPECT_LT(err, 0.1);
}

TEST(PenaltyWeightsTest, FloorPreventsZeroWeights) {
  // The farthest point has 1 − D/maxD = 0 in Eq. 7; the floor must keep it
  // strictly positive so it can still become a support vector.
  Dataset dataset(1, {0.0, 0.1, 0.2, 50.0});
  std::vector<PointIndex> target = {0, 1, 2, 3};
  std::vector<int32_t> counts(4, 0);
  Rng rng(6);
  const auto weights = ComputePenaltyWeights(dataset, target, counts, 5.0,
                                             PenaltyWeightOptions(), &rng);
  EXPECT_GT(weights[3], 0.0);
  EXPECT_LT(weights[3], weights[0]);
}

TEST(PenaltyWeightsTest, AnchorMajorRowsMatchPointMajorReferenceBitForBit) {
  // Sizes straddle the 8-lane block width and the default 256 anchors;
  // the target is a shuffled subset of the dataset with repeated rows.
  for (const int n : {1, 7, 8, 9, 255, 256, 257, 1000, 4096}) {
    for (const int dim : {1, 3, 8, 19}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " dim=" << dim);
      const Dataset dataset =
          testing::RandomDataset(n + 17, dim, 10.0, 100 + n + dim);
      Rng gen(200 + n + dim);
      std::vector<PointIndex> target(n);
      std::vector<int32_t> counts(dataset.size());
      for (PointIndex& p : target) {
        p = static_cast<PointIndex>(gen.NextBounded(dataset.size()));
      }
      for (int32_t& t : counts) {
        t = static_cast<int32_t>(gen.NextBounded(4));
      }
      ExpectMatchesReference(dataset, target, counts, 2.0 + 0.5 * dim,
                             PenaltyWeightOptions());
    }
  }
}

TEST(PenaltyWeightsTest, RepeatedAnchorPositionsMatchReference) {
  // Few anchors drawn from a small target: the draws must repeat
  // positions, which the anchor-pair term then counts once per draw.
  const Dataset dataset = testing::RandomDataset(40, 5, 10.0, 71);
  std::vector<PointIndex> target(dataset.size());
  std::iota(target.begin(), target.end(), 0);
  const std::vector<int32_t> counts(dataset.size(), 1);
  PenaltyWeightOptions options;
  options.anchor_count = 24;
  Rng replay(91);
  std::vector<uint64_t> draws;
  for (int s = 0; s < options.anchor_count; ++s) {
    draws.push_back(replay.NextBounded(target.size()));
  }
  std::sort(draws.begin(), draws.end());
  ASSERT_NE(std::adjacent_find(draws.begin(), draws.end()), draws.end());
  ExpectMatchesReference(dataset, target, counts, 3.0, options);
}

TEST(PenaltyWeightsTest, IdenticalPointsTakeDegeneratePathLikeReference) {
  // Every kernel distance is 0, so max_kd <= 0 and weights are λ^{t_i}.
  Dataset dataset(3);
  const double p[3] = {1.5, -2.0, 4.25};
  for (int i = 0; i < 300; ++i) {
    dataset.Append(p);
  }
  std::vector<PointIndex> target(dataset.size());
  std::iota(target.begin(), target.end(), 0);
  std::vector<int32_t> counts(dataset.size(), 0);
  counts[7] = 2;
  ExpectMatchesReference(dataset, target, counts, 1.0,
                         PenaltyWeightOptions());
  Rng rng(5);
  const auto weights = ComputePenaltyWeights(dataset, target, counts, 1.0,
                                             PenaltyWeightOptions(), &rng);
  EXPECT_EQ(weights[7], 4.0);
  EXPECT_EQ(weights[0], 1.0);
}

}  // namespace
}  // namespace dbsvec
