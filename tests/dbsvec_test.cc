#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "cluster/dbscan.h"
#include "common/thread_pool.h"
#include "core/dbsvec.h"
#include "data/shapes.h"
#include "data/surrogates.h"
#include "data/synthetic.h"
#include "eval/external_metrics.h"
#include "eval/recall.h"
#include "gtest/gtest.h"
#include "index/brute_force_index.h"
#include "test_util.h"

namespace dbsvec {
namespace {

Dataset BlobScene(PointIndex n, int dim, int clusters, double noise,
                  uint64_t seed) {
  GaussianBlobsParams gen;
  gen.n = n;
  gen.dim = dim;
  gen.num_clusters = clusters;
  gen.stddev = 1.0;
  gen.noise_fraction = noise;
  gen.seed = seed;
  return GenerateGaussianBlobs(gen);
}

/// Core flags computed independently of any clusterer.
std::vector<char> CoreFlags(const Dataset& dataset, double epsilon,
                            int min_pts) {
  const BruteForceIndex index(dataset);
  std::vector<char> core(dataset.size(), 0);
  for (PointIndex i = 0; i < dataset.size(); ++i) {
    core[i] =
        index.RangeCount(dataset.point(i), epsilon) >= min_pts ? 1 : 0;
  }
  return core;
}

TEST(DbsvecTest, InvalidParamsRejected) {
  Dataset dataset(2, {0.0, 0.0});
  Clustering out;
  DbsvecParams params;
  params.epsilon = 0.0;
  EXPECT_FALSE(RunDbsvec(dataset, params, &out).ok());
  params.epsilon = 1.0;
  params.min_pts = 0;
  EXPECT_FALSE(RunDbsvec(dataset, params, &out).ok());
  params.min_pts = 5;
  params.learning_threshold = -1;
  EXPECT_FALSE(RunDbsvec(dataset, params, &out).ok());
  params.learning_threshold = 3;
  params.memory_factor = 1.0;
  EXPECT_FALSE(RunDbsvec(dataset, params, &out).ok());
  params.memory_factor = 2.0;
  params.nu_mode = NuMode::kFixed;
  params.fixed_nu = 0.0;
  EXPECT_FALSE(RunDbsvec(dataset, params, &out).ok());
  params.fixed_nu = 1.5;
  EXPECT_FALSE(RunDbsvec(dataset, params, &out).ok());
}

TEST(DbsvecTest, EmptyDataset) {
  Dataset dataset(2);
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, DbsvecParams(), &out).ok());
  EXPECT_EQ(out.num_clusters, 0);
  EXPECT_TRUE(out.labels.empty());
}

TEST(DbsvecTest, SinglePointIsNoise) {
  Dataset dataset(2, {1.0, 1.0});
  Clustering out;
  DbsvecParams params;
  params.epsilon = 1.0;
  params.min_pts = 2;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_EQ(out.num_clusters, 0);
  EXPECT_EQ(out.labels[0], Clustering::kNoise);
}

TEST(DbsvecTest, MinPtsOneClustersEveryPoint) {
  Dataset dataset(1, {0.0, 10.0, 20.0});
  Clustering out;
  DbsvecParams params;
  params.epsilon = 1.0;
  params.min_pts = 1;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_EQ(out.num_clusters, 3);
  EXPECT_EQ(out.CountNoise(), 0);
}

TEST(DbsvecTest, MatchesDbscanOnSimpleScene) {
  Dataset dataset(2, {0.0, 0.0, 0.1, 0.0, 0.0, 0.1,
                      5.0, 5.0, 5.1, 5.0, 5.0, 5.1,
                      20.0, 20.0});
  DbsvecParams params;
  params.epsilon = 0.2;
  params.min_pts = 3;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_EQ(out.num_clusters, 2);
  EXPECT_EQ(out.CountNoise(), 1);
}

TEST(DbsvecTest, DeterministicForEqualSeeds) {
  const Dataset dataset = BlobScene(1200, 3, 4, 0.03, 201);
  DbsvecParams params;
  params.epsilon = SuggestEpsilon(dataset, 5);
  params.min_pts = 5;
  Clustering a;
  Clustering b;
  ASSERT_TRUE(RunDbsvec(dataset, params, &a).ok());
  ASSERT_TRUE(RunDbsvec(dataset, params, &b).ok());
  EXPECT_EQ(a.labels, b.labels);
}

TEST(DbsvecTest, UsesFarFewerRangeQueriesThanDbscan) {
  // In the paper's dense regime (neighborhoods much larger than MinPts)
  // DBSVEC needs a small fraction of DBSCAN's n range queries.
  RandomWalkParams gen;
  gen.n = 10'000;
  gen.dim = 8;
  gen.num_clusters = 8;
  gen.seed = 203;
  const Dataset dataset = GenerateRandomWalk(gen);
  DbsvecParams params;
  params.epsilon = 5000.0;
  params.min_pts = 50;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_LT(out.stats.num_range_queries,
            static_cast<uint64_t>(dataset.size()) / 4);
  EXPECT_GT(out.stats.num_svdd_trainings, 0u);
  EXPECT_GT(out.stats.num_support_vectors, 0u);
}

TEST(DbsvecTest, Theorem1NecessityCorePointsNeverStraddle) {
  // Theorem 1: every DBSVEC cluster is a subset of some DBSCAN cluster.
  // Checked on core points (border points are legitimately tie-broken
  // differently by the two algorithms).
  const Dataset dataset = BlobScene(1500, 2, 4, 0.05, 205);
  const int min_pts = 6;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  const std::vector<char> core = CoreFlags(dataset, epsilon, min_pts);

  DbscanParams dbscan_params;
  dbscan_params.epsilon = epsilon;
  dbscan_params.min_pts = min_pts;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());

  // Map each DBSVEC cluster to the DBSCAN cluster of its first core point;
  // any second core point in a different DBSCAN cluster violates Thm. 1.
  std::unordered_map<int32_t, int32_t> to_dbscan;
  for (PointIndex i = 0; i < dataset.size(); ++i) {
    if (!core[i] || out.labels[i] < 0) {
      continue;
    }
    const auto [it, inserted] =
        to_dbscan.emplace(out.labels[i], reference.labels[i]);
    EXPECT_EQ(it->second, reference.labels[i]) << "point " << i;
  }
}

TEST(DbsvecTest, Theorem3NoiseSetsIdentical) {
  const Dataset dataset = BlobScene(1500, 2, 4, 0.08, 207);
  const int min_pts = 6;
  const double epsilon = SuggestEpsilon(dataset, min_pts);

  DbscanParams dbscan_params;
  dbscan_params.epsilon = epsilon;
  dbscan_params.min_pts = min_pts;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());

  for (PointIndex i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(reference.labels[i] == Clustering::kNoise,
              out.labels[i] == Clustering::kNoise)
        << "point " << i;
  }
}

TEST(DbsvecTest, Theorem2BorderPointsMatchWhenCoreSetsMatch) {
  // Theorem 2: if a DBSVEC cluster and a DBSCAN cluster have the same core
  // points, their border points coincide. Both algorithms run exact range
  // queries here, so the core sets match and every border point must (a)
  // be border in both and (b) sit in a cluster containing a core point
  // within epsilon.
  const Dataset dataset = BlobScene(1200, 2, 4, 0.08, 229);
  const int min_pts = 6;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  const std::vector<char> core = CoreFlags(dataset, epsilon, min_pts);

  DbscanParams dbscan_params;
  dbscan_params.epsilon = epsilon;
  dbscan_params.min_pts = min_pts;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  params.classify_points = true;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  ASSERT_EQ(out.point_types.size(), reference.point_types.size());

  const BruteForceIndex index(dataset);
  std::vector<PointIndex> neighborhood;
  for (PointIndex i = 0; i < dataset.size(); ++i) {
    // Role agreement between the exact algorithm and DBSVEC.
    EXPECT_EQ(reference.point_types[i] == PointType::kCore, core[i] == 1);
    EXPECT_EQ(out.point_types[i], reference.point_types[i]) << "point " << i;
    if (out.point_types[i] != PointType::kBorder) {
      continue;
    }
    // A border point's cluster must contain a core point within epsilon.
    index.RangeQuery(dataset.point(i), epsilon, &neighborhood);
    bool witnessed = false;
    for (const PointIndex j : neighborhood) {
      if (core[j] && out.labels[j] == out.labels[i]) {
        witnessed = true;
        break;
      }
    }
    EXPECT_TRUE(witnessed) << "border point " << i;
  }
}

TEST(DbsvecTest, PointTypesEmptyUnlessRequested) {
  const Dataset dataset = BlobScene(300, 2, 2, 0.02, 231);
  DbsvecParams params;
  params.epsilon = SuggestEpsilon(dataset, 5);
  params.min_pts = 5;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_TRUE(out.point_types.empty());
}

TEST(DbsvecTest, AllCorePointsAreClustered) {
  // A core point can never end up as noise in DBSVEC.
  const Dataset dataset = BlobScene(1000, 3, 3, 0.1, 209);
  const int min_pts = 5;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  const std::vector<char> core = CoreFlags(dataset, epsilon, min_pts);
  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  for (PointIndex i = 0; i < dataset.size(); ++i) {
    if (core[i]) {
      EXPECT_GE(out.labels[i], 0) << "core point " << i;
    }
  }
}

TEST(DbsvecTest, PerfectRecallOnShapeScene) {
  // Fig. 1 of the paper: same clusters as DBSCAN on the t4.8k-style scene
  // with the paper's MinPts=20.
  const Dataset dataset = GenerateShapeScene(ShapeScene::kT4, 8000, 42);
  DbscanParams dbscan_params;
  dbscan_params.epsilon = 8.5;
  dbscan_params.min_pts = 20;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = 8.5;
  params.min_pts = 20;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_DOUBLE_EQ(PairRecall(reference.labels, out.labels), 1.0);
  EXPECT_DOUBLE_EQ(PairPrecision(reference.labels, out.labels), 1.0);
  EXPECT_EQ(out.num_clusters, reference.num_clusters);
}

// Property sweep: near-perfect recall vs DBSCAN across dimensionality,
// noise levels and seeds, with the default nu* policy.
using RecallSweepParam = std::tuple<int, double, uint64_t>;

class DbsvecRecallSweepTest
    : public ::testing::TestWithParam<RecallSweepParam> {};

TEST_P(DbsvecRecallSweepTest, NearPerfectRecall) {
  const auto [dim, noise, seed] = GetParam();
  const Dataset dataset = BlobScene(900, dim, 4, noise, seed);
  const int min_pts = 5;
  const double epsilon = SuggestEpsilon(dataset, min_pts);

  DbscanParams dbscan_params;
  dbscan_params.epsilon = epsilon;
  dbscan_params.min_pts = min_pts;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_GE(PairRecall(reference.labels, out.labels), 0.99)
      << "dim=" << dim << " noise=" << noise << " seed=" << seed;
  // Theorem 1 implies DBSVEC may split but never merge: precision stays 1
  // whenever core sets agree (they do here — both run exact queries).
  EXPECT_GE(PairPrecision(reference.labels, out.labels), 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DbsvecRecallSweepTest,
    ::testing::Combine(::testing::Values(2, 4, 8, 16),
                       ::testing::Values(0.0, 0.05),
                       ::testing::Values(301, 302, 303)));

// Ablation variants must all stay valid and close to DBSCAN on easy data.
constexpr const char* kAblationNames[] = {"full", "no_weights",
                                          "no_incremental", "random_sigma",
                                          "bare"};

// Plain integers with no padding: gtest prints this parameter as its raw
// bytes, and ctest discovery puts those bytes into the test name, so a name
// pointer (whose address changes with every load) would rename the test on
// each build.
struct AblationSpec {
  int32_t variant;  // index into kAblationNames
  int32_t adaptive_weights;
  int32_t incremental_learning;
  int32_t auto_sigma;
};
static_assert(sizeof(AblationSpec) == 16, "AblationSpec must not be padded");

class DbsvecAblationTest : public ::testing::TestWithParam<AblationSpec> {};

TEST_P(DbsvecAblationTest, VariantProducesValidClustering) {
  const AblationSpec& spec = GetParam();
  const char* name = kAblationNames[spec.variant];
  const Dataset dataset = BlobScene(800, 3, 3, 0.03, 211);
  const int min_pts = 5;
  const double epsilon = SuggestEpsilon(dataset, min_pts);

  DbscanParams dbscan_params;
  dbscan_params.epsilon = epsilon;
  dbscan_params.min_pts = min_pts;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  params.adaptive_weights = spec.adaptive_weights != 0;
  params.incremental_learning = spec.incremental_learning != 0;
  params.auto_sigma = spec.auto_sigma != 0;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_EQ(static_cast<PointIndex>(out.labels.size()), dataset.size());
  EXPECT_GE(PairRecall(reference.labels, out.labels), 0.8) << name;
  EXPECT_GE(PairPrecision(reference.labels, out.labels), 0.999) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, DbsvecAblationTest,
    ::testing::Values(AblationSpec{0, 1, 1, 1},   // full
                      AblationSpec{1, 0, 1, 1},   // no_weights
                      AblationSpec{2, 1, 0, 1},   // no_incremental
                      AblationSpec{3, 1, 1, 0},   // random_sigma
                      AblationSpec{4, 0, 0, 0}),  // bare
    [](const ::testing::TestParamInfo<AblationSpec>& info) {
      return kAblationNames[info.param.variant];
    });

TEST(DbsvecTest, MinimumNuUsesFewerSupportVectors) {
  const Dataset dataset = BlobScene(2000, 4, 4, 0.02, 213);
  const int min_pts = 8;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  Clustering with_auto;
  ASSERT_TRUE(RunDbsvec(dataset, params, &with_auto).ok());
  params.nu_mode = NuMode::kMinimum;
  Clustering with_min;
  ASSERT_TRUE(RunDbsvec(dataset, params, &with_min).ok());
  EXPECT_LE(with_min.stats.num_support_vectors,
            with_auto.stats.num_support_vectors);
}

TEST(DbsvecTest, LargerFixedNuYieldsMoreSupportVectors) {
  const Dataset dataset = BlobScene(1500, 3, 3, 0.02, 215);
  const int min_pts = 6;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  uint64_t previous = 0;
  for (const double nu : {0.01, 0.2}) {
    DbsvecParams params;
    params.epsilon = epsilon;
    params.min_pts = min_pts;
    params.nu_mode = NuMode::kFixed;
    params.fixed_nu = nu;
    Clustering out;
    ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
    EXPECT_GE(out.stats.num_support_vectors, previous) << "nu=" << nu;
    previous = out.stats.num_support_vectors;
  }
}

TEST(DbsvecTest, IndexBackendsAgreeClosely) {
  const Dataset dataset = BlobScene(900, 2, 4, 0.03, 217);
  const int min_pts = 5;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  Clustering brute;
  Clustering kd;
  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  params.index = IndexType::kBruteForce;
  ASSERT_TRUE(RunDbsvec(dataset, params, &brute).ok());
  params.index = IndexType::kKdTree;
  ASSERT_TRUE(RunDbsvec(dataset, params, &kd).ok());
  EXPECT_GE(PairRecall(brute.labels, kd.labels), 0.99);
  EXPECT_EQ(brute.CountNoise(), kd.CountNoise());
}

TEST(DbsvecTest, NoiseListBounded) {
  const Dataset dataset = BlobScene(1000, 2, 3, 0.2, 219);
  const int min_pts = 8;
  DbsvecParams params;
  params.epsilon = SuggestEpsilon(dataset, min_pts);
  params.min_pts = min_pts;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_LE(out.stats.noise_list_size,
            static_cast<uint64_t>(dataset.size()));
  EXPECT_GE(out.stats.noise_list_size,
            static_cast<uint64_t>(out.CountNoise()));
}

TEST(DbsvecTest, StallRecoveryNeverHurtsRecall) {
  // The stall-recovery pass (library extension) exists to heal splits on
  // thin elongated clusters; disabling it must still give a valid result
  // and can only lower recall.
  SurrogateDataset surrogate;
  ASSERT_TRUE(MakeSurrogate("t4.8k", &surrogate).ok());
  DbscanParams dbscan_params;
  dbscan_params.epsilon = 8.5;
  dbscan_params.min_pts = 20;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(surrogate.data, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = 8.5;
  params.min_pts = 20;
  Clustering with_recovery;
  ASSERT_TRUE(RunDbsvec(surrogate.data, params, &with_recovery).ok());
  params.stall_recovery = false;
  Clustering without_recovery;
  ASSERT_TRUE(RunDbsvec(surrogate.data, params, &without_recovery).ok());
  EXPECT_GE(PairRecall(reference.labels, with_recovery.labels),
            PairRecall(reference.labels, without_recovery.labels));
  EXPECT_GE(PairRecall(reference.labels, with_recovery.labels), 0.999);
}

// Property sweep over the learning threshold T: the paper (Sec. IV-B1)
// claims T in [2,4] keeps accuracy intact; we verify accuracy holds for
// the whole sensible range.
class DbsvecLearningThresholdTest : public ::testing::TestWithParam<int> {};

TEST_P(DbsvecLearningThresholdTest, HighRecallForAnyThreshold) {
  const Dataset dataset = BlobScene(1000, 3, 4, 0.03, 223);
  const int min_pts = 6;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  DbscanParams dbscan_params;
  dbscan_params.epsilon = epsilon;
  dbscan_params.min_pts = min_pts;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  params.learning_threshold = GetParam();
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_GE(PairRecall(reference.labels, out.labels), 0.95)
      << "T=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ThresholdSweep, DbsvecLearningThresholdTest,
                         ::testing::Values(0, 1, 2, 3, 4, 6));

TEST(DbsvecTest, TinyTargetCapStillAccurate) {
  // Aggressive SVDD subsampling may cost extra rounds but not accuracy.
  const Dataset dataset = BlobScene(1500, 2, 4, 0.02, 225);
  const int min_pts = 8;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  DbscanParams dbscan_params;
  dbscan_params.epsilon = epsilon;
  dbscan_params.min_pts = min_pts;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  params.max_svdd_target = 64;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_GE(PairRecall(reference.labels, out.labels), 0.98);
}

TEST(DbsvecTest, DefaultCapEngagesAndKeepsDbscanLabels) {
  // Two well-separated ~1.5k-point blobs: each sub-cluster outgrows the
  // default max_svdd_target, so its larger rounds train on the subsample.
  // ε = σ/2 keeps each blob one dense cluster out to ~3σ.
  const Dataset dataset = BlobScene(3000, 2, 2, 0.02, 231);
  const int min_pts = 8;
  const double epsilon = 0.5;
  DbscanParams dbscan_params;
  dbscan_params.epsilon = epsilon;
  dbscan_params.min_pts = min_pts;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  Clustering runs[2];
  const int threads[2] = {1, 8};
  for (int k = 0; k < 2; ++k) {
    SetGlobalThreads(threads[k]);
    const Status status = RunDbsvec(dataset, params, &runs[k]);
    SetGlobalThreads(0);
    ASSERT_TRUE(status.ok());
  }
  const Clustering& out = runs[0];
  EXPECT_GT(out.stats.num_capped_solves, 0u);
  EXPECT_EQ(out.labels, runs[1].labels);
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(reference.labels, out.labels), 1.0);
  for (PointIndex i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(reference.labels[i] == Clustering::kNoise,
              out.labels[i] == Clustering::kNoise)
        << "point " << i;
  }

  params.max_svdd_target = 0;
  Clustering uncapped;
  ASSERT_TRUE(RunDbsvec(dataset, params, &uncapped).ok());
  EXPECT_EQ(uncapped.stats.num_capped_solves, 0u);
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(uncapped.labels, out.labels), 1.0);
}

TEST(DbsvecTest, NuNearOneDegeneratesTowardDbscan) {
  // Sec. IV-C: as nu -> 1 every target point becomes a support vector and
  // DBSVEC degenerates to DBSCAN (range queries on everything).
  const Dataset dataset = BlobScene(800, 2, 3, 0.05, 227);
  const int min_pts = 5;
  const double epsilon = SuggestEpsilon(dataset, min_pts);
  DbscanParams dbscan_params;
  dbscan_params.epsilon = epsilon;
  dbscan_params.min_pts = min_pts;
  Clustering reference;
  ASSERT_TRUE(RunDbscan(dataset, dbscan_params, &reference).ok());

  DbsvecParams params;
  params.epsilon = epsilon;
  params.min_pts = min_pts;
  params.nu_mode = NuMode::kFixed;
  params.fixed_nu = 1.0;
  Clustering out;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out).ok());
  EXPECT_DOUBLE_EQ(PairRecall(reference.labels, out.labels), 1.0);
  EXPECT_DOUBLE_EQ(PairPrecision(reference.labels, out.labels), 1.0);
}

TEST(DbsvecTest, WithIndexEntryPointMatchesConvenienceWrapper) {
  const Dataset dataset = BlobScene(600, 2, 3, 0.02, 221);
  DbsvecParams params;
  params.epsilon = SuggestEpsilon(dataset, 5);
  params.min_pts = 5;
  Clustering via_wrapper;
  ASSERT_TRUE(RunDbsvec(dataset, params, &via_wrapper).ok());
  const std::unique_ptr<NeighborIndex> index =
      CreateIndex(IndexType::kKdTree, dataset, params.epsilon);
  Clustering via_index;
  ASSERT_TRUE(RunDbsvecWithIndex(*index, params, &via_index).ok());
  EXPECT_EQ(via_wrapper.labels, via_index.labels);
}

}  // namespace
}  // namespace dbsvec
