// Scalar-vs-SIMD agreement: the batched micro-kernels must produce
// *bit-identical* results on every backend — distances, kernel rows, SMO
// row products, and end-to-end clustering labels. Dimensions 1..19 sweep
// every remainder-lane shape of the 8-wide blocks (including d=8 and d=16
// exactly filling cache-line rows). This is the enforcement of the
// determinism contract documented in docs/PERFORMANCE.md.

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/dataset.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbsvec.h"
#include "data/synthetic.h"
#include "index/neighbor_index.h"
#include "simd/simd.h"
#include "simd/soa_block.h"
#include "svm/kernel.h"

namespace dbsvec {
namespace {

/// Restores the dispatch table on scope exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend backend)
      : previous_(simd::ActiveBackend()) {
    simd::ForceBackend(backend);
  }
  ~ScopedBackend() { simd::ForceBackend(previous_); }

 private:
  simd::Backend previous_;
};

class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { SetGlobalThreads(threads); }
  ~ScopedThreads() { SetGlobalThreads(0); }
};

Dataset RandomDataset(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  Dataset dataset(dim);
  std::vector<double> point(dim);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) {
      point[j] = rng.NextDouble() * 200.0 - 100.0;
    }
    dataset.Append(point);
  }
  return dataset;
}

bool HaveAvx2() { return simd::Avx2Available(); }
bool HaveAvx512() { return simd::Avx512Available(); }

/// Every SIMD backend this build and CPU can run.
std::vector<simd::Backend> AvailableBackends() {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (HaveAvx2()) {
    backends.push_back(simd::Backend::kAvx2);
  }
  if (HaveAvx512()) {
    backends.push_back(simd::Backend::kAvx512);
  }
  return backends;
}

TEST(SimdTest, BackendNamesResolve) {
  EXPECT_STREQ(simd::BackendName(simd::Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kAvx2), "avx2");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kAvx512), "avx512");
  // Whatever the environment selected, the active table must be coherent.
  const simd::Backend active = simd::ActiveBackend();
  EXPECT_STREQ(simd::ActiveOps().name, simd::BackendName(active));
}

TEST(SimdTest, ForcedScalarBackendTakesEffect) {
  ScopedBackend scalar(simd::Backend::kScalar);
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  EXPECT_STREQ(simd::ActiveOps().name, "scalar");
}

// --- Primitive agreement, dims 1..19 (remainder-lane sweep) -------------

TEST(SimdTest, SquaredDistancesExactlyMatchScalarAndDataset) {
  if (!HaveAvx2()) {
    GTEST_SKIP() << "AVX2 unavailable; scalar is the only backend";
  }
  for (int dim = 1; dim <= 19; ++dim) {
    // 61 points: a prime count exercising a ragged trailing block.
    const Dataset dataset = RandomDataset(61, dim, 1000 + dim);
    const simd::SoaBlockView view(dataset);
    const auto query = dataset.point(17);

    const size_t n = static_cast<size_t>(dataset.size());
    std::vector<double> scalar_d2(n), avx2_d2(n);
    {
      ScopedBackend backend(simd::Backend::kScalar);
      view.SquaredDistances(query, 0, n, scalar_d2.data());
    }
    {
      ScopedBackend backend(simd::Backend::kAvx2);
      view.SquaredDistances(query, 0, n, avx2_d2.data());
    }
    for (size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(testing::Message() << "dim=" << dim << " i=" << i);
      const double reference =
          dataset.SquaredDistanceTo(static_cast<PointIndex>(i), query);
      // Bit-exact, not approximate: same accumulation order everywhere.
      EXPECT_EQ(scalar_d2[i], reference);
      EXPECT_EQ(avx2_d2[i], reference);
    }
  }
}

TEST(SimdTest, SubrangeDistancesMatchFullRange) {
  // Leaf scans start mid-block; every (begin, end) alignment must agree.
  const int dim = 7;
  const Dataset dataset = RandomDataset(40, dim, 77);
  const simd::SoaBlockView view(dataset);
  const auto query = dataset.point(3);
  std::vector<double> full(40);
  view.SquaredDistances(query, 0, 40, full.data());
  for (size_t begin = 0; begin < 40; begin += 3) {
    for (size_t end = begin + 1; end <= 40; end += 5) {
      std::vector<double> sub(end - begin);
      view.SquaredDistances(query, begin, end, sub.data());
      for (size_t k = 0; k < sub.size(); ++k) {
        ASSERT_EQ(sub[k], full[begin + k]) << begin << ".." << end;
      }
    }
  }
}

TEST(SimdTest, CountWithinMatchesMaterializedScan) {
  for (int dim = 1; dim <= 19; ++dim) {
    const Dataset dataset = RandomDataset(53, dim, 300 + dim);
    const simd::SoaBlockView view(dataset);
    const auto query = dataset.point(5);
    const size_t n = static_cast<size_t>(dataset.size());
    std::vector<double> d2(n);
    view.SquaredDistances(query, 0, n, d2.data());
    // A threshold that lands strictly between observed distances plus the
    // exact value of one distance (inclusive boundary).
    for (const double eps_sq : {d2[11], d2[11] * 1.1, 50.0 * dim}) {
      size_t expected = 0;
      for (size_t i = 0; i < n; ++i) {
        expected += d2[i] <= eps_sq ? 1 : 0;
      }
      EXPECT_EQ(view.CountWithin(query, 0, n, eps_sq), expected)
          << "dim=" << dim << " eps_sq=" << eps_sq;
      if (HaveAvx2()) {
        ScopedBackend scalar(simd::Backend::kScalar);
        EXPECT_EQ(view.CountWithin(query, 0, n, eps_sq), expected);
      }
      // Sub-range with ragged ends.
      size_t partial = 0;
      for (size_t i = 9; i < 31; ++i) {
        partial += d2[i] <= eps_sq ? 1 : 0;
      }
      EXPECT_EQ(view.CountWithin(query, 9, 31, eps_sq), partial);
    }
  }
}

TEST(SimdTest, RbfRowMatchesGaussianKernel) {
  for (int dim : {1, 3, 8, 13}) {
    const Dataset dataset = RandomDataset(45, dim, 500 + dim);
    const simd::SoaBlockView view(dataset);
    const GaussianKernel kernel(7.5);
    const auto query = dataset.point(0);
    const size_t n = static_cast<size_t>(dataset.size());

    std::vector<float> scalar_row(n), simd_row(n);
    {
      ScopedBackend backend(simd::Backend::kScalar);
      view.RbfRow(query, kernel.inv_two_sigma_sq(), 0, n, scalar_row.data());
    }
    view.RbfRow(query, kernel.inv_two_sigma_sq(), 0, n, simd_row.data());
    for (size_t i = 0; i < n; ++i) {
      const float reference = static_cast<float>(kernel.FromSquaredDistance(
          dataset.SquaredDistanceTo(static_cast<PointIndex>(i), query)));
      ASSERT_EQ(scalar_row[i], reference) << "dim=" << dim << " i=" << i;
      ASSERT_EQ(simd_row[i], reference) << "dim=" << dim << " i=" << i;
    }
  }
}

TEST(SimdTest, SmoRowProductsMatchScalar) {
  if (!HaveAvx2()) {
    GTEST_SKIP() << "AVX2 unavailable; scalar is the only backend";
  }
  Rng rng(99);
  for (const size_t n : {1u, 4u, 7u, 64u, 1001u}) {
    std::vector<float> xi(n), xj(n);
    std::vector<double> y0(n);
    for (size_t k = 0; k < n; ++k) {
      xi[k] = static_cast<float>(rng.NextDouble());
      xj[k] = static_cast<float>(rng.NextDouble());
      y0[k] = rng.NextDouble() * 10.0 - 5.0;
    }
    const double a = 0.731;

    std::vector<double> y_scalar = y0, y_avx2 = y0;
    {
      ScopedBackend backend(simd::Backend::kScalar);
      simd::ActiveOps().axpy_float(a, xi.data(), y_scalar.data(), n);
      simd::ActiveOps().gradient_update(a, xi.data(), xj.data(),
                                        y_scalar.data(), n);
    }
    {
      ScopedBackend backend(simd::Backend::kAvx2);
      simd::ActiveOps().axpy_float(a, xi.data(), y_avx2.data(), n);
      simd::ActiveOps().gradient_update(a, xi.data(), xj.data(),
                                        y_avx2.data(), n);
    }
    EXPECT_EQ(y_scalar, y_avx2) << "n=" << n;
  }
}

// --- AVX-512 backend: bit-exact agreement with the scalar reference -----
//
// One SoA block row is exactly one 512-bit register, so the AVX-512
// kernels have no horizontal reductions at all; they must still match the
// scalar operation order bit for bit. Auto-skips on hosts without
// AVX-512F.

TEST(SimdTest, Avx512SquaredDistancesExactlyMatchScalarAndDataset) {
  if (!HaveAvx512()) {
    GTEST_SKIP() << "AVX-512F unavailable on this host";
  }
  for (int dim = 1; dim <= 19; ++dim) {
    const Dataset dataset = RandomDataset(61, dim, 2000 + dim);
    const simd::SoaBlockView view(dataset);
    const auto query = dataset.point(17);
    const size_t n = static_cast<size_t>(dataset.size());
    std::vector<double> avx512_d2(n);
    {
      ScopedBackend backend(simd::Backend::kAvx512);
      view.SquaredDistances(query, 0, n, avx512_d2.data());
    }
    for (size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(testing::Message() << "dim=" << dim << " i=" << i);
      EXPECT_EQ(avx512_d2[i], dataset.SquaredDistanceTo(
                                  static_cast<PointIndex>(i), query));
    }
  }
}

TEST(SimdTest, Avx512CountWithinMatchesScalar) {
  if (!HaveAvx512()) {
    GTEST_SKIP() << "AVX-512F unavailable on this host";
  }
  for (int dim = 1; dim <= 19; ++dim) {
    const Dataset dataset = RandomDataset(53, dim, 4000 + dim);
    const simd::SoaBlockView view(dataset);
    const auto query = dataset.point(5);
    const size_t n = static_cast<size_t>(dataset.size());
    std::vector<double> d2(n);
    view.SquaredDistances(query, 0, n, d2.data());
    for (const double eps_sq : {d2[11], d2[11] * 1.1, 50.0 * dim}) {
      size_t full = 0, partial = 0;
      for (size_t i = 0; i < n; ++i) {
        full += d2[i] <= eps_sq ? 1 : 0;
        partial += i >= 9 && i < 31 && d2[i] <= eps_sq ? 1 : 0;
      }
      ScopedBackend backend(simd::Backend::kAvx512);
      EXPECT_EQ(view.CountWithin(query, 0, n, eps_sq), full)
          << "dim=" << dim << " eps_sq=" << eps_sq;
      EXPECT_EQ(view.CountWithin(query, 9, 31, eps_sq), partial)
          << "dim=" << dim << " eps_sq=" << eps_sq;
    }
  }
}

TEST(SimdTest, Avx512SmoRowProductsMatchScalar) {
  if (!HaveAvx512()) {
    GTEST_SKIP() << "AVX-512F unavailable on this host";
  }
  Rng rng(99);
  for (const size_t n : {1u, 4u, 7u, 8u, 64u, 1001u}) {
    std::vector<float> xi(n), xj(n);
    std::vector<double> y0(n);
    for (size_t k = 0; k < n; ++k) {
      xi[k] = static_cast<float>(rng.NextDouble());
      xj[k] = static_cast<float>(rng.NextDouble());
      y0[k] = rng.NextDouble() * 10.0 - 5.0;
    }
    const double a = 0.731;
    std::vector<double> y_scalar = y0, y_avx512 = y0;
    {
      ScopedBackend backend(simd::Backend::kScalar);
      simd::ActiveOps().axpy_float(a, xi.data(), y_scalar.data(), n);
      simd::ActiveOps().gradient_update(a, xi.data(), xj.data(),
                                        y_scalar.data(), n);
    }
    {
      ScopedBackend backend(simd::Backend::kAvx512);
      simd::ActiveOps().axpy_float(a, xi.data(), y_avx512.data(), n);
      simd::ActiveOps().gradient_update(a, xi.data(), xj.data(),
                                        y_avx512.data(), n);
    }
    EXPECT_EQ(y_scalar, y_avx512) << "n=" << n;
  }
}

// --- KernelExp: one exp, the same bits on every backend ----------------

/// Kernel exponents to check: a dense sweep of [-760, 0] (past the DBL_MIN
/// flush point at about -708.4) plus -2^-e·(1 + f) down to the smallest
/// subnormal magnitude.
std::vector<double> KernelExpArguments() {
  std::vector<double> xs;
  constexpr int kSweep = 1 << 20;
  for (int i = 0; i <= kSweep; ++i) {
    xs.push_back(-760.0 * i / kSweep);
  }
  for (int e = 0; e <= 1074; ++e) {
    for (const double f : {0.0, 0.1, 0.5, 0.999}) {
      xs.push_back(-std::ldexp(1.0 + f, -e));
    }
  }
  return xs;
}

/// The active backend's `kernel_exp` on arguments `xs`: d2 = -x and c = 1
/// make its exponent -d2·c exactly x.
std::vector<double> KernelExpRow(const std::vector<double>& xs) {
  std::vector<double> d2(xs.size());
  for (size_t k = 0; k < xs.size(); ++k) {
    d2[k] = -xs[k];
  }
  std::vector<double> out(xs.size());
  simd::ActiveOps().kernel_exp(d2.data(), 1.0, out.data(), out.size());
  return out;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(SimdTest, KernelExpBitIdenticalAcrossBackends) {
  const std::vector<double> xs = KernelExpArguments();
  for (const simd::Backend backend_choice : AvailableBackends()) {
    ScopedBackend backend(backend_choice);
    const std::vector<double> row = KernelExpRow(xs);
    size_t mismatches = 0;
    for (size_t k = 0; k < xs.size(); ++k) {
      if (Bits(row[k]) != Bits(simd::KernelExp(xs[k])) && ++mismatches < 5) {
        ADD_FAILURE() << simd::BackendName(backend_choice) << " x=" << xs[k]
                      << " row=" << row[k]
                      << " scalar=" << simd::KernelExp(xs[k]);
      }
    }
    EXPECT_EQ(mismatches, 0u) << simd::BackendName(backend_choice);
  }
}

TEST(SimdTest, KernelExpEdgeCases) {
  const double ln_min = std::log(DBL_MIN);
  const double below_min = std::nextafter(ln_min, -1000.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // The closest double to ln(DBL_MIN) lies just above it, one step down
  // lies below it: the boundary of the flush.
  ASSERT_GE(std::exp(ln_min), DBL_MIN);
  ASSERT_LT(std::exp(below_min), DBL_MIN);

  EXPECT_EQ(Bits(simd::KernelExp(0.0)), Bits(1.0));
  EXPECT_EQ(Bits(simd::KernelExp(-0.0)), Bits(1.0));
  EXPECT_GE(simd::KernelExp(ln_min), DBL_MIN);
  EXPECT_LE(std::llabs(static_cast<long long>(Bits(simd::KernelExp(ln_min)) -
                                              Bits(std::exp(ln_min)))),
            1);
  EXPECT_EQ(Bits(simd::KernelExp(below_min)), Bits(0.0));
  EXPECT_EQ(Bits(simd::KernelExp(-709.0)), Bits(0.0));
  EXPECT_EQ(Bits(simd::KernelExp(-1e300)), Bits(0.0));
  EXPECT_EQ(Bits(simd::KernelExp(-inf)), Bits(0.0));
  EXPECT_EQ(Bits(simd::KernelExp(nan)), Bits(nan));

  // The same cases through every backend's row primitive, as exponents
  // and as the squared distances a kernel row really sees.
  const std::vector<double> xs = {0.0,   -0.0,    ln_min, below_min,
                                  -709., -1e300, -inf,   nan};
  for (const simd::Backend backend_choice : AvailableBackends()) {
    ScopedBackend backend(backend_choice);
    SCOPED_TRACE(simd::BackendName(backend_choice));
    const std::vector<double> row = KernelExpRow(xs);
    for (size_t k = 0; k + 1 < xs.size(); ++k) {
      EXPECT_EQ(Bits(row[k]), Bits(simd::KernelExp(xs[k]))) << "x=" << xs[k];
    }
    EXPECT_TRUE(std::isnan(row.back()));

    const std::vector<double> d2 = {0.0, 1.0, 1e300, inf, nan};
    std::vector<double> kernel(d2.size());
    simd::ActiveOps().kernel_exp(d2.data(), 0.5, kernel.data(), d2.size());
    EXPECT_EQ(kernel[0], 1.0);
    EXPECT_EQ(Bits(kernel[1]), Bits(simd::KernelExp(-0.5)));
    EXPECT_EQ(Bits(kernel[2]), Bits(0.0));
    EXPECT_EQ(Bits(kernel[3]), Bits(0.0));
    EXPECT_TRUE(std::isnan(kernel[4]));
  }
}

TEST(SimdTest, KernelExpEveryTailLengthAndUnalignedPointers) {
  constexpr size_t kMaxLength = 33;
  constexpr size_t kMaxOffset = 3;
  constexpr double kSentinel = -12345.0;
  Rng rng(71);
  std::vector<double> d2(kMaxLength + kMaxOffset);
  for (double& v : d2) {
    v = rng.NextDouble() * 40.0;
  }
  const double c = 0.37;
  for (const simd::Backend backend_choice : AvailableBackends()) {
    ScopedBackend backend(backend_choice);
    for (size_t n = 0; n <= kMaxLength; ++n) {
      for (size_t in_offset = 0; in_offset <= kMaxOffset; ++in_offset) {
        for (size_t out_offset = 0; out_offset <= kMaxOffset; ++out_offset) {
          SCOPED_TRACE(testing::Message()
                       << simd::BackendName(backend_choice) << " n=" << n
                       << " in+" << in_offset << " out+" << out_offset);
          std::vector<double> out(kMaxLength + 2 * kMaxOffset + 1, kSentinel);
          simd::ActiveOps().kernel_exp(d2.data() + in_offset, c,
                                       out.data() + out_offset, n);
          for (size_t k = 0; k < out.size(); ++k) {
            if (k >= out_offset && k < out_offset + n) {
              ASSERT_EQ(Bits(out[k]), Bits(simd::KernelExp(
                                          -d2[in_offset + k - out_offset] * c)))
                  << "k=" << k;
            } else {
              ASSERT_EQ(out[k], kSentinel) << "wrote outside [0, n): k=" << k;
            }
          }
          // In place, as RbfRow and the penalty weights call it.
          std::vector<double> in_place(d2.begin() + in_offset,
                                       d2.begin() + in_offset + n);
          simd::ActiveOps().kernel_exp(in_place.data(), c, in_place.data(),
                                       n);
          for (size_t k = 0; k < n; ++k) {
            ASSERT_EQ(Bits(in_place[k]), Bits(out[out_offset + k]));
          }
        }
      }
    }
  }
}

TEST(SimdTest, KernelExpWithinOneUlpOfLibm) {
  size_t checked = 0;
  size_t failures = 0;
  for (const double x : KernelExpArguments()) {
    const double reference = std::exp(x);
    if (reference < DBL_MIN) {
      continue;
    }
    ++checked;
    const double value = simd::KernelExp(x);
    const long long ulps = std::llabs(static_cast<long long>(Bits(value)) -
                                      static_cast<long long>(Bits(reference)));
    if (ulps > 1 && ++failures < 5) {
      ADD_FAILURE() << "x=" << x << " KernelExp=" << value
                    << " libm=" << reference << " (" << ulps << " ulp)";
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(checked, size_t{1} << 19);
}

// --- End-to-end label agreement on the tier-1 synthetic workloads -------

constexpr IndexType kEngines[] = {IndexType::kBruteForce, IndexType::kKdTree,
                                  IndexType::kRStarTree, IndexType::kGrid};

TEST(SimdTest, ClusteringLabelsBitIdenticalAcrossBackendsAndThreads) {
  if (!HaveAvx2()) {
    GTEST_SKIP() << "AVX2 unavailable; scalar is the only backend";
  }
  RandomWalkParams params;
  params.n = 4'000;
  params.dim = 4;
  params.num_clusters = 5;
  params.seed = 23;
  const Dataset dataset = GenerateRandomWalk(params);

  for (const IndexType engine : kEngines) {
    DbsvecParams dbsvec_params;
    dbsvec_params.epsilon = 5'000.0;
    dbsvec_params.min_pts = 50;
    dbsvec_params.index = engine;
    dbsvec_params.classify_points = true;

    Clustering reference;  // scalar, sequential
    {
      ScopedBackend backend(simd::Backend::kScalar);
      ScopedThreads threads(1);
      ASSERT_TRUE(RunDbsvec(dataset, dbsvec_params, &reference).ok());
    }
    std::vector<simd::Backend> backends = {simd::Backend::kScalar,
                                           simd::Backend::kAvx2};
    if (HaveAvx512()) {
      backends.push_back(simd::Backend::kAvx512);
    }
    for (const simd::Backend backend_choice : backends) {
      for (const int threads_choice : {1, 8}) {
        ScopedBackend backend(backend_choice);
        ScopedThreads threads(threads_choice);
        Clustering run;
        ASSERT_TRUE(RunDbsvec(dataset, dbsvec_params, &run).ok());
        SCOPED_TRACE(testing::Message()
                     << "engine=" << IndexTypeName(engine) << " backend="
                     << simd::BackendName(backend_choice)
                     << " threads=" << threads_choice);
        EXPECT_EQ(run.labels, reference.labels);
        EXPECT_EQ(run.point_types, reference.point_types);
        EXPECT_EQ(run.num_clusters, reference.num_clusters);
        EXPECT_EQ(run.stats.num_range_queries,
                  reference.stats.num_range_queries);
        EXPECT_EQ(run.stats.num_distance_computations,
                  reference.stats.num_distance_computations);
        EXPECT_EQ(run.stats.smo_iterations, reference.stats.smo_iterations);
        EXPECT_EQ(run.stats.num_support_vectors,
                  reference.stats.num_support_vectors);
      }
    }
  }
}

TEST(SimdTest, ShapesWorkloadLabelsBitIdenticalAcrossBackends) {
  if (!HaveAvx2()) {
    GTEST_SKIP() << "AVX2 unavailable; scalar is the only backend";
  }
  // Second tier-1 generator: Gaussian blobs at dim 2 (exercises the 2-d
  // remainder-lane path end to end).
  GaussianBlobsParams blob_params;
  blob_params.n = 1'500;
  blob_params.dim = 2;
  blob_params.num_clusters = 3;
  blob_params.seed = 7;
  const Dataset dataset = GenerateGaussianBlobs(blob_params);

  DbsvecParams params;
  params.epsilon = 3.0;
  params.min_pts = 10;

  Clustering reference;
  {
    ScopedBackend backend(simd::Backend::kScalar);
    ScopedThreads threads(1);
    ASSERT_TRUE(RunDbsvec(dataset, params, &reference).ok());
  }
  for (const int threads_choice : {1, 8}) {
    ScopedBackend backend(simd::Backend::kAvx2);
    ScopedThreads threads(threads_choice);
    Clustering run;
    ASSERT_TRUE(RunDbsvec(dataset, params, &run).ok());
    EXPECT_EQ(run.labels, reference.labels) << "threads=" << threads_choice;
  }
}

}  // namespace
}  // namespace dbsvec
