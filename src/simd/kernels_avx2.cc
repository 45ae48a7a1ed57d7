// AVX2 implementations of the batched micro-kernels. Compiled with -mavx2
// (this translation unit only) and dispatched into only after a runtime
// cpuid check, so the rest of the library stays runnable on any x86-64.
//
// Determinism: every kernel performs, per point/element, the exact
// operation sequence of its scalar counterpart in kernels_scalar.cc —
// subtract, multiply, add in ascending dimension order, one point per SIMD
// lane. Vectorization happens *across points* (8 per block) or *across
// independent elements*, never across the dimensions of one accumulation,
// so no floating-point reduction is reordered. Explicit mul+add intrinsics
// are used instead of FMA, and the file is compiled with -ffp-contract=off
// so the compiler cannot re-fuse them; both backends therefore round
// identically and DBSVEC_SIMD=off|on produce bit-identical output.
// KernelExpAvx2 is KernelExp (kernels_scalar.cc) four lanes at a time,
// step for step; the < 4-element tail calls KernelExp itself.

#include "simd/simd_kernels.h"

#if defined(DBSVEC_HAVE_AVX2)

#include <immintrin.h>

#include <bit>
#include <cfloat>
#include <iterator>

namespace dbsvec::simd {

namespace {

/// Squared distances of the 8 block lanes into two 4-wide accumulators.
inline void BlockDistances(const double* query, const double* block, int dim,
                           __m256d* acc_lo, __m256d* acc_hi) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d q = _mm256_set1_pd(query[j]);
    const double* row = block + kBlockWidth * j;
    const __m256d d0 = _mm256_sub_pd(_mm256_load_pd(row), q);
    const __m256d d1 = _mm256_sub_pd(_mm256_load_pd(row + 4), q);
    lo = _mm256_add_pd(lo, _mm256_mul_pd(d0, d0));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(d1, d1));
  }
  *acc_lo = lo;
  *acc_hi = hi;
}

/// KernelExp on 4 lanes: the scalar reference's operations, in its order.
inline __m256d ExpLanes(__m256d x) {
  const __m256d xc = _mm256_max_pd(x, _mm256_set1_pd(kExpMinArg));
  const __m256d shift = _mm256_set1_pd(kExpShift);
  const __m256d t =
      _mm256_add_pd(_mm256_mul_pd(xc, _mm256_set1_pd(kExpLog2e)), shift);
  const __m256d k = _mm256_sub_pd(t, shift);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(xc, _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Lo)));
  __m256d q = _mm256_set1_pd(kExpPoly[0]);
  for (size_t i = 1; i < std::size(kExpPoly); ++i) {
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(kExpPoly[i]));
  }
  const __m256d p = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, r), q)));
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(t),
                       _mm256_set1_epi64x(static_cast<int64_t>(kExpBias))),
      52));
  __m256d result = _mm256_mul_pd(p, scale);
  result = _mm256_andnot_pd(
      _mm256_cmp_pd(result, _mm256_set1_pd(DBL_MIN), _CMP_LT_OQ), result);
  return _mm256_blendv_pd(result, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

}  // namespace

void SquaredDistanceBlockAvx2(const double* query, const double* block,
                              int dim, double* out) {
  __m256d lo;
  __m256d hi;
  BlockDistances(query, block, dim, &lo, &hi);
  _mm256_storeu_pd(out, lo);
  _mm256_storeu_pd(out + 4, hi);
}

uint32_t CountWithinBlockAvx2(const double* query, const double* block,
                              int dim, uint32_t lane_mask, double eps_sq) {
  __m256d lo;
  __m256d hi;
  BlockDistances(query, block, dim, &lo, &hi);
  const __m256d eps = _mm256_set1_pd(eps_sq);
  const uint32_t m_lo = static_cast<uint32_t>(
      _mm256_movemask_pd(_mm256_cmp_pd(lo, eps, _CMP_LE_OQ)));
  const uint32_t m_hi = static_cast<uint32_t>(
      _mm256_movemask_pd(_mm256_cmp_pd(hi, eps, _CMP_LE_OQ)));
  return static_cast<uint32_t>(
      std::popcount(((m_hi << 4) | m_lo) & lane_mask));
}

void AxpyFloatAvx2(double a, const float* x, double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d xd = _mm256_cvtps_pd(_mm_loadu_ps(x + k));
    const __m256d yd = _mm256_loadu_pd(y + k);
    _mm256_storeu_pd(y + k, _mm256_add_pd(yd, _mm256_mul_pd(va, xd)));
  }
  for (; k < n; ++k) {
    y[k] += a * x[k];
  }
}

void GradientUpdateAvx2(double a, const float* xi, const float* xj,
                        double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    // Subtract in float first — identical to the scalar expression
    // `a * (xi[k] - xj[k])`, where the operands are floats.
    const __m128 diff = _mm_sub_ps(_mm_loadu_ps(xi + k), _mm_loadu_ps(xj + k));
    const __m256d yd = _mm256_loadu_pd(y + k);
    _mm256_storeu_pd(
        y + k, _mm256_add_pd(yd, _mm256_mul_pd(va, _mm256_cvtps_pd(diff))));
  }
  for (; k < n; ++k) {
    y[k] += a * (xi[k] - xj[k]);
  }
}

void KernelExpAvx2(const double* d2, double c, double* out, size_t n) {
  const double neg_c = -c;
  const __m256d vc = _mm256_set1_pd(neg_c);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm256_storeu_pd(out + k,
                     ExpLanes(_mm256_mul_pd(_mm256_loadu_pd(d2 + k), vc)));
  }
  for (; k < n; ++k) {
    out[k] = KernelExp(d2[k] * neg_c);
  }
}

}  // namespace dbsvec::simd

#endif  // DBSVEC_HAVE_AVX2
