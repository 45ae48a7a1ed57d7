// AVX-512F implementations of the batched micro-kernels. Compiled with
// -mavx512f (this translation unit only) and dispatched into only after a
// runtime cpuid check, so the rest of the library stays runnable on any
// x86-64.
//
// One SoA block row is kBlockWidth = 8 doubles = exactly one 512-bit
// register, so the whole block travels in a single aligned load per
// dimension and no cross-register shuffles are ever needed.
//
// Determinism: every kernel performs, per point/element, the exact
// operation sequence of its scalar counterpart in kernels_scalar.cc —
// subtract, multiply, add in ascending dimension order, one point per SIMD
// lane. Vectorization happens *across points* (8 per block) or *across
// independent elements*, never across the dimensions of one accumulation,
// so no floating-point reduction is reordered. Explicit mul+add intrinsics
// are used instead of FMA, and the file is compiled with -ffp-contract=off
// so the compiler cannot re-fuse them; all backends therefore round
// identically and DBSVEC_SIMD=off|avx2|avx512 produce bit-identical
// output. KernelExpAvx512 is KernelExp (kernels_scalar.cc) eight lanes at
// a time, step for step; the < 8-element tail calls KernelExp itself.

#include "simd/simd_kernels.h"

#if defined(DBSVEC_HAVE_AVX512)

#include <immintrin.h>

#include <bit>
#include <cfloat>
#include <iterator>

namespace dbsvec::simd {

namespace {

/// Squared distances of all 8 block lanes into one 8-wide accumulator.
inline __m512d BlockDistances(const double* query, const double* block,
                              int dim) {
  __m512d acc = _mm512_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m512d q = _mm512_set1_pd(query[j]);
    const __m512d d = _mm512_sub_pd(_mm512_load_pd(block + kBlockWidth * j), q);
    acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
  }
  return acc;
}

/// KernelExp on 8 lanes: the scalar reference's operations, in its order.
inline __m512d ExpLanes(__m512d x) {
  const __m512d xc = _mm512_max_pd(x, _mm512_set1_pd(kExpMinArg));
  const __m512d shift = _mm512_set1_pd(kExpShift);
  const __m512d t =
      _mm512_add_pd(_mm512_mul_pd(xc, _mm512_set1_pd(kExpLog2e)), shift);
  const __m512d k = _mm512_sub_pd(t, shift);
  const __m512d r = _mm512_sub_pd(
      _mm512_sub_pd(xc, _mm512_mul_pd(k, _mm512_set1_pd(kExpLn2Hi))),
      _mm512_mul_pd(k, _mm512_set1_pd(kExpLn2Lo)));
  __m512d q = _mm512_set1_pd(kExpPoly[0]);
  for (size_t i = 1; i < std::size(kExpPoly); ++i) {
    q = _mm512_add_pd(_mm512_mul_pd(q, r), _mm512_set1_pd(kExpPoly[i]));
  }
  const __m512d p = _mm512_add_pd(
      _mm512_set1_pd(1.0),
      _mm512_add_pd(r, _mm512_mul_pd(_mm512_mul_pd(r, r), q)));
  const __m512d scale = _mm512_castsi512_pd(_mm512_slli_epi64(
      _mm512_add_epi64(_mm512_castpd_si512(t),
                       _mm512_set1_epi64(static_cast<int64_t>(kExpBias))),
      52));
  const __m512d result = _mm512_mul_pd(p, scale);
  const __mmask8 flush =
      _mm512_cmp_pd_mask(result, _mm512_set1_pd(DBL_MIN), _CMP_LT_OQ);
  const __mmask8 nan = _mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q);
  return _mm512_mask_blend_pd(
      nan, _mm512_mask_blend_pd(flush, result, _mm512_setzero_pd()), x);
}

}  // namespace

void SquaredDistanceBlockAvx512(const double* query, const double* block,
                                int dim, double* out) {
  _mm512_storeu_pd(out, BlockDistances(query, block, dim));
}

uint32_t CountWithinBlockAvx512(const double* query, const double* block,
                                int dim, uint32_t lane_mask, double eps_sq) {
  const __m512d acc = BlockDistances(query, block, dim);
  const __mmask8 within =
      _mm512_cmp_pd_mask(acc, _mm512_set1_pd(eps_sq), _CMP_LE_OQ);
  return static_cast<uint32_t>(
      std::popcount(static_cast<uint32_t>(within) & lane_mask));
}

void AxpyFloatAvx512(double a, const float* x, double* y, size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512d xd = _mm512_cvtps_pd(_mm256_loadu_ps(x + k));
    const __m512d yd = _mm512_loadu_pd(y + k);
    _mm512_storeu_pd(y + k, _mm512_add_pd(yd, _mm512_mul_pd(va, xd)));
  }
  for (; k < n; ++k) {
    y[k] += a * x[k];
  }
}

void GradientUpdateAvx512(double a, const float* xi, const float* xj,
                          double* y, size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    // Subtract in float first — identical to the scalar expression
    // `a * (xi[k] - xj[k])`, where the operands are floats.
    const __m256 diff =
        _mm256_sub_ps(_mm256_loadu_ps(xi + k), _mm256_loadu_ps(xj + k));
    const __m512d yd = _mm512_loadu_pd(y + k);
    _mm512_storeu_pd(
        y + k, _mm512_add_pd(yd, _mm512_mul_pd(va, _mm512_cvtps_pd(diff))));
  }
  for (; k < n; ++k) {
    y[k] += a * (xi[k] - xj[k]);
  }
}

void KernelExpAvx512(const double* d2, double c, double* out, size_t n) {
  const double neg_c = -c;
  const __m512d vc = _mm512_set1_pd(neg_c);
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm512_storeu_pd(out + k,
                     ExpLanes(_mm512_mul_pd(_mm512_loadu_pd(d2 + k), vc)));
  }
  for (; k < n; ++k) {
    out[k] = KernelExp(d2[k] * neg_c);
  }
}

}  // namespace dbsvec::simd

#endif  // DBSVEC_HAVE_AVX512
