#ifndef DBSVEC_SIMD_SIMD_KERNELS_H_
#define DBSVEC_SIMD_SIMD_KERNELS_H_

// Internal declarations shared between the per-backend kernel translation
// units and the dispatch table in dispatch.cc. Consumers use simd/simd.h.

#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

namespace dbsvec::simd {

// KernelExp constants, shared so every backend runs the same operation
// sequence on the same values (see KernelExp in simd.h):
//   t = x·log2(e) + 1.5·2⁵²      k = t − 1.5·2⁵² = round(x / ln2)
//   r = (x − k·ln2_hi) − k·ln2_lo               |r| ≤ ln2/2
//   q = Horner(r; 1/13!, …, 1/2!)               exp(r) = 1 + (r + r²·q)
//   exp(x) = exp(r) · 2^k, 2^k built from the exponent bits of t.
// ln2_hi has 21 trailing zero bits (fdlibm's split), so k·ln2_hi is exact
// for every |k| ≤ 1023 the domain reaches.
inline constexpr double kExpLog2e = 1.4426950408889634;
inline constexpr double kExpShift = 0x1.8p52;
inline constexpr double kExpLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kExpLn2Lo = 1.90821492927058770002e-10;
/// Arguments below this are clamped to it: k becomes −1023, whose scale
/// bits are +0, so the result flushes to +0 like every exp(x) < DBL_MIN.
inline constexpr double kExpMinArg = -709.0;
/// Taylor coefficients 1/n! for n = 13 down to 2 — the Horner order.
inline constexpr double kExpPoly[] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0,
    1.0 / 3628800.0,    1.0 / 362880.0,    1.0 / 40320.0,
    1.0 / 5040.0,       1.0 / 720.0,       1.0 / 120.0,
    1.0 / 24.0,         1.0 / 6.0,         1.0 / 2.0,
};
/// Added to the low bits of t, then shifted into the exponent field:
/// ((bits(t) + 1023) << 52) is the IEEE encoding of 2^k.
inline constexpr uint64_t kExpBias = 1023;

void SquaredDistanceBlockScalar(const double* query, const double* block,
                                int dim, double* out);
uint32_t CountWithinBlockScalar(const double* query, const double* block,
                                int dim, uint32_t lane_mask, double eps_sq);
void AxpyFloatScalar(double a, const float* x, double* y, size_t n);
void GradientUpdateScalar(double a, const float* xi, const float* xj,
                          double* y, size_t n);
void KernelExpScalar(const double* d2, double c, double* out, size_t n);

#if defined(DBSVEC_HAVE_AVX2)
void SquaredDistanceBlockAvx2(const double* query, const double* block,
                              int dim, double* out);
uint32_t CountWithinBlockAvx2(const double* query, const double* block,
                              int dim, uint32_t lane_mask, double eps_sq);
void AxpyFloatAvx2(double a, const float* x, double* y, size_t n);
void GradientUpdateAvx2(double a, const float* xi, const float* xj,
                        double* y, size_t n);
void KernelExpAvx2(const double* d2, double c, double* out, size_t n);
#endif  // DBSVEC_HAVE_AVX2

#if defined(DBSVEC_HAVE_AVX512)
void SquaredDistanceBlockAvx512(const double* query, const double* block,
                                int dim, double* out);
uint32_t CountWithinBlockAvx512(const double* query, const double* block,
                                int dim, uint32_t lane_mask, double eps_sq);
void AxpyFloatAvx512(double a, const float* x, double* y, size_t n);
void GradientUpdateAvx512(double a, const float* xi, const float* xj,
                          double* y, size_t n);
void KernelExpAvx512(const double* d2, double c, double* out, size_t n);
#endif  // DBSVEC_HAVE_AVX512

}  // namespace dbsvec::simd

#endif  // DBSVEC_SIMD_SIMD_KERNELS_H_
