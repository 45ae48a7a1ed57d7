// Portable scalar implementations of the batched micro-kernels. These are
// the *reference* semantics: each lane accumulates its point's squared
// distance in ascending dimension order with a separate multiply and add,
// and KernelExp is the one exp of the kernel path. The AVX2 and AVX-512
// kernels perform the identical per-lane operation sequence, so every
// backend produces bit-identical results.
//
// This file is compiled with -ffp-contract=off so the compiler cannot fuse
// the multiply-add into an FMA (which rounds once instead of twice) on
// builds where FMA is available (-march=native); contraction would break
// the DBSVEC_SIMD=off|on determinism contract.

#include <bit>
#include <cfloat>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "simd/simd_kernels.h"

namespace dbsvec::simd {

void SquaredDistanceBlockScalar(const double* query, const double* block,
                                int dim, double* out) {
  for (size_t lane = 0; lane < kBlockWidth; ++lane) {
    double sum = 0.0;
    for (int j = 0; j < dim; ++j) {
      const double diff = block[kBlockWidth * j + lane] - query[j];
      sum += diff * diff;
    }
    out[lane] = sum;
  }
}

uint32_t CountWithinBlockScalar(const double* query, const double* block,
                                int dim, uint32_t lane_mask, double eps_sq) {
  uint32_t count = 0;
  for (size_t lane = 0; lane < kBlockWidth; ++lane) {
    if ((lane_mask & (1u << lane)) == 0) {
      continue;
    }
    double sum = 0.0;
    for (int j = 0; j < dim; ++j) {
      const double diff = block[kBlockWidth * j + lane] - query[j];
      sum += diff * diff;
    }
    if (sum <= eps_sq) {
      ++count;
    }
  }
  return count;
}

void AxpyFloatScalar(double a, const float* x, double* y, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    y[k] += a * x[k];
  }
}

void GradientUpdateScalar(double a, const float* xi, const float* xj,
                          double* y, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    y[k] += a * (xi[k] - xj[k]);
  }
}

double KernelExp(double x) {
  const double xc = x < kExpMinArg ? kExpMinArg : x;
  const double t = xc * kExpLog2e + kExpShift;
  const double k = t - kExpShift;
  const double r = (xc - k * kExpLn2Hi) - k * kExpLn2Lo;
  double q = kExpPoly[0];
  for (size_t i = 1; i < std::size(kExpPoly); ++i) {
    q = q * r + kExpPoly[i];
  }
  const double p = 1.0 + (r + r * r * q);
  const double scale =
      std::bit_cast<double>((std::bit_cast<uint64_t>(t) + kExpBias) << 52);
  const double result = p * scale;
  if (x != x) {
    return x;
  }
  return result < DBL_MIN ? 0.0 : result;
}

void KernelExpScalar(const double* d2, double c, double* out, size_t n) {
  const double neg_c = -c;
  for (size_t k = 0; k < n; ++k) {
    out[k] = KernelExp(d2[k] * neg_c);
  }
}

}  // namespace dbsvec::simd
