#ifndef DBSVEC_SVM_KERNEL_H_
#define DBSVEC_SVM_KERNEL_H_

#include <span>

#include "common/dataset.h"
#include "simd/simd.h"

namespace dbsvec {

/// Gaussian (RBF) kernel K(x, y) = exp(-||x - y||² / (2σ²)) — Eq. 6 of the
/// paper. σ is the RMS width; the paper's kernel-parameter selection
/// strategy (Sec. IV-B2) picks σ = r/√2 with r the radius of the target
/// set, the derived lower bound that avoids the "crater" overfitting
/// regime.
class GaussianKernel {
 public:
  /// Creates a kernel with width `sigma` (> 0).
  explicit GaussianKernel(double sigma)
      : inv_two_sigma_sq_(1.0 / (2.0 * sigma * sigma)), sigma_(sigma) {}

  /// K(a, b) for two coordinate vectors of equal length.
  double operator()(std::span<const double> a,
                    std::span<const double> b) const {
    return FromSquaredDistance(SquaredDistance(a, b));
  }

  /// K value given a precomputed squared Euclidean distance, through the
  /// same KernelExp the batched rows use.
  double FromSquaredDistance(double dist_sq) const {
    return simd::KernelExp(-dist_sq * inv_two_sigma_sq_);
  }

  /// The RMS width parameter.
  double sigma() const { return sigma_; }

  /// The precomputed exponent coefficient 1/(2σ²) — handed to the batched
  /// kernel rows (RbfRow, the penalty weights) so their KernelExp argument
  /// matches FromSquaredDistance bit for bit.
  double inv_two_sigma_sq() const { return inv_two_sigma_sq_; }

 private:
  double inv_two_sigma_sq_;
  double sigma_;
};

}  // namespace dbsvec

#endif  // DBSVEC_SVM_KERNEL_H_
