#include "core/penalty_weights.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "simd/soa_block.h"
#include "svm/kernel.h"

namespace dbsvec {

std::vector<double> ComputePenaltyWeights(
    const Dataset& dataset, std::span<const PointIndex> target,
    std::span<const int32_t> train_counts, double sigma,
    const PenaltyWeightOptions& options, Rng* rng) {
  const int n = static_cast<int>(target.size());
  std::vector<double> weights(n, 1.0);
  if (n == 0) {
    return weights;
  }
  const double inv_two_sigma_sq = GaussianKernel(sigma).inv_two_sigma_sq();

  // Anchor set for the kernel-mean estimate, as positions in `target`: the
  // full target set when it is small, otherwise a uniform sample without
  // concern for duplicates (the estimate is a mean).
  std::vector<int> anchors;
  if (n <= options.anchor_count) {
    anchors.resize(n);
    std::iota(anchors.begin(), anchors.end(), 0);
  } else {
    anchors.reserve(options.anchor_count);
    for (int s = 0; s < options.anchor_count; ++s) {
      anchors.push_back(static_cast<int>(rng->NextBounded(n)));
    }
  }
  const double m = static_cast<double>(anchors.size());

  // Anchor-major: one kernel row K(x_a, ·) over the whole target per
  // anchor — batched distances over the SoA view, then the dispatched
  // KernelExp, exactly GaussianKernel::FromSquaredDistance. Each
  // per-point sum accumulates in anchor order, so the weights do not
  // depend on the SIMD backend (docs/PERFORMANCE.md, determinism policy).
  //   sums[i] = Σ_a K(x_a, x_i)
  //   mean_kk = (1/m²)·Σ_a Σ_b K(x_a, x_b) — the constant first term of
  //             Eq. 5, read off the same rows in a-then-b order.
  const simd::SoaBlockView view(dataset, target);
  const auto& ops = simd::ActiveOps();
  std::vector<double> sums(n, 0.0);
  std::vector<double> row(n);
  double mean_kk = 0.0;
  for (const int a : anchors) {
    view.SquaredDistances(dataset.point(target[a]), 0, n, row.data());
    ops.kernel_exp(row.data(), inv_two_sigma_sq, row.data(), row.size());
    for (int i = 0; i < n; ++i) {
      sums[i] += row[i];
    }
    for (const int b : anchors) {
      mean_kk += row[b];
    }
  }
  mean_kk /= m * m;

  // Kernel distance D(x_i) = mean_kk + K(x,x) − (2/m)·Σ_a K(x_a, x)
  // (Eq. 5 with the anchor estimate; K(x,x) = 1 for the Gaussian kernel).
  std::vector<double> kd(n);
  double max_kd = 0.0;
  for (int i = 0; i < n; ++i) {
    kd[i] = mean_kk + 1.0 - 2.0 * sums[i] / m;
    max_kd = std::max(max_kd, kd[i]);
  }
  if (max_kd <= 0.0) {
    max_kd = 1.0;  // Degenerate target set: all weights become λ^{t_i}.
  }

  double max_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    const int32_t t = train_counts[target[i]];
    weights[i] = std::pow(options.memory_factor, static_cast<double>(t)) *
                 (1.0 - kd[i] / max_kd);
    max_weight = std::max(max_weight, weights[i]);
  }
  // Floor so no point is excluded from support-vector status outright.
  const double floor_value =
      options.weight_floor * (max_weight > 0.0 ? max_weight : 1.0);
  for (double& w : weights) {
    w = std::max(w, floor_value);
  }
  return weights;
}

}  // namespace dbsvec
