#include "simd/soa_block.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"

namespace dbsvec::simd {

namespace {

/// Blocks per parallel fill chunk (disjoint writes, so any split is
/// deterministic).
constexpr size_t kFillGrain = 64;

}  // namespace

SoaBlockView::SoaBlockView(const Dataset& dataset,
                           std::span<const PointIndex> order) {
  Fill(dataset, order);
}

SoaBlockView::SoaBlockView(const Dataset& dataset) {
  std::vector<PointIndex> identity(static_cast<size_t>(dataset.size()));
  std::iota(identity.begin(), identity.end(), PointIndex{0});
  Fill(dataset, identity);
}

void SoaBlockView::Fill(const Dataset& dataset,
                        std::span<const PointIndex> order) {
  size_ = order.size();
  dim_ = dataset.dim();
  if (size_ == 0 || dim_ == 0) {
    data_.reset();
    return;
  }
  const size_t num_blocks = (size_ + kBlockWidth - 1) / kBlockWidth;
  const size_t total = num_blocks * kBlockWidth * static_cast<size_t>(dim_);
  data_.reset(new (std::align_val_t{64}) double[total]);
  double* data = data_.get();
  ParallelFor(num_blocks, kFillGrain, [&](size_t b_begin, size_t b_end) {
    for (size_t b = b_begin; b < b_end; ++b) {
      double* out = data + b * kBlockWidth * static_cast<size_t>(dim_);
      const size_t lanes =
          std::min(kBlockWidth, size_ - b * kBlockWidth);
      if (lanes < kBlockWidth) {
        std::memset(out, 0,
                    kBlockWidth * static_cast<size_t>(dim_) * sizeof(double));
      }
      for (size_t lane = 0; lane < lanes; ++lane) {
        const auto p = dataset.point(order[b * kBlockWidth + lane]);
        for (int j = 0; j < dim_; ++j) {
          out[kBlockWidth * static_cast<size_t>(j) + lane] = p[j];
        }
      }
    }
  });
}

void SoaBlockView::SquaredDistances(std::span<const double> query,
                                    size_t begin, size_t end,
                                    double* out) const {
  const auto& ops = ActiveOps();
  const double* q = query.data();
  size_t p = begin;
  while (p < end) {
    const size_t b = p / kBlockWidth;
    const size_t block_begin = b * kBlockWidth;
    const size_t hi = std::min(end, block_begin + kBlockWidth);
    if (p == block_begin && hi == block_begin + kBlockWidth) {
      // Fully covered block: write the 8 distances straight into out.
      ops.squared_distance_block(q, block(b), dim_, out + (p - begin));
    } else {
      alignas(64) double tmp[kBlockWidth];
      ops.squared_distance_block(q, block(b), dim_, tmp);
      for (size_t k = p; k < hi; ++k) {
        out[k - begin] = tmp[k - block_begin];
      }
    }
    p = hi;
  }
}

size_t SoaBlockView::CountWithin(std::span<const double> query, size_t begin,
                                 size_t end, double eps_sq) const {
  const auto& ops = ActiveOps();
  const double* q = query.data();
  size_t count = 0;
  size_t p = begin;
  while (p < end) {
    const size_t b = p / kBlockWidth;
    const size_t block_begin = b * kBlockWidth;
    const size_t hi = std::min(end, block_begin + kBlockWidth);
    uint32_t mask = 0;
    for (size_t k = p; k < hi; ++k) {
      mask |= 1u << (k - block_begin);
    }
    count += ops.count_within_block(q, block(b), dim_, mask, eps_sq);
    p = hi;
  }
  return count;
}

void SoaBlockView::RbfRow(std::span<const double> query,
                          double inv_two_sigma_sq, size_t begin, size_t end,
                          float* out) const {
  if (begin >= end) {
    return;
  }
  const size_t n = end - begin;
  ScratchLease scratch(n);
  double* d2 = scratch.data();
  SquaredDistances(query, begin, end, d2);
  ActiveOps().kernel_exp(d2, inv_two_sigma_sq, d2, n);
  for (size_t k = 0; k < n; ++k) {
    out[k] = static_cast<float>(d2[k]);
  }
}

}  // namespace dbsvec::simd
