#ifndef DBSVEC_SIMD_SOA_BLOCK_H_
#define DBSVEC_SIMD_SOA_BLOCK_H_

#include <cstddef>
#include <memory>
#include <span>

#include "common/dataset.h"
#include "simd/simd.h"

namespace dbsvec::simd {

/// A structure-of-arrays copy of (a permutation of) a Dataset, laid out for
/// the batched micro-kernels: points are grouped into blocks of
/// `kBlockWidth` (8), and within a block dimension j of the 8 points is
/// stored contiguously at `block[8*j + lane]`. Blocks are 64-byte aligned
/// (one cache line per dimension row); the trailing partial block is
/// zero-padded and its padding lanes are never read back.
///
/// Indexes build a view permuted by their leaf/cell order so every leaf
/// scan covers a *contiguous* position range; the kernel cache builds one
/// over the SVDD target set. Positions are view-relative — callers map them
/// back to dataset PointIndexes through their own order array.
///
/// The view costs one extra copy of the covered points (n*d doubles); it is
/// the same aligned layout the ROADMAP's NUMA sharding item will hand out
/// per shard.
class SoaBlockView {
 public:
  SoaBlockView() = default;

  /// View over `order.size()` points of `dataset`, position p holding point
  /// `order[p]`. `order` may be any permutation or subset (with repeats) of
  /// the dataset's rows.
  SoaBlockView(const Dataset& dataset, std::span<const PointIndex> order);

  /// Identity view: position p holds dataset point p.
  explicit SoaBlockView(const Dataset& dataset);

  SoaBlockView(SoaBlockView&&) = default;
  SoaBlockView& operator=(SoaBlockView&&) = default;

  /// Number of points covered.
  size_t size() const { return size_; }
  int dim() const { return dim_; }
  bool empty() const { return size_ == 0; }

  /// out[k] = squared Euclidean distance from `query` to position
  /// `begin + k`, for positions [begin, end). Bit-identical to
  /// Dataset::SquaredDistanceTo on the corresponding points, on every
  /// backend.
  void SquaredDistances(std::span<const double> query, size_t begin,
                        size_t end, double* out) const;

  /// Number of positions in [begin, end) within squared distance `eps_sq`
  /// of `query` (inclusive).
  size_t CountWithin(std::span<const double> query, size_t begin, size_t end,
                     double eps_sq) const;

  /// out[k] = float(KernelExp(-d2(begin + k) * inv_two_sigma_sq)) — one
  /// Gaussian kernel row segment (Eq. 6), matching
  /// GaussianKernel::FromSquaredDistance exactly. Distances and exp both
  /// run on the active backend, which emits the same bits as every other.
  void RbfRow(std::span<const double> query, double inv_two_sigma_sq,
              size_t begin, size_t end, float* out) const;

 private:
  struct AlignedDelete {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  void Fill(const Dataset& dataset, std::span<const PointIndex> order);
  const double* block(size_t b) const {
    return data_.get() + b * kBlockWidth * static_cast<size_t>(dim_);
  }

  size_t size_ = 0;
  int dim_ = 0;
  std::unique_ptr<double[], AlignedDelete> data_;
};

}  // namespace dbsvec::simd

#endif  // DBSVEC_SIMD_SOA_BLOCK_H_
