#ifndef DBSVEC_SVM_KERNEL_CACHE_H_
#define DBSVEC_SVM_KERNEL_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "simd/soa_block.h"
#include "svm/kernel.h"

namespace dbsvec {

/// Lazily materialized kernel matrix over a *target set* (a subset of a
/// Dataset), with an LRU row cache — the same design libsvm uses, which the
/// paper's SVDD implementation is built on.
///
/// The SMO solver only ever touches two rows per iteration, so a bounded
/// row cache keeps memory O(cache_size) instead of O(ñ²) while serving the
/// common re-touched rows (the support vectors) from memory.
///
/// Each instance owns its cache: nothing is shared across solves, and the
/// only bound is the per-instance `max_bytes`. A row is recomputed
/// bit-identically on every miss, so a solve's result never depends on the
/// cap or on which rows happen to be resident.
class KernelCache {
 public:
  /// Builds a cache over `target` (indices into `dataset`), Gaussian width
  /// `sigma`, and at most `max_bytes` of cached rows (at least two rows are
  /// always retained).
  KernelCache(const Dataset& dataset, std::span<const PointIndex> target,
              double sigma, size_t max_bytes = 64u << 20);

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// Number of target points ñ.
  int size() const { return static_cast<int>(target_.size()); }

  /// Row i of the kernel matrix: K(x_i, x_j) for every target j. The span
  /// is valid until the next Row() call (it may be evicted afterwards).
  /// A cache miss materializes the row with the global thread pool when
  /// the row is large enough to amortize the fan-out.
  std::span<const float> Row(int i);

  /// Materializes the given rows (indices into the target set) into the
  /// cache, computing the missing ones concurrently. Rows are inserted in
  /// argument order, so the LRU state ends up exactly as if each row had
  /// been fetched through Row() in that order; at most max_rows() rows are
  /// computed. Not safe to call concurrently with itself or Row().
  void Materialize(std::span<const int> rows);

  /// Cache capacity in rows.
  size_t max_rows() const { return max_rows_; }

  /// Accounted footprint of one resident row: payload floats plus the
  /// per-row bookkeeping (list node, hash-map node, vector header) — so
  /// `max_bytes` reflects actual memory, not just payload.
  size_t row_footprint_bytes() const { return row_footprint_bytes_; }

  /// Diagonal entry K(x_i, x_i); 1 for the Gaussian kernel.
  double Diag(int i) const {
    (void)i;
    return 1.0;
  }

  /// Single kernel entry. Served from a resident row when one covers it;
  /// otherwise the one entry is computed directly — never by
  /// materializing a full row — and the LRU state is left untouched.
  double At(int i, int j);

  /// Kernel value between target point i and an arbitrary query point.
  double AtQuery(int i, std::span<const double> query) const {
    return kernel_.FromSquaredDistance(
        dataset_.SquaredDistanceTo(target_[i], query));
  }

  /// The kernel in use.
  const GaussianKernel& kernel() const { return kernel_; }
  /// Dataset index of target point i.
  PointIndex target(int i) const { return target_[i]; }
  /// Instrumentation: rows computed on a cache miss.
  uint64_t rows_computed() const { return rows_computed_; }
  /// Instrumentation: rows currently resident.
  size_t rows_resident() const { return rows_.size(); }

  /// Sticky materialization status. Row()/Materialize() cannot return a
  /// Status (Row hands out a span on the solver's hot path), so a row fill
  /// that fails — today only via the `kernel_cache.materialize` failpoint —
  /// records its first error here and the consumer (SmoSolver) checks it
  /// at its next step boundary. Once non-OK, subsequent row contents are
  /// unspecified and the solve must be abandoned.
  Status status() const;

 private:
  /// Computes row i into `*row`. An injected fault leaves the row zeroed
  /// and sets the sticky status.
  void ComputeRow(int i, std::vector<float>* row) const;
  /// Inserts `row` as row i at the LRU front, evicting the LRU tail for
  /// capacity.
  void InsertRow(int i, std::vector<float>&& row);
  /// Records `status` as the sticky error if none is set yet. Safe from
  /// pool workers (Materialize fills rows concurrently).
  void RecordStatus(Status status) const;

  const Dataset& dataset_;
  std::vector<PointIndex> target_;
  /// SoA copy of the target points: row fills run through the batched
  /// RbfRow micro-kernel instead of per-point distance loops.
  simd::SoaBlockView target_view_;
  GaussianKernel kernel_;
  size_t row_footprint_bytes_;
  size_t max_rows_;

  // LRU bookkeeping: most recently used rows at the front.
  std::list<int> lru_;
  struct Entry {
    std::vector<float> row;
    std::list<int>::iterator lru_pos;
  };
  std::unordered_map<int, Entry> rows_;
  uint64_t rows_computed_ = 0;

  mutable std::mutex status_mutex_;
  mutable Status status_;  // First row-fill failure; OK while healthy.
};

}  // namespace dbsvec

#endif  // DBSVEC_SVM_KERNEL_CACHE_H_
