#include "svm/kernel_cache.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "fault/failpoint.h"

namespace dbsvec {
namespace {

/// Kernel entries per parallel chunk; below this a row is computed inline.
constexpr size_t kRowGrain = 1024;

/// Per-row bookkeeping bytes beyond the payload floats: the std::list
/// node (value + two links), the unordered_map node (key, Entry, hash
/// link), amortized bucket-array share, and the row vector's header.
/// An estimate — node layouts are implementation-defined — but close
/// enough that max_bytes tracks actual footprint instead of undercounting
/// by ~100 bytes per row.
constexpr size_t kRowOverheadBytes = 128;

}  // namespace

KernelCache::KernelCache(const Dataset& dataset,
                         std::span<const PointIndex> target, double sigma,
                         size_t max_bytes)
    : dataset_(dataset),
      target_(target.begin(), target.end()),
      target_view_(dataset, target_),
      kernel_(sigma) {
  row_footprint_bytes_ =
      std::max<size_t>(1, target_.size()) * sizeof(float) +
      kRowOverheadBytes;
  max_rows_ = std::max<size_t>(2, max_bytes / row_footprint_bytes_);
}

void KernelCache::RecordStatus(Status status) const {
  std::lock_guard<std::mutex> lock(status_mutex_);
  if (status_.ok()) {
    status_ = std::move(status);
  }
}

Status KernelCache::status() const {
  std::lock_guard<std::mutex> lock(status_mutex_);
  return status_;
}

void KernelCache::ComputeRow(int i, std::vector<float>* row) const {
  const size_t n = static_cast<size_t>(size());
  row->resize(n);
  if (Status injected = FailpointCheck("kernel_cache.materialize");
      !injected.ok()) {
    // The row buffer stays zeroed; the sticky status tells the solver to
    // abandon the solve before any such row can influence the result.
    RecordStatus(std::move(injected));
    return;
  }
  const auto xi = dataset_.point(target_[i]);
  const double inv_two_sigma_sq = kernel_.inv_two_sigma_sq();
  float* out = row->data();
  ParallelFor(n, kRowGrain, [&](size_t begin, size_t end) {
    target_view_.RbfRow(xi, inv_two_sigma_sq, begin, end, out + begin);
  });
}

void KernelCache::InsertRow(int i, std::vector<float>&& row) {
  while (rows_.size() >= max_rows_) {
    rows_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(i);
  Entry& entry = rows_[i];
  entry.lru_pos = lru_.begin();
  entry.row = std::move(row);
}

std::span<const float> KernelCache::Row(int i) {
  auto it = rows_.find(i);
  if (it != rows_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.row;
  }
  std::vector<float> row;
  ComputeRow(i, &row);
  ++rows_computed_;
  InsertRow(i, std::move(row));
  return rows_.find(i)->second.row;
}

void KernelCache::Materialize(std::span<const int> rows) {
  // Missing rows, deduplicated, insertion order preserved, capped at the
  // cache capacity (computing past capacity would evict rows materialized
  // a moment earlier).
  std::vector<int> missing;
  for (const int i : rows) {
    if (missing.size() >= max_rows_) {
      break;
    }
    if (rows_.find(i) == rows_.end() &&
        std::find(missing.begin(), missing.end(), i) == missing.end()) {
      missing.push_back(i);
    }
  }
  if (missing.empty()) {
    return;
  }
  std::vector<std::vector<float>> computed(missing.size());
  ParallelFor(missing.size(), 1, [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      ComputeRow(missing[k], &computed[k]);
    }
  });
  // Sequential insertion in argument order reproduces the LRU transitions
  // of one Row() call per row.
  for (size_t k = 0; k < missing.size(); ++k) {
    ++rows_computed_;
    InsertRow(missing[k], std::move(computed[k]));
  }
}

double KernelCache::At(int i, int j) {
  // Served from a resident row when possible; a double miss computes the
  // single entry directly (the AtQuery machinery) — materializing a full
  // O(ñ) row for one entry would thrash the LRU for nothing.
  const auto it = rows_.find(i);
  if (it != rows_.end()) {
    return it->second.row[j];
  }
  const auto jt = rows_.find(j);
  if (jt != rows_.end()) {
    return jt->second.row[i];
  }
  return kernel_.FromSquaredDistance(
      dataset_.SquaredDistance(target_[i], target_[j]));
}

}  // namespace dbsvec
