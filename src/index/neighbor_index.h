#ifndef DBSVEC_INDEX_NEIGHBOR_INDEX_H_
#define DBSVEC_INDEX_NEIGHBOR_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/dataset.h"
#include "common/deadline.h"
#include "common/status.h"

namespace dbsvec {

/// Range-query engines available to the clusterers.
enum class IndexType {
  kBruteForce,  ///< Linear scan (the engine assumed by the DBSVEC paper).
  kKdTree,      ///< Bulk-loaded kd-tree (kd-DBSCAN baseline).
  kRStarTree,   ///< STR-packed R*-tree (R-DBSCAN baseline).
  kGrid,        ///< Uniform hash grid keyed to a fixed radius.
};

/// Abstract ε-range-query engine over a fixed `Dataset`.
///
/// All of the clustering algorithms in this library (DBSCAN, DBSVEC,
/// NQ-DBSCAN, ...) are written against this interface, so the index is a
/// swappable component exactly as in the paper's experimental setup
/// (R-DBSCAN vs kd-DBSCAN differ only in this object).
///
/// Implementations also keep instrumentation counters (number of range
/// queries served, number of point-to-point distance evaluations) that the
/// complexity benchmarks (Table II) read back.
///
/// Thread safety: every engine answers concurrent `RangeQuery`/`RangeCount`
/// calls safely — per-query state lives on the stack and the counters are
/// atomic. For DynamicRStarTree this holds between inserts: concurrent
/// reads are safe, and `Insert` needs exclusive access (the serving overlay
/// takes its exclusive lock to insert and reads under the shared one).
class NeighborIndex {
 public:
  /// A pair of instrumentation counters matching the index's own.
  struct QueryCounters {
    uint64_t range_queries = 0;
    uint64_t distance_computations = 0;
  };

  /// RAII diversion of this thread's counter increments into `*local`
  /// instead of the index totals. Speculative parallel prefetches use this
  /// to issue queries whose cost is folded into the index (via
  /// `AccumulateCounters`) only if the result is actually consumed, keeping
  /// the reported stats identical to a sequential run that never issued the
  /// discarded queries.
  class ScopedCounterCapture {
   public:
    explicit ScopedCounterCapture(QueryCounters* local)
        : previous_(CaptureSlot()) {
      CaptureSlot() = local;
    }
    ~ScopedCounterCapture() { CaptureSlot() = previous_; }

    ScopedCounterCapture(const ScopedCounterCapture&) = delete;
    ScopedCounterCapture& operator=(const ScopedCounterCapture&) = delete;

   private:
    QueryCounters* previous_;
  };

  virtual ~NeighborIndex() = default;

  NeighborIndex(const NeighborIndex&) = delete;
  NeighborIndex& operator=(const NeighborIndex&) = delete;

  /// Appends to `*out` the indices of every dataset point within Euclidean
  /// distance `epsilon` of `query` (inclusive). `*out` is cleared first.
  /// Order of results is implementation-defined.
  virtual void RangeQuery(std::span<const double> query, double epsilon,
                          std::vector<PointIndex>* out) const = 0;

  /// Range query centered on dataset point `i` (the point itself is
  /// included in the result, matching Definition 1 of the paper).
  void RangeQuery(PointIndex i, double epsilon,
                  std::vector<PointIndex>* out) const {
    RangeQuery(dataset_.point(i), epsilon, out);
  }

  /// Like RangeQuery, but also returns each result's squared distance to
  /// the query in `*dist_sq` (parallel to `*out`; both cleared first). The
  /// batched engines fill the distances from the leaf-scan batch they
  /// already computed, so serving-time consumers (nearest-core lookup in
  /// AssignmentEngine) avoid a second distance pass. The default
  /// implementation recomputes them after a plain RangeQuery.
  virtual void RangeQueryWithDistances(std::span<const double> query,
                                       double epsilon,
                                       std::vector<PointIndex>* out,
                                       std::vector<double>* dist_sq) const;

  /// Number of points within `epsilon` of `query`. The default
  /// implementation materializes the result set; subclasses may override
  /// with a counting-only traversal.
  virtual PointIndex RangeCount(std::span<const double> query,
                                double epsilon) const;

  /// Answers one range query per entry of `queries` (each a dataset point
  /// index, matching RangeQuery(PointIndex, ...)), filling
  /// `(*results)[k]` for query k. `*results` is resized; per-query result
  /// order matches RangeQuery. The default implementation fans the
  /// independent queries across the global thread pool; the sharded engine
  /// overrides it with shard-affine routing and can surface merge-stage
  /// failures, hence the Status return. Results are keyed by query
  /// position, so output is deterministic at any thread count.
  virtual Status RangeQueryBatch(std::span<const PointIndex> queries,
                                 double epsilon,
                                 std::vector<std::vector<PointIndex>>* results)
      const;

  /// The indexed dataset.
  const Dataset& dataset() const { return dataset_; }

  /// Instrumentation: range queries served so far.
  uint64_t num_range_queries() const {
    return num_range_queries_.load(std::memory_order_relaxed);
  }
  /// Instrumentation: point-distance evaluations performed so far.
  uint64_t num_distance_computations() const {
    return num_distance_computations_.load(std::memory_order_relaxed);
  }
  /// Resets both instrumentation counters.
  void ResetCounters() const {
    num_range_queries_.store(0, std::memory_order_relaxed);
    num_distance_computations_.store(0, std::memory_order_relaxed);
  }
  /// Folds captured counters into the index totals (see
  /// ScopedCounterCapture).
  void AccumulateCounters(const QueryCounters& counters) const {
    num_range_queries_.fetch_add(counters.range_queries,
                                 std::memory_order_relaxed);
    num_distance_computations_.fetch_add(counters.distance_computations,
                                         std::memory_order_relaxed);
  }

 protected:
  explicit NeighborIndex(const Dataset& dataset) : dataset_(dataset) {}

  /// Counter bumps used by implementations; honor an active capture on the
  /// calling thread, otherwise hit the shared atomics.
  void CountRangeQuery() const {
    QueryCounters* capture = CaptureSlot();
    if (capture != nullptr) {
      ++capture->range_queries;
    } else {
      num_range_queries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void CountDistanceComputations(uint64_t count) const {
    QueryCounters* capture = CaptureSlot();
    if (capture != nullptr) {
      capture->distance_computations += count;
    } else {
      num_distance_computations_.fetch_add(count,
                                           std::memory_order_relaxed);
    }
  }

  const Dataset& dataset_;
  mutable std::atomic<uint64_t> num_range_queries_{0};
  mutable std::atomic<uint64_t> num_distance_computations_{0};

 private:
  /// The calling thread's active capture slot. A function-local
  /// thread_local (rather than a class-static member) so the slot is
  /// reached through the inline function's guaranteed-initialized local,
  /// not a cross-TU TLS wrapper — the wrapper path trips UBSan's null
  /// checks on some toolchains.
  static QueryCounters*& CaptureSlot() {
    static thread_local QueryCounters* capture = nullptr;
    return capture;
  }
};

/// Builds an index of the requested type over `dataset`. `epsilon_hint` is
/// required by the grid index (its cell width) and ignored by the others.
/// The dataset must outlive the returned index.
std::unique_ptr<NeighborIndex> CreateIndex(IndexType type,
                                           const Dataset& dataset,
                                           double epsilon_hint = 0.0);

/// Fallible variant of CreateIndex: honors `deadline` (checked before and
/// after the build — bulk loads are not interruptible mid-flight) and the
/// `index.build` failpoint. On success `*out` holds the index; on error
/// `*out` is reset to null.
Status CreateIndexChecked(IndexType type, const Dataset& dataset,
                          double epsilon_hint, const Deadline& deadline,
                          std::unique_ptr<NeighborIndex>* out);

/// Human-readable index name ("kd-tree", "R*-tree", ...).
const char* IndexTypeName(IndexType type);

}  // namespace dbsvec

#endif  // DBSVEC_INDEX_NEIGHBOR_INDEX_H_
