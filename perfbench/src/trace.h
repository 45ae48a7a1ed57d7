// Outside-in tracing for the traced run: a NeighborIndex that forwards every
// call to a real index and records a span around it, plus interval helpers
// for covered and self time. No program code is instrumented; spans are
// taken only at the calls the benchmark can intercept.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "index/neighbor_index.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kFit,         // Whole traced fit: index build + RunDbsvecWithIndex.
  kIndexBuild,  // CreateIndex.
  kRangeQuery,  // Single range query (the speculative seed scan).
  kRangeCount,  // Counting query (noise verification).
  kBatchQuery,  // One RangeQueryBatch call (SV expansion).
};

struct Span {
  SpanKind kind;
  uint32_t thread;
  double start;
  double end;
  /// Queries answered (1, or the batch size) and result ids returned.
  uint32_t queries;
  uint64_t results;
};

/// Per-thread, append-only span buffers; recording takes no lock after a
/// thread's first span. Drain only while no traced call is in flight.
void RecordSpan(SpanKind kind, double start, double end, uint32_t queries,
                uint64_t results);
std::vector<Span> DrainSpans();

/// Length of the union of [start, end) intervals, clipped to [lo, hi].
double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

/// Writes spans as CSV (kind,thread,start_us,end_us,queries,results)
/// relative to `origin`. Returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                double origin);

/// Forwards RangeQuery, RangeQueryWithDistances, RangeCount and
/// RangeQueryBatch to `inner` and records one span per call. The wrapper's
/// own counters only receive what callers fold in explicitly
/// (AccumulateCounters after a captured speculative query); the inner
/// index counts everything else, so the fit's query totals are the sum of
/// both.
class TracedIndex final : public dbsvec::NeighborIndex {
 public:
  explicit TracedIndex(const dbsvec::NeighborIndex& inner)
      : NeighborIndex(inner.dataset()), inner_(inner) {}

  using NeighborIndex::RangeQuery;
  void RangeQuery(std::span<const double> query, double epsilon,
                  std::vector<dbsvec::PointIndex>* out) const override;
  void RangeQueryWithDistances(std::span<const double> query, double epsilon,
                               std::vector<dbsvec::PointIndex>* out,
                               std::vector<double>* dist_sq) const override;
  dbsvec::PointIndex RangeCount(std::span<const double> query,
                                double epsilon) const override;
  dbsvec::Status RangeQueryBatch(
      std::span<const dbsvec::PointIndex> queries, double epsilon,
      std::vector<std::vector<dbsvec::PointIndex>>* results) const override;

 private:
  const dbsvec::NeighborIndex& inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
