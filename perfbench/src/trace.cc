#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.h"

namespace perfbench {
namespace {

struct Buffers {
  std::mutex mutex;
  std::vector<std::unique_ptr<std::vector<Span>>> all;
};

Buffers& GlobalBuffers() {
  static Buffers buffers;
  return buffers;
}

struct ThreadBuffer {
  std::vector<Span>* spans = nullptr;
  uint32_t id = 0;
};

ThreadBuffer& LocalBuffer() {
  static thread_local ThreadBuffer local;
  if (local.spans == nullptr) {
    Buffers& buffers = GlobalBuffers();
    std::lock_guard<std::mutex> lock(buffers.mutex);
    buffers.all.push_back(std::make_unique<std::vector<Span>>());
    local.spans = buffers.all.back().get();
    local.spans->reserve(1 << 16);
    local.id = static_cast<uint32_t>(buffers.all.size() - 1);
  }
  return local;
}

}  // namespace

void RecordSpan(SpanKind kind, double start, double end, uint32_t queries,
                uint64_t results) {
  ThreadBuffer& local = LocalBuffer();
  local.spans->push_back({kind, local.id, start, end, queries, results});
}

std::vector<Span> DrainSpans() {
  Buffers& buffers = GlobalBuffers();
  std::lock_guard<std::mutex> lock(buffers.mutex);
  std::vector<Span> out;
  for (auto& spans : buffers.all) {
    out.insert(out.end(), spans->begin(), spans->end());
    spans->clear();
  }
  return out;
}

double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = -1.0;
  bool open = false;
  for (auto [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
    if (end <= start) continue;
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                double origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static const char* kNames[] = {"fit", "index_build", "range_query",
                                 "range_count", "batch_query"};
  std::fprintf(f, "kind,thread,start_us,end_us,queries,results\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%u,%.3f,%.3f,%u,%llu\n",
                 kNames[static_cast<int>(s.kind)], s.thread,
                 (s.start - origin) * 1e6, (s.end - origin) * 1e6, s.queries,
                 static_cast<unsigned long long>(s.results));
  }
  return std::fclose(f) == 0;
}

void TracedIndex::RangeQuery(std::span<const double> query, double epsilon,
                             std::vector<dbsvec::PointIndex>* out) const {
  const double start = Now();
  inner_.RangeQuery(query, epsilon, out);
  RecordSpan(SpanKind::kRangeQuery, start, Now(), 1, out->size());
}

void TracedIndex::RangeQueryWithDistances(
    std::span<const double> query, double epsilon,
    std::vector<dbsvec::PointIndex>* out, std::vector<double>* dist_sq) const {
  const double start = Now();
  inner_.RangeQueryWithDistances(query, epsilon, out, dist_sq);
  RecordSpan(SpanKind::kRangeQuery, start, Now(), 1, out->size());
}

dbsvec::PointIndex TracedIndex::RangeCount(std::span<const double> query,
                                           double epsilon) const {
  const double start = Now();
  const dbsvec::PointIndex count = inner_.RangeCount(query, epsilon);
  RecordSpan(SpanKind::kRangeCount, start, Now(), 1, 0);
  return count;
}

dbsvec::Status TracedIndex::RangeQueryBatch(
    std::span<const dbsvec::PointIndex> queries, double epsilon,
    std::vector<std::vector<dbsvec::PointIndex>>* results) const {
  const double start = Now();
  const dbsvec::Status status =
      inner_.RangeQueryBatch(queries, epsilon, results);
  const double end = Now();
  uint64_t ids = 0;
  for (const auto& hood : *results) ids += hood.size();
  RecordSpan(SpanKind::kBatchQuery, start, end,
             static_cast<uint32_t>(queries.size()), ids);
  return status;
}

}  // namespace perfbench
