#ifndef DBSVEC_SERVER_STATS_H_
#define DBSVEC_SERVER_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace dbsvec::server {

/// Lock-free log-scale latency histogram: 40 buckets covering 1 µs .. ~9 h
/// at 2x resolution, relaxed atomic counters. Record is wait-free and safe
/// from any request thread; percentile reads are approximate under
/// concurrency (like every serving counter in this library) and exact when
/// traffic is quiescent.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(double micros);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Upper bound of the bucket holding the p-th percentile sample (p in
  /// [0, 100]), in microseconds; 0 when empty.
  double PercentileMicros(double p) const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
};

/// Cumulative serving counters of one Server, all relaxed atomics; rendered
/// as JSON by /v1/statz.
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};  ///< accept failpoint/limit.
  std::atomic<uint64_t> requests_total{0};
  std::atomic<uint64_t> requests_assign{0};
  std::atomic<uint64_t> requests_stream{0};  ///< Streaming-assign requests.
  std::atomic<uint64_t> stream_frames{0};    ///< Frames across all streams.
  std::atomic<uint64_t> models_created{0};   ///< Registry create successes.
  std::atomic<uint64_t> models_deleted{0};   ///< Registry delete successes.
  std::atomic<uint64_t> requests_bad{0};       ///< 4xx responses.
  std::atomic<uint64_t> requests_shed{0};      ///< 503 admission rejections.
  std::atomic<uint64_t> num_deadline_hits{0};  ///< 504 responses.
  std::atomic<uint64_t> points_assigned{0};
  std::atomic<uint64_t> reloads_ok{0};
  std::atomic<uint64_t> reloads_failed{0};
  std::atomic<uint64_t> reload_attempts{0};  ///< Retry attempts, all reloads.
  std::atomic<uint64_t> cores_absorbed{0};   ///< Online-refresh insertions.
  std::atomic<uint64_t> refresh_failures{0};  ///< Failed absorb passes.
  std::atomic<uint64_t> checkpoints_ok{0};    ///< Durable-mode snapshots.
  std::atomic<uint64_t> checkpoints_failed{0};
  LatencyHistogram assign_latency;

  /// JSON object with every counter, assign p50/p99 (µs), the provided
  /// model identity fields (`model_sv_budget` / `model_sample_threshold`
  /// are the bounded-cost SVDD provenance recorded in the model file; 0 =
  /// exact training), and the execution config of the serving engine:
  /// `simd_backend` (active SIMD dispatch backend name) and `shard_count`
  /// (0 = unsharded). `durability_json` (a pre-rendered JSON object with
  /// the journal + recovery state of a durable server) is spliced in as
  /// the `durability` field when non-empty, `failpoints_json` (per-site
  /// injected-fault hit counters) likewise as `failpoints`, and
  /// `models_json` (the per-model registry breakdown) as `models`.
  std::string ToJson(uint32_t model_version, uint32_t model_crc,
                     int model_sv_budget, int model_sample_threshold,
                     uint64_t engine_points_assigned,
                     uint64_t engine_sphere_rejections,
                     uint64_t engine_range_queries, int inflight,
                     int max_inflight, const char* simd_backend,
                     int shard_count,
                     const std::string& durability_json = "",
                     const std::string& failpoints_json = "",
                     const std::string& models_json = "") const;
};

}  // namespace dbsvec::server

#endif  // DBSVEC_SERVER_STATS_H_
