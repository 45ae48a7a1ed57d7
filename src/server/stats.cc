#include "server/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dbsvec::server {

void LatencyHistogram::Record(double micros) {
  // Bucket k covers [2^k, 2^(k+1)) µs; sub-microsecond samples land in
  // bucket 0.
  size_t bucket = 0;
  if (micros >= 1.0) {
    bucket = std::min<size_t>(
        kBuckets - 1, static_cast<size_t>(std::log2(micros)));
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

double LatencyHistogram::PercentileMicros(double p) const {
  const uint64_t total = count();
  if (total == 0) {
    return 0.0;
  }
  const uint64_t rank = static_cast<uint64_t>(
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (size_t k = 0; k < kBuckets; ++k) {
    seen += buckets_[k].load(std::memory_order_relaxed);
    if (seen > rank) {
      return std::pow(2.0, static_cast<double>(k + 1));  // Bucket upper bound.
    }
  }
  return std::pow(2.0, static_cast<double>(kBuckets));
}

std::string ServerStats::ToJson(uint32_t model_version, uint32_t model_crc,
                                int model_sv_budget,
                                int model_sample_threshold,
                                uint64_t engine_points_assigned,
                                uint64_t engine_sphere_rejections,
                                uint64_t engine_range_queries, int inflight,
                                int max_inflight, const char* simd_backend,
                                int shard_count,
                                const std::string& durability_json,
                                const std::string& failpoints_json,
                                const std::string& models_json) const {
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", model_crc);
  std::string out = "{";
  const auto field = [&out](const char* name, uint64_t value, bool last = false) {
    out += "\"";
    out += name;
    out += "\":" + std::to_string(value);
    if (!last) {
      out += ",";
    }
  };
  out += "\"model_version\":" + std::to_string(model_version) + ",";
  out += "\"model_crc\":\"" + std::string(crc_hex) + "\",";
  out += "\"model_sv_budget\":" + std::to_string(model_sv_budget) + ",";
  out += "\"model_sample_threshold\":" +
         std::to_string(model_sample_threshold) + ",";
  field("connections_accepted",
        connections_accepted.load(std::memory_order_relaxed));
  field("connections_rejected",
        connections_rejected.load(std::memory_order_relaxed));
  field("requests_total", requests_total.load(std::memory_order_relaxed));
  field("requests_assign", requests_assign.load(std::memory_order_relaxed));
  field("requests_stream", requests_stream.load(std::memory_order_relaxed));
  field("stream_frames", stream_frames.load(std::memory_order_relaxed));
  field("models_created", models_created.load(std::memory_order_relaxed));
  field("models_deleted", models_deleted.load(std::memory_order_relaxed));
  field("requests_bad", requests_bad.load(std::memory_order_relaxed));
  field("requests_shed", requests_shed.load(std::memory_order_relaxed));
  field("num_deadline_hits",
        num_deadline_hits.load(std::memory_order_relaxed));
  field("points_assigned", points_assigned.load(std::memory_order_relaxed));
  field("reloads_ok", reloads_ok.load(std::memory_order_relaxed));
  field("reloads_failed", reloads_failed.load(std::memory_order_relaxed));
  field("reload_attempts", reload_attempts.load(std::memory_order_relaxed));
  field("cores_absorbed", cores_absorbed.load(std::memory_order_relaxed));
  field("refresh_failures", refresh_failures.load(std::memory_order_relaxed));
  field("checkpoints_ok", checkpoints_ok.load(std::memory_order_relaxed));
  field("checkpoints_failed",
        checkpoints_failed.load(std::memory_order_relaxed));
  field("engine_points_assigned", engine_points_assigned);
  field("engine_sphere_rejections", engine_sphere_rejections);
  field("engine_range_queries", engine_range_queries);
  out += "\"inflight\":" + std::to_string(inflight) + ",";
  out += "\"max_inflight\":" + std::to_string(max_inflight) + ",";
  out += "\"simd_backend\":\"" + std::string(simd_backend) + "\",";
  out += "\"shard_count\":" + std::to_string(shard_count) + ",";
  out += "\"assign_latency_p50_us\":" +
         std::to_string(assign_latency.PercentileMicros(50.0)) + ",";
  out += "\"assign_latency_p99_us\":" +
         std::to_string(assign_latency.PercentileMicros(99.0));
  if (!durability_json.empty()) {
    out += ",\"durability\":" + durability_json;
  }
  if (!failpoints_json.empty()) {
    out += ",\"failpoints\":" + failpoints_json;
  }
  if (!models_json.empty()) {
    out += ",\"models\":" + models_json;
  }
  out += "}";
  return out;
}

}  // namespace dbsvec::server
