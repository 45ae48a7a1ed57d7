#include "serve/assignment_engine.h"

#include <cmath>
#include <limits>
#include <mutex>

#include "cluster/clustering.h"
#include "common/thread_pool.h"
#include "exec/sharded_index.h"
#include "fault/failpoint.h"

namespace dbsvec {

AssignmentEngine::AssignmentEngine(DbsvecModel model,
                                   const AssignmentOptions& options)
    : model_(std::move(model)),
      options_(options),
      absorbed_points_(model_.dim) {
  const int dim = model_.dim;
  sphere_reach_sq_.reserve(model_.spheres.size());
  sphere_radius_sq_.reserve(model_.spheres.size());
  for (const SubClusterSphere& sphere : model_.spheres) {
    const double reach = sphere.radius + model_.epsilon;
    sphere_reach_sq_.push_back(reach * reach);
    sphere_radius_sq_.push_back(sphere.radius * sphere.radius);
  }
  if (model_.core_points.size() > 0) {
    bbox_min_.assign(dim, std::numeric_limits<double>::infinity());
    bbox_max_.assign(dim, -std::numeric_limits<double>::infinity());
    for (PointIndex i = 0; i < model_.core_points.size(); ++i) {
      for (int d = 0; d < dim; ++d) {
        const double v = model_.core_points.at(i, d);
        if (v < bbox_min_[d]) bbox_min_[d] = v;
        if (v > bbox_max_[d]) bbox_max_[d] = v;
      }
    }
    for (int d = 0; d < dim; ++d) {
      bbox_min_[d] -= model_.epsilon;
      bbox_max_[d] += model_.epsilon;
    }
  }
  // Seed the overlay from a v3 snapshot's folded absorbed cores (already
  // transformed — the overlay lives post-transform).
  if (model_.absorbed_points.size() > 0) {
    absorbed_points_ = model_.absorbed_points;
    absorbed_labels_ = model_.absorbed_labels;
  }
  if (options_.online_refresh || absorbed_points_.size() > 0) {
    absorbed_tree_ = std::make_unique<DynamicRStarTree>(absorbed_points_);
    for (PointIndex i = 0; i < absorbed_points_.size(); ++i) {
      absorbed_tree_->Insert(i);
    }
  }
  overlay_size_.store(absorbed_points_.size(), std::memory_order_release);
}

Status AssignmentEngine::BuildIndex(const Deadline& deadline) {
  if (model_.core_points.size() == 0) {
    return Status::Ok();  // Empty core summary: everything is noise.
  }
  if (options_.shards >= 1) {
    std::unique_ptr<exec::ShardedIndex> sharded;
    DBSVEC_RETURN_IF_ERROR(exec::ShardedIndex::Create(
        options_.index, model_.core_points, model_.epsilon, options_.shards,
        deadline, &sharded));
    shard_count_ = sharded->num_shards();
    index_ = std::move(sharded);
  } else {
    DBSVEC_RETURN_IF_ERROR(CreateIndexChecked(
        options_.index, model_.core_points, model_.epsilon, deadline,
        &index_));
  }
  return Status::Ok();
}

Status AssignmentEngine::Create(DbsvecModel model,
                                const AssignmentOptions& options,
                                std::unique_ptr<AssignmentEngine>* out) {
  DBSVEC_RETURN_IF_ERROR(ValidateModel(model));
  if (options.batch_grain < 1) {
    return Status::InvalidArgument("serve: batch_grain must be >= 1");
  }
  if (options.max_absorbed < 0) {
    return Status::InvalidArgument("serve: max_absorbed must be >= 0");
  }
  uint32_t crc = 0;
  DBSVEC_RETURN_IF_ERROR(ModelPayloadCrc(model, &crc));
  out->reset(new AssignmentEngine(std::move(model), options));
  (*out)->model_crc_ = crc;
  const Status built = (*out)->BuildIndex(options.build_deadline);
  if (!built.ok()) {
    out->reset();  // Never hand back a half-initialized engine.
    return built;
  }
  return Status::Ok();
}

Status AssignmentEngine::Load(const std::string& path,
                              const AssignmentOptions& options,
                              std::unique_ptr<AssignmentEngine>* out) {
  DbsvecModel model;
  DBSVEC_RETURN_IF_ERROR(LoadModel(path, &model));
  return Create(std::move(model), options, out);
}

void AssignmentEngine::MergeOverlayNearest(std::span<const double> query,
                                           double* best_dist,
                                           int32_t* best_cluster) const {
  if (overlay_size_.load(std::memory_order_acquire) == 0) {
    return;
  }
  std::shared_lock<std::shared_mutex> lock(overlay_mutex_);
  std::vector<PointIndex> ids;
  absorbed_tree_->RangeQuery(query, model_.epsilon, &ids);
  for (const PointIndex id : ids) {
    const double d2 = absorbed_points_.SquaredDistanceTo(id, query);
    const int32_t cluster = absorbed_labels_[static_cast<size_t>(id)];
    if (d2 < *best_dist || (d2 == *best_dist && cluster < *best_cluster)) {
      *best_dist = d2;
      *best_cluster = cluster;
    }
  }
}

bool AssignmentEngine::InsideMemberSphere(
    std::span<const double> query) const {
  for (size_t s = 0; s < model_.spheres.size(); ++s) {
    if (SquaredDistance(query, model_.spheres[s].center) <=
        sphere_radius_sq_[s]) {
      return true;
    }
  }
  return false;
}

int32_t AssignmentEngine::AssignTransformed(std::span<const double> query,
                                            QueryScratch* scratch) const {
  points_assigned_.fetch_add(1, std::memory_order_relaxed);
  // Live whenever cores exist — absorbed online or seeded from a v3
  // snapshot — so a recovered engine answers like the one that absorbed.
  const bool overlay_live =
      overlay_size_.load(std::memory_order_acquire) > 0;
  if (index_ == nullptr && !overlay_live) {
    return Clustering::kNoise;  // Model with an empty core summary.
  }
  int32_t best_cluster = Clustering::kNoise;
  double best_dist = std::numeric_limits<double>::infinity();
  bool prefilter_rejected = false;
  if (index_ != nullptr) {
    if (options_.sphere_prefilter) {
      for (size_t d = 0; d < query.size(); ++d) {
        if (query[d] < bbox_min_[d] || query[d] > bbox_max_[d]) {
          prefilter_rejected = true;
          break;
        }
      }
      if (!prefilter_rejected) {
        bool inside_some_sphere = model_.spheres.empty();
        for (size_t s = 0; s < model_.spheres.size() && !inside_some_sphere;
             ++s) {
          const double d2 =
              SquaredDistance(query, model_.spheres[s].center);
          inside_some_sphere = d2 <= sphere_reach_sq_[s];
        }
        // Outside every sub-cluster's member sphere inflated by ε: no core
        // point (a member by construction) can be within ε.
        prefilter_rejected = !inside_some_sphere;
      }
      if (prefilter_rejected) {
        sphere_rejections_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!prefilter_rejected) {
      range_queries_.fetch_add(1, std::memory_order_relaxed);
      index_->RangeQueryWithDistances(query, model_.epsilon, &scratch->ids,
                                      &scratch->dist_sq);
      // Nearest core point wins; ties break toward the smaller cluster id
      // so the answer is independent of the index's result order. The
      // distances come straight from the index's batched leaf scans
      // (bit-identical to SquaredDistanceTo), so no second distance pass
      // runs here.
      for (size_t k = 0; k < scratch->ids.size(); ++k) {
        const double d2 = scratch->dist_sq[k];
        const int32_t cluster = model_.core_labels[scratch->ids[k]];
        if (d2 < best_dist ||
            (d2 == best_dist && cluster < best_cluster)) {
          best_dist = d2;
          best_cluster = cluster;
        }
      }
    }
  }
  // Absorbed overlay cores extend the summary past the trained spheres, so
  // they are consulted even for prefilter-rejected queries (a drifted
  // cluster lives outside every training-time sphere by definition).
  if (overlay_live) {
    MergeOverlayNearest(query, &best_dist, &best_cluster);
  }
  return best_cluster;
}

Status AssignmentEngine::Assign(std::span<const double> point,
                                int32_t* label,
                                const Deadline& deadline) const {
  DBSVEC_RETURN_IF_ERROR(deadline.Check("assign"));
  if (static_cast<int>(point.size()) != model_.dim) {
    return Status::InvalidArgument(
        "assign: point has dimension " + std::to_string(point.size()) +
        ", model expects " + std::to_string(model_.dim));
  }
  QueryScratch scratch;
  if (model_.transform.empty()) {
    *label = AssignTransformed(point, &scratch);
  } else {
    std::vector<double> transformed(point.size());
    model_.transform.Apply(point, transformed);
    *label = AssignTransformed(transformed, &scratch);
  }
  return Status::Ok();
}

Status AssignmentEngine::AssignBatch(const Dataset& points,
                                     std::vector<int32_t>* labels,
                                     const Deadline& deadline) const {
  if (points.dim() != model_.dim) {
    return Status::InvalidArgument(
        "assign: batch has dimension " + std::to_string(points.dim()) +
        ", model expects " + std::to_string(model_.dim));
  }
  const PointIndex n = points.size();
  labels->assign(n, Clustering::kNoise);
  // Per-chunk check points: an expired deadline or armed failpoint stops
  // new chunks; chunks already running finish their points. The first
  // failing chunk (lowest index) determines the returned Status.
  return ParallelForWithStatus(
      static_cast<size_t>(n), static_cast<size_t>(options_.batch_grain),
      [&](size_t begin, size_t end) -> Status {
        DBSVEC_RETURN_IF_ERROR(FailpointCheck("assign.batch"));
        DBSVEC_RETURN_IF_ERROR(deadline.Check("assign batch"));
        QueryScratch scratch;
        std::vector<double> transformed(model_.dim);
        for (size_t i = begin; i < end; ++i) {
          const PointIndex p = static_cast<PointIndex>(i);
          std::span<const double> query = points.point(p);
          if (!model_.transform.empty()) {
            model_.transform.Apply(query, transformed);
            query = transformed;
          }
          (*labels)[i] = AssignTransformed(query, &scratch);
        }
        return Status::Ok();
      });
}

Status AssignmentEngine::AbsorbCoreAdjacent(const Dataset& points,
                                            const std::vector<int32_t>& labels,
                                            uint64_t* absorbed) {
  if (absorbed != nullptr) {
    *absorbed = 0;
  }
  if (!options_.online_refresh) {
    return Status::FailedPrecondition(
        "serve: AbsorbCoreAdjacent requires online_refresh");
  }
  if (points.dim() != model_.dim) {
    return Status::InvalidArgument(
        "absorb: batch has dimension " + std::to_string(points.dim()) +
        ", model expects " + std::to_string(model_.dim));
  }
  if (static_cast<PointIndex>(labels.size()) != points.size()) {
    return Status::InvalidArgument(
        "absorb: labels are not parallel to points");
  }
  DBSVEC_RETURN_IF_ERROR(FailpointCheck("serve.refresh"));
  uint64_t added = 0;
  std::vector<double> transformed(model_.dim);
  std::vector<PointIndex> near;
  std::lock_guard<std::mutex> serial(absorb_mutex_);
  std::unique_lock<std::shared_mutex> lock(overlay_mutex_);
  for (PointIndex i = 0; i < points.size(); ++i) {
    if (labels[static_cast<size_t>(i)] < 0) {
      continue;  // Noise is never core-adjacent.
    }
    if (absorbed_points_.size() >= options_.max_absorbed) {
      break;
    }
    std::span<const double> query = points.point(i);
    if (!model_.transform.empty()) {
      model_.transform.Apply(query, transformed);
      query = transformed;
    }
    if (!InsideMemberSphere(query)) {
      continue;  // Prefilter distance says it is not core-adjacent.
    }
    // Dedupe against cores already absorbed: a point within ε of one adds
    // no reach to the summary.
    absorbed_tree_->RangeQuery(query, model_.epsilon, &near);
    if (!near.empty()) {
      continue;
    }
    // Write-ahead: the raw point must be durable (per the fsync policy)
    // before it can influence any answer. A failed append skips the point
    // — both sides stay in exact agreement — and the journal counts the
    // drop for /v1/statz.
    if (journal_ != nullptr &&
        !journal_->Append(labels[static_cast<size_t>(i)], points.point(i))
             .ok()) {
      continue;
    }
    absorbed_points_.Append(query);
    absorbed_labels_.push_back(labels[static_cast<size_t>(i)]);
    absorbed_tree_->Insert(absorbed_points_.size() - 1);
    ++added;
  }
  overlay_size_.store(absorbed_points_.size(), std::memory_order_release);
  lock.unlock();
  cores_absorbed_.fetch_add(added, std::memory_order_relaxed);
  if (absorbed != nullptr) {
    *absorbed = added;
  }
  return Status::Ok();
}

void AssignmentEngine::AttachJournal(std::shared_ptr<OverlayJournal> journal) {
  std::lock_guard<std::mutex> serial(absorb_mutex_);
  journal_ = std::move(journal);
}

std::shared_ptr<OverlayJournal> AssignmentEngine::journal() const {
  std::lock_guard<std::mutex> serial(absorb_mutex_);
  return journal_;
}

Status AssignmentEngine::SnapshotModel(DbsvecModel* out) const {
  *out = model_;
  std::shared_lock<std::shared_mutex> lock(overlay_mutex_);
  out->absorbed_points = absorbed_points_;
  out->absorbed_labels = absorbed_labels_;
  return Status::Ok();
}

Status AssignmentEngine::Checkpoint(const std::string& snapshot_path,
                                    uint32_t* snapshot_crc,
                                    uint64_t* folded_records) {
  // Pausing absorbs (not reads) makes the fold exact: no record can land
  // in the journal between the overlay copy below and the journal reset,
  // so the snapshot + empty journal describe the same state the engine
  // serves. A crash between SaveModel and Reset is also safe: the stale
  // journal's base CRC no longer matches the new snapshot, so recovery
  // discards it — and all of its records are inside the snapshot.
  std::lock_guard<std::mutex> serial(absorb_mutex_);
  DbsvecModel snapshot;
  DBSVEC_RETURN_IF_ERROR(SnapshotModel(&snapshot));
  if (folded_records != nullptr) {
    *folded_records = static_cast<uint64_t>(snapshot.absorbed_points.size());
  }
  DBSVEC_RETURN_IF_ERROR(SaveModel(snapshot, snapshot_path));
  uint32_t crc = 0;
  DBSVEC_RETURN_IF_ERROR(ModelPayloadCrc(snapshot, &crc));
  if (snapshot_crc != nullptr) {
    *snapshot_crc = crc;
  }
  if (journal_ != nullptr) {
    DBSVEC_RETURN_IF_ERROR(journal_->Reset(crc));
  }
  return Status::Ok();
}

AssignmentEngine::ServeStats AssignmentEngine::stats() const {
  ServeStats stats;
  stats.points_assigned = points_assigned_.load(std::memory_order_relaxed);
  stats.sphere_rejections =
      sphere_rejections_.load(std::memory_order_relaxed);
  stats.range_queries = range_queries_.load(std::memory_order_relaxed);
  stats.cores_absorbed = cores_absorbed_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dbsvec
