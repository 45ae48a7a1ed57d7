#ifndef DBSVEC_SERVE_ASSIGNMENT_ENGINE_H_
#define DBSVEC_SERVE_ASSIGNMENT_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/deadline.h"
#include "common/status.h"
#include "index/dynamic_r_star_tree.h"
#include "index/neighbor_index.h"
#include "model/dbsvec_model.h"
#include "model/overlay_journal.h"

namespace dbsvec {

/// Serving-side options of the assignment engine.
struct AssignmentOptions {
  /// Range-query engine built over the model's core summary. The kd-tree
  /// is the default, matching the training-side default.
  IndexType index = IndexType::kKdTree;
  /// Minimum points per thread-pool chunk of a batched Assign.
  int batch_grain = 64;
  /// >= 1: build the serving index as a sharded execution engine
  /// (exec::ShardedIndex) over the core summary — `shards` per-shard
  /// indexes of type `index` over contiguous core-id ranges. 0 (default)
  /// keeps the single unsharded index. Assignments are bit-identical at
  /// every shard count (the merged range-query result depends only on the
  /// point set).
  int shards = 0;
  /// Skip queries outside every sub-cluster sphere (inflated by ε) without
  /// touching the index. Off is only useful for benchmarking the filter.
  bool sphere_prefilter = true;
  /// Time budget for building the serving index inside Create/Load.
  /// Default: unlimited. Per-call budgets are passed to Assign/AssignBatch
  /// directly.
  Deadline build_deadline;
  /// Online model refresh (docs/SERVING.md): maintain a dynamic R*-tree
  /// overlay of absorbed core points next to the static core summary, fed
  /// by AbsorbCoreAdjacent. Off (the default) keeps the engine strictly
  /// immutable and its output bit-identical for a fixed model snapshot.
  bool online_refresh = false;
  /// Cap on absorbed overlay cores; absorption stops silently at the cap
  /// (the overlay is a drift tracker, not a second training set).
  int32_t max_absorbed = 100'000;
};

/// Online point-assignment over a trained DbsvecModel.
///
/// Semantics (DBSCAN Definition 2, restricted to the model's known-core
/// summary): a query x joins the cluster of the nearest core point within
/// ε, and is noise if no core point lies within ε. Ties are broken toward
/// the smaller cluster id, so the answer does not depend on range-query
/// result order. Agreement guarantees against the training labels are
/// spelled out in docs/SERVING.md.
///
/// Thread safety: Assign/AssignBatch are const and may be called
/// concurrently (the serving counters are atomic). AssignBatch fans its
/// chunks out on the global thread pool; per-point results are
/// independent, so output is bit-identical at every thread count. With
/// online_refresh enabled, AbsorbCoreAdjacent may run concurrently with
/// assignments (overlay reads take a shared lock, absorption an exclusive
/// one); assignments then additionally depend on the absorption history,
/// so the bit-identical guarantee holds per overlay state, not globally.
class AssignmentEngine {
 public:
  /// Validates `model` and builds the serving index over its core summary.
  static Status Create(DbsvecModel model, const AssignmentOptions& options,
                       std::unique_ptr<AssignmentEngine>* out);

  /// LoadModel + Create.
  static Status Load(const std::string& path,
                     const AssignmentOptions& options,
                     std::unique_ptr<AssignmentEngine>* out);

  /// Assigns one raw point (length dim; the model's transform is applied
  /// internally). On success `*label` is a cluster id in
  /// [0, model.num_clusters) or Clustering::kNoise. `deadline` is checked
  /// once at entry (a single assignment is not interruptible mid-query).
  Status Assign(std::span<const double> point, int32_t* label,
                const Deadline& deadline = Deadline()) const;

  /// Assigns every point of `points` into `*labels` (resized), fanning
  /// chunks out on the global thread pool. `deadline` is checked once per
  /// chunk; on a non-OK return (deadline, injected fault) the contents of
  /// `*labels` are unspecified.
  Status AssignBatch(const Dataset& points, std::vector<int32_t>* labels,
                     const Deadline& deadline = Deadline()) const;

  /// Online refresh hook (requires options.online_refresh): absorbs every
  /// point of `points` whose assigned label is non-noise and whose
  /// transformed coordinates lie inside a sub-cluster member sphere (the
  /// sphere-prefilter distance marks it core-adjacent) into the dynamic
  /// overlay, so subsequent assignments treat it as a known core of that
  /// cluster. Points within ε of an already-absorbed core are skipped
  /// (the overlay summarizes drift, it does not mirror traffic), as is
  /// everything beyond max_absorbed. `labels` must be parallel to
  /// `points` (typically the AssignBatch output). `*absorbed` (optional)
  /// receives the number of cores actually added. Guarded by the
  /// `serve.refresh` failpoint.
  Status AbsorbCoreAdjacent(const Dataset& points,
                            const std::vector<int32_t>& labels,
                            uint64_t* absorbed = nullptr);

  /// Durability hook (docs/ROBUSTNESS.md): once a journal is attached,
  /// every point AbsorbCoreAdjacent accepts is appended to it — raw
  /// coordinates, before the in-memory apply — and a point whose append
  /// fails is skipped entirely, so the in-memory overlay and the journal
  /// describe exactly the same state at all times. Pass nullptr to detach
  /// (e.g. before discarding this engine on a reload). Must not be
  /// attached until any journal replay into this engine has finished, or
  /// replayed records would be re-journaled.
  void AttachJournal(std::shared_ptr<OverlayJournal> journal);
  std::shared_ptr<OverlayJournal> journal() const;

  /// Copies the model plus the current overlay into `*out` — the artifact
  /// a checkpoint writes. Concurrent-safe (shared overlay lock).
  Status SnapshotModel(DbsvecModel* out) const;

  /// Atomically persists SnapshotModel() to `snapshot_path` and, when a
  /// journal is attached, truncates it (every journaled record is now
  /// folded into the snapshot) and rebinds it to the snapshot's payload
  /// CRC. Absorbs are paused for the duration; assignments are not.
  /// `*snapshot_crc` / `*folded_records` (optional) receive the written
  /// snapshot's identity and overlay size.
  Status Checkpoint(const std::string& snapshot_path,
                    uint32_t* snapshot_crc = nullptr,
                    uint64_t* folded_records = nullptr);

  const DbsvecModel& model() const { return model_; }
  int dim() const { return model_.dim; }
  /// Model identity without re-reading the file: the format version this
  /// library writes and the payload CRC-32 (equal to the file header's
  /// checksum field for a model loaded from disk).
  uint32_t model_version() const { return DbsvecModel::kFormatVersion; }
  uint32_t model_crc() const { return model_crc_; }
  /// Number of shards of the serving index (after clamping to the core
  /// summary size); 0 when the engine is unsharded.
  int shard_count() const { return shard_count_; }

  /// Cumulative serving counters (relaxed atomics; cheap, approximate
  /// under concurrency, exact when queries are serial).
  struct ServeStats {
    uint64_t points_assigned = 0;
    uint64_t sphere_rejections = 0;  ///< Answered kNoise by the prefilter.
    uint64_t range_queries = 0;      ///< Queries that reached the index.
    uint64_t cores_absorbed = 0;     ///< Overlay cores added by refresh.
  };
  ServeStats stats() const;

 private:
  AssignmentEngine(DbsvecModel model, const AssignmentOptions& options);

  /// Builds the serving index over the core summary; split out of the
  /// constructor so Create can surface build failures (deadline, injected
  /// fault) as a Status instead of constructing a half-initialized engine.
  Status BuildIndex(const Deadline& deadline);

  /// Reused per-thread buffers of one assignment: the range-query result
  /// ids and their squared distances (filled by the index's batched leaf
  /// scans, so the nearest-core argmin needs no second distance pass).
  struct QueryScratch {
    std::vector<PointIndex> ids;
    std::vector<double> dist_sq;
  };

  /// Assignment of one already-transformed query point.
  int32_t AssignTransformed(std::span<const double> query,
                            QueryScratch* scratch) const;

  /// Overlay lookup of one transformed query; merges the nearest absorbed
  /// core within ε into (best_dist, best_cluster) under the same
  /// tie-break. No-op while the overlay is empty.
  void MergeOverlayNearest(std::span<const double> query, double* best_dist,
                           int32_t* best_cluster) const;

  /// True iff the transformed point sits inside some sub-cluster member
  /// sphere (un-inflated radius — the core-adjacency criterion).
  bool InsideMemberSphere(std::span<const double> query) const;

  const DbsvecModel model_;
  const AssignmentOptions options_;
  uint32_t model_crc_ = 0;
  int shard_count_ = 0;  // Actual shard count of index_ (0 = unsharded).
  // Over model_.core_points. Every query the prefilter passes is answered
  // by RangeQueryWithDistances on this index; nothing caches its results,
  // so assignments rely only on the NeighborIndex concurrency contract.
  std::unique_ptr<NeighborIndex> index_;
  // Sub-cluster sphere radii inflated by ε, squared, parallel to
  // model_.spheres (precomputed for the prefilter).
  std::vector<double> sphere_reach_sq_;
  // Un-inflated member-sphere radii, squared (core-adjacency test).
  std::vector<double> sphere_radius_sq_;
  // Bounding box of all core points inflated by ε: the O(d) reject that
  // runs before the per-sphere loop.
  std::vector<double> bbox_min_;
  std::vector<double> bbox_max_;

  // -- Online-refresh overlay --------------------------------------------
  // Absorbed cores live in their own append-only dataset indexed by a
  // dynamic R*-tree; readers take the shared side of the lock, absorption
  // the exclusive side. The count of usable overlay points is published
  // through overlay_size_ so the common no-overlay read path stays a
  // single relaxed load (no lock). Present when online_refresh is on OR
  // the model carries a folded overlay (a v3 snapshot), so a recovered
  // snapshot serves identically everywhere.
  //
  // absorb_mutex_ serializes overlay *mutators* (absorb, checkpoint,
  // attach) against each other without touching the read path, and is
  // always taken before overlay_mutex_.
  mutable std::mutex absorb_mutex_;
  std::shared_ptr<OverlayJournal> journal_;  // Guarded by absorb_mutex_.
  mutable std::shared_mutex overlay_mutex_;
  Dataset absorbed_points_;
  std::vector<int32_t> absorbed_labels_;
  std::unique_ptr<DynamicRStarTree> absorbed_tree_;
  std::atomic<int32_t> overlay_size_{0};

  mutable std::atomic<uint64_t> points_assigned_{0};
  mutable std::atomic<uint64_t> sphere_rejections_{0};
  mutable std::atomic<uint64_t> range_queries_{0};
  std::atomic<uint64_t> cores_absorbed_{0};
};

}  // namespace dbsvec

#endif  // DBSVEC_SERVE_ASSIGNMENT_ENGINE_H_
