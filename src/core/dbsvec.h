#ifndef DBSVEC_CORE_DBSVEC_H_
#define DBSVEC_CORE_DBSVEC_H_

#include <cstdint>

#include "cluster/clustering.h"
#include "common/dataset.h"
#include "common/deadline.h"
#include "common/status.h"
#include "core/penalty_weights.h"
#include "index/neighbor_index.h"
#include "model/dbsvec_model.h"
#include "svm/smo_solver.h"

namespace dbsvec {

/// How the per-training penalty factor ν is chosen.
enum class NuMode {
  kAuto,     ///< ν* = d·sqrt(log_MinPts ñ)/ñ (Eq. 20) — the paper default.
  kMinimum,  ///< ν = 1/ñ — the DBSVEC_min variant of Table III.
  kFixed,    ///< A caller-supplied constant (Fig. 8 sweeps this).
};

/// Parameters of DBSVEC (Algorithms 2 & 3 plus the Sec. IV refinements).
struct DbsvecParams {
  /// Neighborhood radius ε (> 0).
  double epsilon = 1.0;
  /// Density threshold MinPts (>= 1).
  int min_pts = 5;

  /// Penalty-factor policy; `fixed_nu` applies only under NuMode::kFixed.
  NuMode nu_mode = NuMode::kAuto;
  double fixed_nu = 0.1;

  /// Adaptive penalty weights (Sec. IV-A). Disabling reproduces the
  /// DBSVEC\WF ablation of Fig. 9a.
  bool adaptive_weights = true;
  /// Incremental learning (Sec. IV-B1). Disabling reproduces DBSVEC\IL.
  bool incremental_learning = true;
  /// Kernel-width selection σ = r/√2 (Sec. IV-B2). Disabling draws σ
  /// uniformly from the pairwise-distance range — the DBSVEC\OK ablation.
  bool auto_sigma = true;

  /// Learning threshold T: points trained more than T times leave the SVDD
  /// target set. Paper default T = 3 (Sec. IV-B1).
  int learning_threshold = 3;
  /// Stall recovery (this library's extension, DESIGN.md §6): when the
  /// incremental target stops growing the sub-cluster, run one training
  /// round over the full member set before declaring it stable. Restores
  /// the non-incremental fixpoint on thin elongated clusters at the cost
  /// of one extra SVDD per sub-cluster — exactly only while the members
  /// fit under `max_svdd_target`; above it the "full" pass trains on a
  /// uniform sample of the members like any other capped round.
  bool stall_recovery = true;
  /// Memory factor λ > 1 of the penalty weights (Eq. 7).
  double memory_factor = 2.0;
  /// Anchor-sample size for the O(ñ) kernel-distance estimate.
  int penalty_anchor_count = 256;

  /// Range-query engine. The paper evaluates DBSVEC with plain linear
  /// scans (kBruteForce); kKdTree is this library's faster default.
  IndexType index = IndexType::kKdTree;

  /// 0 = the legacy unsharded path (default); >= 1 routes every range
  /// query through the sharded execution engine with this many per-shard
  /// indexes of type `index` (see exec::ShardedIndex — labels are
  /// bit-identical at any shards >= 1 and any thread count).
  int shards = 0;

  /// SVDD target sets larger than this are uniformly subsampled before
  /// training (0 disables; ClusteringStats::num_capped_solves counts the
  /// rounds it fires on). The expansion recursion and sub-cluster merging
  /// (Lemma 3) recover any boundary coverage the sample misses. Penalty
  /// weights cost anchor_count·ñ kernel evaluations and each SMO kernel
  /// row ñ, so the cap bounds both. At 1024 (formerly 4096) the Table III,
  /// Fig. 1, Fig. 9a and Fig. 8 recalls, the Extensions benchmark's
  /// clusters and noise count and the labels of the perfbench fits are
  /// unchanged; `bench_design_ablations` sweeps 256…4096 and unlimited on
  /// the walk-8d and noisy-blob generators, with recall equal to the
  /// uncapped run at every cap (EXPERIMENTS.md, design ablations).
  int max_svdd_target = 1024;

  /// > 0: hard support-vector budget B per SVDD solve (bounded-cost SVDD,
  /// docs/PERFORMANCE.md). The solver merges/forgets least-violating SVs
  /// to stay within B and caps its iterations linearly in B, so each solve
  /// is O(B·ñ) instead of O(ñ²); a budget too small for the box
  /// constraints degrades that sub-cluster to exact expansion (Theorem
  /// 1/3 semantics). 0 = exact SMO (default).
  int sv_budget = 0;
  /// > 0: SVDD targets larger than this train on a boundary-preserving
  /// sample of exactly this size (outer shell by distance-to-centroid rank
  /// plus a uniform floor, deterministic given `seed`); the full target is
  /// then re-checked against the learned sphere, so expansion semantics
  /// are unchanged — members the sphere does not explain stay in future
  /// targets. 0 = train on the full (incremental) target (default).
  int sample_threshold = 0;

  /// Fill Clustering::point_types (core/border/noise) in the result. Off
  /// by default: DBSVEC's whole point is *not* querying every point's
  /// neighborhood, and classifying the unqueried members costs one
  /// counting range query each.
  bool classify_points = false;

  /// Seed for every stochastic choice (anchor sampling, subsampling, the
  /// \OK random σ). Equal seeds give identical clusterings.
  uint64_t seed = 7;

  /// Time budget / cancellation for the whole run (index build, seed scan,
  /// SVDD training, expansion, noise verification). Default: unlimited.
  /// When it expires the run stops at the next check point and returns
  /// Status with Code::kDeadlineExceeded; Clustering::stats is still filled
  /// with the partial counts accumulated so far (labels are cleared).
  Deadline deadline;

  /// SMO solver options.
  SmoOptions smo;
};

/// DBSVEC — Density-Based Support Vector Expansion Clustering (the paper's
/// contribution). Produces density-based clusters approximating DBSCAN's
/// with the guarantees of Sec. III-C: every DBSVEC cluster is contained in
/// a DBSCAN cluster (it may split, never merges DBSCAN clusters) and the
/// noise set is identical to DBSCAN's.
///
/// When `model` is non-null the run additionally emits a servable
/// DbsvecModel: the known-core summary, per-sub-cluster SVDD spheres, and
/// the fitted parameters (the model's `transform` is left empty — callers
/// that normalized the data attach the transform themselves). Model
/// emission never changes the clustering output or its statistics.
Status RunDbsvec(const Dataset& dataset, const DbsvecParams& params,
                 Clustering* out, DbsvecModel* model = nullptr);

/// DBSVEC over a caller-supplied range-query engine (the index's dataset is
/// clustered). Exposed for engine-comparison tests and benches.
Status RunDbsvecWithIndex(const NeighborIndex& index,
                          const DbsvecParams& params, Clustering* out,
                          DbsvecModel* model = nullptr);

}  // namespace dbsvec

#endif  // DBSVEC_CORE_DBSVEC_H_
