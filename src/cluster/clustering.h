#ifndef DBSVEC_CLUSTER_CLUSTERING_H_
#define DBSVEC_CLUSTER_CLUSTERING_H_

#include <cstdint>
#include <vector>

namespace dbsvec {

/// Instrumentation collected by every clusterer; the complexity experiments
/// (Table II) and the ablations read these back.
struct ClusteringStats {
  /// Wall-clock seconds for the clustering run (excludes dataset
  /// generation, includes index construction).
  double elapsed_seconds = 0.0;
  /// ε-range queries issued.
  uint64_t num_range_queries = 0;
  /// Point-to-point distance evaluations.
  uint64_t num_distance_computations = 0;
  /// SVDD trainings performed (DBSVEC only).
  uint64_t num_svdd_trainings = 0;
  /// Support vectors produced across all trainings (DBSVEC only).
  uint64_t num_support_vectors = 0;
  /// Sub-cluster merges (DBSVEC) or cell merges (ρ-approximate).
  uint64_t num_merges = 0;
  /// Potential-noise points examined by noise verification (DBSVEC only).
  uint64_t noise_list_size = 0;
  /// Total SMO iterations (DBSVEC only).
  int64_t smo_iterations = 0;
  /// Sub-clusters whose SVDD expansion was replaced by exact range-query
  /// expansion (DBSCAN semantics) because the solve failed, did not
  /// converge, or produced a degenerate sphere (DBSVEC only).
  uint64_t num_svdd_fallbacks = 0;
  /// SMO solves that hit the iteration cap without meeting the tolerance
  /// (DBSVEC only).
  uint64_t num_nonconverged_solves = 0;
  /// SVDD trainings whose weighted caps were infeasible (Σ ω_iC < 1) and
  /// had to be scaled up minimally (DBSVEC only).
  uint64_t num_caps_rescaled = 0;
  /// Largest single-solve SMO iteration count — with `smo_iterations` (the
  /// sum) this surfaces per-solve cost without failpoints (DBSVEC only).
  int64_t max_smo_iterations = 0;
  /// Budget-maintenance SV merges across all budgeted solves (DBSVEC with
  /// sv_budget > 0 only).
  uint64_t num_budget_merges = 0;
  /// Budget-maintenance SV forgets across all budgeted solves (DBSVEC with
  /// sv_budget > 0 only).
  uint64_t num_budget_forgets = 0;
  /// SVDD solves trained on a boundary-preserving sample instead of the
  /// full target set (DBSVEC with sample_threshold > 0 only).
  uint64_t num_sampled_solves = 0;
  /// SVDD rounds whose target set exceeded `max_svdd_target` and was
  /// uniformly subsampled down to it (DBSVEC only).
  uint64_t num_capped_solves = 0;
};

/// Role of a point in the density structure (Definitions 1-2 of the
/// paper): core points have dense ε-neighborhoods, border points are
/// non-core points inside some cluster, noise points belong to no cluster.
enum class PointType : uint8_t {
  kCore = 0,
  kBorder = 1,
  kNoise = 2,
};

/// Result of a clustering run: one label per point plus run statistics.
struct Clustering {
  /// Label given to noise points.
  static constexpr int32_t kNoise = -1;

  /// Cluster id of each point: 0..num_clusters-1, or kNoise.
  std::vector<int32_t> labels;
  /// Number of distinct (non-noise) clusters.
  int32_t num_clusters = 0;
  /// Core/border/noise role of each point. Filled by the exact algorithms
  /// (DBSCAN, NQ-DBSCAN) and, on request (DbsvecParams::classify_points),
  /// by DBSVEC; empty otherwise.
  std::vector<PointType> point_types;
  /// Run statistics.
  ClusteringStats stats;

  /// Number of points labelled noise.
  int32_t CountNoise() const;
  /// Number of points with the given role (0 if point_types is unfilled).
  int32_t CountType(PointType type) const;
};

/// Remaps arbitrary non-negative labels (and kNoise) in `labels` to the
/// dense range 0..k-1 (noise preserved); returns k. Order of first
/// appearance determines the new ids, so the mapping is deterministic.
int32_t CompactLabels(std::vector<int32_t>* labels);

}  // namespace dbsvec

#endif  // DBSVEC_CLUSTER_CLUSTERING_H_
