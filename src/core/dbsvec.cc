#include "core/dbsvec.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/union_find.h"
#include "core/core_tracker.h"
#include "exec/sharded_index.h"
#include "exec/topology.h"
#include "core/parameter_selection.h"
#include "model/dbsvec_model.h"
#include "svm/svdd.h"
#include "svm/target_sampler.h"

namespace dbsvec {
namespace {

constexpr int32_t kUnclassified = -2;
constexpr int32_t kPotentialNoise = -3;

/// Mutable state of one DBSVEC run. Labels hold sub-cluster ids (indices
/// into the union-find forest) during the run and are resolved to dense
/// cluster ids at the end.
/// SVDD sphere parameters of a sub-cluster's most recent training round,
/// captured for model emission.
struct SphereCapture {
  double sigma = 0.0;
  double radius_sq = 0.0;
  int32_t num_support_vectors = 0;
};

class DbsvecRun {
 public:
  DbsvecRun(const NeighborIndex& index, const DbsvecParams& params,
            Clustering* out, DbsvecModel* model_out)
      : index_(index),
        dataset_(index.dataset()),
        params_(params),
        out_(out),
        model_out_(model_out),
        rng_(params.seed),
        core_(index, params.epsilon, params.min_pts) {}

  Status Execute();

 private:
  /// Folds the points of `neighborhood` (the ε-neighborhood of a core
  /// point) into sub-cluster `cid`: unlabelled and potential-noise points
  /// are claimed; points of other sub-clusters trigger the overlapping-
  /// point merge test (Lemma 3).
  void AbsorbNeighborhood(const std::vector<PointIndex>& neighborhood,
                          int32_t cid, std::vector<PointIndex>* members);

  /// Support vector expansion (Algorithm 3), iterated until the
  /// sub-cluster stops growing.
  Status ExpandCluster(int32_t cid, std::vector<PointIndex>* members);

  /// Graceful degradation: exact range-query expansion of `members` with
  /// plain DBSCAN semantics — every member with an unknown neighborhood
  /// count is queried, core members absorb their neighborhoods, and the
  /// member list grows until closure. Used when a training round for this
  /// sub-cluster fails, does not converge, or yields a degenerate sphere;
  /// by Theorem 1 the result still sits inside the DBSCAN cluster of the
  /// seed, so correctness degrades to exact DBSCAN, never to garbage.
  Status ExpandExact(int32_t cid, std::vector<PointIndex>* members);

  /// The seed scan (Algorithm 2 main loop): sequential or speculative
  /// batched depending on the thread pool. Split out of Execute so stats
  /// can be finalized even when the scan stops early (deadline, fault).
  Status Scan();

  /// Builds the SVDD target set for the current training round. When
  /// `full` is set the incremental-learning filter is bypassed (used for
  /// the stall-recovery pass).
  void SelectTarget(const std::vector<PointIndex>& members, bool full,
                    std::vector<PointIndex>* target);

  /// Noise verification (last step of Algorithm 2).
  void VerifyNoise();

  /// Reduces the finished run to a servable DbsvecModel (known-core
  /// summary + sub-cluster spheres). `labels` are the final dense labels.
  void BuildModel(const std::vector<int32_t>& labels);

  const NeighborIndex& index_;
  const Dataset& dataset_;
  const DbsvecParams& params_;
  Clustering* out_;
  DbsvecModel* model_out_;  // nullptr = no model emission.
  Rng rng_;
  CoreTracker core_;

  UnionFind sub_clusters_;
  // Scratch for the boundary-preserving target sample (reused per round).
  std::vector<PointIndex> sampled_target_;
  // Scratch for the batched support-vector fan-out (reused per round).
  std::vector<size_t> queried_svs_;
  std::vector<PointIndex> sv_query_ids_;
  std::vector<std::vector<PointIndex>> sv_neighborhoods_;
  std::vector<int32_t> labels_;
  std::vector<int32_t> train_count_;     // t_i of Sec. IV-B1.
  std::vector<PointIndex> potential_noise_;
  std::vector<std::vector<PointIndex>> noise_neighborhoods_;
  // Last-round SVDD sphere per sub-cluster id (model emission only).
  std::vector<SphereCapture> sphere_captures_;
  ClusteringStats stats_;
};

void DbsvecRun::AbsorbNeighborhood(
    const std::vector<PointIndex>& neighborhood, int32_t cid,
    std::vector<PointIndex>* members) {
  for (const PointIndex j : neighborhood) {
    const int32_t label = labels_[j];
    if (label == kUnclassified || label == kPotentialNoise) {
      labels_[j] = cid;
      train_count_[j] = 0;
      members->push_back(j);
    } else if (sub_clusters_.Find(label) != sub_clusters_.Find(cid)) {
      // Overlapping point from another sub-cluster: merge if it is core
      // (Lemma 3). The core test may issue a counting range query.
      if (core_.IsCore(j)) {
        sub_clusters_.Union(label, cid);
        ++stats_.num_merges;
      }
    }
  }
}

void DbsvecRun::SelectTarget(const std::vector<PointIndex>& members,
                             bool full, std::vector<PointIndex>* target) {
  target->clear();
  if (params_.incremental_learning && !full) {
    for (const PointIndex p : members) {
      if (train_count_[p] <= params_.learning_threshold) {
        target->push_back(p);
      }
    }
  } else {
    *target = members;
  }
  if (params_.max_svdd_target > 0 &&
      static_cast<int>(target->size()) > params_.max_svdd_target) {
    // Uniform subsample (partial Fisher-Yates): a bounded training set
    // keeps each SVDD solve O(max_svdd_target).
    ++stats_.num_capped_solves;
    for (int i = 0; i < params_.max_svdd_target; ++i) {
      const size_t j =
          i + static_cast<size_t>(rng_.NextBounded(target->size() - i));
      std::swap((*target)[i], (*target)[j]);
    }
    target->resize(params_.max_svdd_target);
  }
}

Status DbsvecRun::ExpandExact(int32_t cid,
                              std::vector<PointIndex>* members) {
  ++stats_.num_svdd_fallbacks;
  std::vector<PointIndex> neighborhood;
  // `members` grows while we iterate: absorbed points are appended and
  // processed in turn, exactly DBSCAN's expansion queue.
  for (size_t k = 0; k < members->size(); ++k) {
    DBSVEC_RETURN_IF_ERROR(params_.deadline.Check("DBSVEC exact expansion"));
    const PointIndex p = (*members)[k];
    if (core_.count(p) >= 0) {
      // Known count ⇒ already handled: the seed and previously queried
      // support vectors had their neighborhoods absorbed when the count
      // was recorded, and known non-core members cannot expand.
      continue;
    }
    index_.RangeQuery(p, params_.epsilon, &neighborhood);
    core_.RecordCount(p, static_cast<int32_t>(neighborhood.size()));
    if (static_cast<int>(neighborhood.size()) < params_.min_pts) {
      continue;  // Border point of this sub-cluster.
    }
    AbsorbNeighborhood(neighborhood, cid, members);
  }
  return Status::Ok();
}

Status DbsvecRun::ExpandCluster(int32_t cid,
                                std::vector<PointIndex>* members) {
  std::vector<PointIndex> target;
  // Stall recovery: when the incremental target produces no growth, one
  // round over the *full* member set runs before the sub-cluster is
  // declared stable. This keeps incremental learning an efficiency-only
  // optimization (same fixpoint as training on all members, which is what
  // Sec. IV-B1's "negligible impact on accuracy" requires) instead of a
  // source of premature stops on thin, elongated clusters.
  bool full_pass = false;
  while (true) {
    DBSVEC_RETURN_IF_ERROR(params_.deadline.Check("DBSVEC expansion"));
    SelectTarget(*members, full_pass, &target);
    if (target.empty()) {
      if (params_.incremental_learning && params_.stall_recovery && !full_pass) {
        full_pass = true;
        continue;
      }
      break;  // Every member exhausted its learning budget: stable.
    }

    // Boundary-preserving sampling (bounded-cost SVDD): above the
    // threshold the solve trains on an outer-shell sample and the full
    // target is re-checked against the learned sphere below, so the
    // expansion semantics are those of training on everything. Off by
    // default — when it does not fire, `train_target` aliases `target`
    // and the round is bit-identical to the unsampled path.
    std::span<const PointIndex> train_target{target};
    bool sampled = false;
    if (params_.sample_threshold > 0) {
      TargetSamplerOptions sampler_options;
      sampler_options.threshold = params_.sample_threshold;
      sampler_options.seed = params_.seed;
      sampled = TargetSampler::Sample(dataset_, target, sampler_options,
                                      &sampled_target_);
      if (sampled) {
        train_target = sampled_target_;
        ++stats_.num_sampled_solves;
      }
    }

    SvddParams svdd_params;
    svdd_params.smo = params_.smo;
    svdd_params.sv_budget = params_.sv_budget;
    svdd_params.sigma = params_.auto_sigma
                            ? 0.0  // Svdd picks r/√2 itself.
                            : RandomSigma(dataset_, train_target, &rng_);
    const int nn = static_cast<int>(train_target.size());
    switch (params_.nu_mode) {
      case NuMode::kAuto:
        svdd_params.nu = SelectNuStar(dataset_.dim(), nn, params_.min_pts);
        break;
      case NuMode::kMinimum:
        svdd_params.nu = SelectNuMin(nn);
        break;
      case NuMode::kFixed:
        svdd_params.nu = std::clamp(params_.fixed_nu, 1.0 / nn, 1.0);
        break;
    }
    if (params_.adaptive_weights) {
      PenaltyWeightOptions weight_options;
      weight_options.memory_factor = params_.memory_factor;
      weight_options.anchor_count = params_.penalty_anchor_count;
      const double sigma = svdd_params.sigma > 0.0
                               ? svdd_params.sigma
                               : Svdd::SelectSigma(dataset_, train_target);
      svdd_params.sigma = sigma;
      svdd_params.weights = ComputePenaltyWeights(
          dataset_, train_target, train_count_, sigma, weight_options,
          &rng_);
    }

    SvddModel model;
    const Status train_status =
        Svdd::Train(dataset_, train_target, svdd_params, &model);
    if (!train_status.ok()) {
      if (train_status.code() == Status::Code::kDeadlineExceeded) {
        return train_status;  // The caller asked to stop; do not degrade.
      }
      // Solve failed outright (injected fault, numerically infeasible
      // caps, ...): fall back to exact expansion of this sub-cluster.
      return ExpandExact(cid, members);
    }
    ++stats_.num_svdd_trainings;
    stats_.num_support_vectors += model.support_vectors().size();
    stats_.smo_iterations += model.smo_iterations();
    stats_.max_smo_iterations =
        std::max(stats_.max_smo_iterations, model.smo_iterations());
    stats_.num_budget_merges += static_cast<uint64_t>(model.budget_merges());
    stats_.num_budget_forgets +=
        static_cast<uint64_t>(model.budget_forgets());
    if (model.caps_rescaled()) {
      ++stats_.num_caps_rescaled;
    }
    if (!model.converged()) {
      ++stats_.num_nonconverged_solves;
    }
    for (const PointIndex p : train_target) {
      ++train_count_[p];
    }
    if (!model.converged() || model.degenerate()) {
      // A sphere the solver did not finish (or that came out degenerate)
      // may miss support vectors on the true boundary; expanding from it
      // risks under-covering the sub-cluster. Degrade to exact expansion.
      return ExpandExact(cid, members);
    }
    if (sampled) {
      // Re-check the full target against the learned sphere: members the
      // sphere explains spend one training round (they leave future
      // incremental targets exactly as if they had been trained on),
      // members it does not explain keep their budget so later rounds
      // revisit them. The sample preserves the target's relative order,
      // so a two-pointer walk separates trained-on from re-checked.
      size_t s = 0;
      for (const PointIndex p : target) {
        if (s < sampled_target_.size() && sampled_target_[s] == p) {
          ++s;  // Trained on directly; counted above.
          continue;
        }
        if (model.Contains(dataset_, dataset_.point(p))) {
          ++train_count_[p];
        }
      }
    }
    if (model_out_ != nullptr) {
      // Capture the fitted sphere (the latest round wins) and the core-SV
      // flags for model emission.
      if (cid >= static_cast<int32_t>(sphere_captures_.size())) {
        sphere_captures_.resize(cid + 1);
      }
      sphere_captures_[cid] = {model.sigma(), model.radius_sq(),
                               static_cast<int32_t>(
                                   model.support_vectors().size())};
      for (const SvddModel::SupportVector& sv : model.support_vectors()) {
        core_.MarkSupportVector(sv.index);
      }
    }

    // Expand from the core support vectors (Definition 6 / Algorithm 3).
    // The skip rule below only depends on neighbor counts known *before*
    // this round (absorbing one SV's neighborhood never updates the count
    // of another SV in the list — those are all members of `cid`, and the
    // core test inside AbsorbNeighborhood only fires for points of other
    // sub-clusters), so the set of range queries is fixed upfront. That
    // lets the queries fan out as one RangeQueryBatch (thread-pool
    // parallel; shard-affine under the sharded engine) while the
    // absorption — which mutates labels and the union-find — replays
    // sequentially in SV order, producing labels, merges, and stats
    // identical to the sequential run.
    const size_t last_size = members->size();
    const auto& svs = model.support_vectors();
    queried_svs_.clear();
    sv_query_ids_.clear();
    for (size_t s = 0; s < svs.size(); ++s) {
      if (core_.IsKnownNonCore(svs[s].index)) {
        continue;  // Known non-core support vector: cannot expand.
      }
      queried_svs_.push_back(s);
      sv_query_ids_.push_back(svs[s].index);
    }
    DBSVEC_RETURN_IF_ERROR(index_.RangeQueryBatch(
        sv_query_ids_, params_.epsilon, &sv_neighborhoods_));
    for (size_t k = 0; k < queried_svs_.size(); ++k) {
      const SvddModel::SupportVector& sv = svs[queried_svs_[k]];
      const std::vector<PointIndex>& hood = sv_neighborhoods_[k];
      core_.RecordCount(sv.index, static_cast<int32_t>(hood.size()));
      if (static_cast<int>(hood.size()) < params_.min_pts) {
        continue;  // Non-core support vector (SV_2 in Fig. 3b).
      }
      AbsorbNeighborhood(hood, cid, members);
    }
    if (members->size() == last_size) {
      if (params_.incremental_learning && params_.stall_recovery && !full_pass) {
        full_pass = true;  // Stall: try once more with all members.
        continue;
      }
      break;  // No new points: the sub-cluster is stable (Algorithm 3).
    }
    full_pass = false;  // Growth: back to the incremental target.
  }
  return Status::Ok();
}

void DbsvecRun::VerifyNoise() {
  stats_.noise_list_size = potential_noise_.size();
  for (size_t k = 0; k < potential_noise_.size(); ++k) {
    const PointIndex p = potential_noise_[k];
    if (labels_[p] != kPotentialNoise) {
      continue;  // Absorbed into a cluster after being listed.
    }
    // Assign to the cluster of the nearest core point in the stored
    // ε-neighborhood, or confirm as noise if none exists.
    const std::vector<PointIndex>& neighborhood = noise_neighborhoods_[k];
    PointIndex best = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const PointIndex q : neighborhood) {
      if (q == p || labels_[q] == kPotentialNoise ||
          labels_[q] == kUnclassified) {
        continue;  // Core points always carry a sub-cluster label.
      }
      if (!core_.IsCore(q)) {
        continue;
      }
      const double d = dataset_.SquaredDistance(p, q);
      if (d < best_dist) {
        best_dist = d;
        best = q;
      }
    }
    labels_[p] = best >= 0 ? labels_[best] : Clustering::kNoise;
  }
}

void DbsvecRun::BuildModel(const std::vector<int32_t>& labels) {
  DbsvecModel& model = *model_out_;
  model = DbsvecModel();
  const int dim = dataset_.dim();
  const PointIndex n = dataset_.size();
  model.epsilon = params_.epsilon;
  model.min_pts = params_.min_pts;
  model.dim = dim;
  model.train_size = n;
  model.num_clusters = out_->num_clusters;
  model.sv_budget = params_.sv_budget;
  model.sample_threshold = params_.sample_threshold;

  if (n > 0) {
    model.train_min.assign(dim, std::numeric_limits<double>::infinity());
    model.train_max.assign(dim, -std::numeric_limits<double>::infinity());
    for (PointIndex i = 0; i < n; ++i) {
      for (int d = 0; d < dim; ++d) {
        const double v = dataset_.at(i, d);
        if (v < model.train_min[d]) model.train_min[d] = v;
        if (v > model.train_max[d]) model.train_max[d] = v;
      }
    }
  }

  // Known-core summary, in ascending point order. Known cores always carry
  // a cluster label (absorption labels them on discovery); the guard is
  // belt and braces.
  Dataset cores(dim);
  for (const PointIndex i : core_.KnownCorePoints()) {
    if (labels[i] < 0) {
      continue;
    }
    cores.Append(dataset_.point(i));
    model.core_labels.push_back(labels[i]);
    model.core_is_sv.push_back(core_.IsSupportVector(i) ? 1 : 0);
  }
  model.core_points = std::move(cores);

  // One sphere per sub-cluster: input-space centroid + covering radius of
  // its members (labels_ still holds the raw sub-cluster ids), annotated
  // with the last fitted SVDD sphere of that sub-cluster.
  const int32_t num_cids = sub_clusters_.size();
  if (num_cids == 0) {
    return;
  }
  std::vector<int64_t> member_count(num_cids, 0);
  std::vector<double> centroid(static_cast<size_t>(num_cids) * dim, 0.0);
  std::vector<int32_t> dense_cluster(num_cids, -1);
  for (PointIndex i = 0; i < n; ++i) {
    const int32_t cid = labels_[i];
    if (cid < 0) {
      continue;
    }
    ++member_count[cid];
    dense_cluster[cid] = labels[i];
    for (int d = 0; d < dim; ++d) {
      centroid[static_cast<size_t>(cid) * dim + d] += dataset_.at(i, d);
    }
  }
  for (int32_t cid = 0; cid < num_cids; ++cid) {
    if (member_count[cid] > 0) {
      for (int d = 0; d < dim; ++d) {
        centroid[static_cast<size_t>(cid) * dim + d] /=
            static_cast<double>(member_count[cid]);
      }
    }
  }
  std::vector<double> max_dist_sq(num_cids, 0.0);
  for (PointIndex i = 0; i < n; ++i) {
    const int32_t cid = labels_[i];
    if (cid < 0) {
      continue;
    }
    const std::span<const double> center{
        centroid.data() + static_cast<size_t>(cid) * dim,
        static_cast<size_t>(dim)};
    const double d2 = dataset_.SquaredDistanceTo(i, center);
    if (d2 > max_dist_sq[cid]) {
      max_dist_sq[cid] = d2;
    }
  }
  for (int32_t cid = 0; cid < num_cids; ++cid) {
    if (member_count[cid] == 0 || dense_cluster[cid] < 0) {
      continue;
    }
    SubClusterSphere sphere;
    sphere.cluster = dense_cluster[cid];
    if (cid < static_cast<int32_t>(sphere_captures_.size())) {
      sphere.sigma = sphere_captures_[cid].sigma;
      sphere.radius_sq = sphere_captures_[cid].radius_sq;
      sphere.num_support_vectors = sphere_captures_[cid].num_support_vectors;
    }
    sphere.center.assign(
        centroid.begin() + static_cast<size_t>(cid) * dim,
        centroid.begin() + static_cast<size_t>(cid + 1) * dim);
    sphere.radius = std::sqrt(max_dist_sq[cid]);
    sphere.num_members = member_count[cid];
    model.spheres.push_back(std::move(sphere));
  }
}

Status DbsvecRun::Scan() {
  const PointIndex n = dataset_.size();
  std::vector<PointIndex> neighborhood;
  std::vector<PointIndex> members;
  if (GlobalThreadPool() == nullptr) {
    for (PointIndex i = 0; i < n; ++i) {
      if (labels_[i] != kUnclassified) {
        continue;
      }
      DBSVEC_RETURN_IF_ERROR(params_.deadline.Check("DBSVEC seed scan"));
      index_.RangeQuery(i, params_.epsilon, &neighborhood);
      core_.RecordCount(i, static_cast<int32_t>(neighborhood.size()));
      if (static_cast<int>(neighborhood.size()) < params_.min_pts) {
        // Potential noise: keep the neighborhood for noise verification
        // (it has fewer than MinPts entries, so the list stays small).
        labels_[i] = kPotentialNoise;
        potential_noise_.push_back(i);
        noise_neighborhoods_.push_back(neighborhood);
        continue;
      }
      // i is a core seed: initialize a new sub-cluster from its
      // ε-neighborhood (Corollary 1) and expand it by support vectors.
      const int32_t cid = sub_clusters_.MakeSet();
      members.clear();
      AbsorbNeighborhood(neighborhood, cid, &members);
      DBSVEC_RETURN_IF_ERROR(ExpandCluster(cid, &members));
    }
  } else {
    // Speculative batched seed scan: prefetch the ε-neighborhoods of the
    // next batch of still-unclassified points in parallel, then replay the
    // scan sequentially. A prefetched result is *consumed* only if its
    // point is still unclassified when the replay reaches it — the exact
    // set of points the sequential scan would have queried — and only
    // consumed queries fold their counters into the index, so labels and
    // stats match the sequential run bit for bit. Queries invalidated by
    // an intervening cluster expansion are discarded (wasted speculation,
    // never wrong results).
    const size_t batch_target = std::min<size_t>(
        256, 4 * static_cast<size_t>(GlobalThreads()));
    std::vector<PointIndex> batch;
    std::vector<std::vector<PointIndex>> batch_neighborhoods;
    std::vector<NeighborIndex::QueryCounters> batch_counters;
    PointIndex scan = 0;
    while (scan < n) {
      DBSVEC_RETURN_IF_ERROR(params_.deadline.Check("DBSVEC seed scan"));
      batch.clear();
      while (scan < n && batch.size() < batch_target) {
        if (labels_[scan] == kUnclassified) {
          batch.push_back(scan);
        }
        ++scan;
      }
      batch_neighborhoods.resize(batch.size());
      batch_counters.assign(batch.size(), {});
      ParallelFor(batch.size(), 1, [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
          NeighborIndex::ScopedCounterCapture capture(&batch_counters[k]);
          index_.RangeQuery(batch[k], params_.epsilon,
                            &batch_neighborhoods[k]);
        }
      });
      for (size_t k = 0; k < batch.size(); ++k) {
        const PointIndex i = batch[k];
        if (labels_[i] != kUnclassified) {
          continue;  // Claimed by an expansion after prefetch: discard.
        }
        index_.AccumulateCounters(batch_counters[k]);
        std::vector<PointIndex>& hood = batch_neighborhoods[k];
        core_.RecordCount(i, static_cast<int32_t>(hood.size()));
        if (static_cast<int>(hood.size()) < params_.min_pts) {
          labels_[i] = kPotentialNoise;
          potential_noise_.push_back(i);
          noise_neighborhoods_.push_back(std::move(hood));
          continue;
        }
        const int32_t cid = sub_clusters_.MakeSet();
        members.clear();
        AbsorbNeighborhood(hood, cid, &members);
        DBSVEC_RETURN_IF_ERROR(ExpandCluster(cid, &members));
      }
    }
  }
  return Status::Ok();
}

Status DbsvecRun::Execute() {
  const PointIndex n = dataset_.size();
  Stopwatch timer;
  index_.ResetCounters();
  labels_.assign(n, kUnclassified);
  core_.Reset(n);
  train_count_.assign(n, 0);

  const Status scan_status = Scan();
  if (!scan_status.ok()) {
    // Interrupted run (deadline, cancellation, injected fault): callers
    // get the statistics accumulated so far, but no labels — a
    // half-expanded labelling is not a clustering.
    out_->labels.clear();
    out_->num_clusters = 0;
    out_->point_types.clear();
    stats_.num_range_queries = index_.num_range_queries();
    stats_.num_distance_computations = index_.num_distance_computations();
    stats_.elapsed_seconds = timer.ElapsedSeconds();
    out_->stats = stats_;
    return scan_status;
  }

  VerifyNoise();

  // Resolve sub-cluster ids through the union-find and densify.
  std::vector<int32_t>& labels = out_->labels;
  labels.assign(n, Clustering::kNoise);
  for (PointIndex i = 0; i < n; ++i) {
    if (labels_[i] >= 0) {
      labels[i] = sub_clusters_.Find(labels_[i]);
    }
  }
  out_->num_clusters = CompactLabels(&labels);
  if (model_out_ != nullptr) {
    // Before the optional role classification: the model must be the
    // compact summary of neighborhoods the run actually proved dense, not
    // inflated by classification's extra counting queries.
    BuildModel(labels);
  }
  if (params_.classify_points) {
    // Opt-in role classification; unknown neighborhood counts cost one
    // counting range query each (reflected in the stats).
    out_->point_types.resize(n);
    for (PointIndex i = 0; i < n; ++i) {
      out_->point_types[i] = labels[i] == Clustering::kNoise
                                 ? PointType::kNoise
                             : core_.IsCore(i) ? PointType::kCore
                                               : PointType::kBorder;
    }
  } else {
    out_->point_types.clear();
  }
  stats_.num_range_queries = index_.num_range_queries();
  stats_.num_distance_computations = index_.num_distance_computations();
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  out_->stats = stats_;
  return Status::Ok();
}

}  // namespace

Status RunDbsvecWithIndex(const NeighborIndex& index,
                          const DbsvecParams& params, Clustering* out,
                          DbsvecModel* model) {
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("DBSVEC: epsilon must be positive");
  }
  if (params.min_pts < 1) {
    return Status::InvalidArgument("DBSVEC: min_pts must be >= 1");
  }
  if (params.learning_threshold < 0) {
    return Status::InvalidArgument(
        "DBSVEC: learning_threshold must be >= 0");
  }
  if (params.memory_factor <= 1.0) {
    return Status::InvalidArgument("DBSVEC: memory_factor must be > 1");
  }
  if (params.sv_budget < 0) {
    return Status::InvalidArgument("DBSVEC: sv_budget must be >= 0");
  }
  if (params.sample_threshold < 0) {
    return Status::InvalidArgument(
        "DBSVEC: sample_threshold must be >= 0");
  }
  if (params.nu_mode == NuMode::kFixed &&
      (params.fixed_nu <= 0.0 || params.fixed_nu > 1.0)) {
    return Status::InvalidArgument("DBSVEC: fixed_nu must be in (0, 1]");
  }
  DBSVEC_RETURN_IF_ERROR(ValidateFinite(index.dataset()));
  DbsvecRun run(index, params, out, model);
  return run.Execute();
}

Status RunDbsvec(const Dataset& dataset, const DbsvecParams& params,
                 Clustering* out, DbsvecModel* model) {
  Stopwatch timer;
  std::unique_ptr<NeighborIndex> index;
  Status index_status;
  if (params.shards >= 1) {
    // Sharded engine (even at shards=1, whose sorted merge is the label
    // baseline for every shard count). Pin pool workers round-robin
    // across NUMA nodes so each shard's contiguous block stays node-local.
    SetGlobalPinning(
        exec::PinningPlan(exec::DetectTopology(), GlobalThreads()));
    std::unique_ptr<exec::ShardedIndex> sharded;
    index_status =
        exec::ShardedIndex::Create(params.index, dataset, params.epsilon,
                                   params.shards, params.deadline, &sharded);
    index = std::move(sharded);
  } else {
    index_status = CreateIndexChecked(params.index, dataset, params.epsilon,
                                      params.deadline, &index);
  }
  if (!index_status.ok()) {
    out->labels.clear();
    out->num_clusters = 0;
    out->point_types.clear();
    out->stats = ClusteringStats{};
    out->stats.elapsed_seconds = timer.ElapsedSeconds();
    return index_status;
  }
  DBSVEC_RETURN_IF_ERROR(RunDbsvecWithIndex(*index, params, out, model));
  out->stats.elapsed_seconds = timer.ElapsedSeconds();
  return Status::Ok();
}

}  // namespace dbsvec
