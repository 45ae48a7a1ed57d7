// Fit workloads: fit_walk8d (the paper's Fig. 6 efficiency workload) and
// fit_blobs2d_noisy (many small solves and a noise-heavy seed scan).
//
// Untraced run: set-up (data generation + pool start) repeated, one warm-up
// fit, then timed RunDbsvec calls for the run's budget; labels must repeat
// exactly and pass a Theorem 3 spot check.
//
// Traced run (TraceFitLayers, shared with the serving workloads): untraced
// and traced fits alternate (the traced ones go through TracedIndex), then
// one fit with the pool at nproc threads, then seeded replays of the
// per-target core/svm/simd calls. Every label vector must equal the
// warm-up fit's. The fit workloads then replay the serving layers on the
// fitted model, with a seeded sample of their own points as the queries.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/clustering.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbsvec.h"
#include "core/parameter_selection.h"
#include "core/penalty_weights.h"
#include "data/synthetic.h"
#include "simd/soa_block.h"
#include "svm/svdd.h"
#include "trace.h"

namespace perfbench {
namespace {

using dbsvec::Clustering;
using dbsvec::Dataset;
using dbsvec::DbsvecParams;
using dbsvec::PointIndex;

/// Generates the workload's data and fixes its parameters. The point set
/// comes from a fixed generator seed (that of bench_fig6_scalability for
/// the walk, bench_budget's for the blobs); `--seed` shuffles its order,
/// which the fit's seed selection follows. Walk draws from different
/// generator seeds differ in fit time by ±12%, more than a bound can
/// absorb, so the run seed does not pick the draw.
FitInput MakeInput(const Options& options) {
  FitInput input;
  if (options.workload == "fit_walk8d") {
    dbsvec::RandomWalkParams gen;
    gen.n = options.smoke ? 10'000 : 100'000;
    gen.dim = 8;
    gen.num_clusters = 10;
    gen.seed = kWalkDataSeed;
    input.data = Shuffled(dbsvec::GenerateRandomWalk(gen), options.seed);
    input.params.epsilon = 5000.0;
    input.params.min_pts = options.smoke ? 20 : 100;
  } else {
    dbsvec::GaussianBlobsParams gen;
    gen.n = options.smoke ? 3'000 : 100'000;
    gen.dim = 2;
    gen.num_clusters = 3;
    gen.stddev = 1.0;
    gen.noise_fraction = 0.05;
    gen.seed = kBlobsDataSeed;
    const Dataset data = dbsvec::GenerateGaussianBlobs(gen);
    input.params.min_pts = options.smoke ? 20 : 150;
    // Before the shuffle: SuggestEpsilon samples by index, so its ε would
    // follow the order.
    input.params.epsilon = dbsvec::SuggestEpsilon(data, input.params.min_pts);
    input.data = Shuffled(data, options.seed);
  }
  return input;
}

/// One untraced fit; returns wall seconds (RunDbsvec, index build included).
/// With `peak_mb` set, the process's peak RSS is restarted before the fit
/// and read after it.
double TimedFit(const FitInput& input, Clustering* out, Report* report,
                dbsvec::DbsvecModel* model = nullptr,
                double* peak_mb = nullptr) {
  if (peak_mb != nullptr) ResetPeakRss();
  const double start = Now();
  const dbsvec::Status status = dbsvec::RunDbsvec(input.data, input.params,
                                                  out, model);
  const double elapsed = Now() - start;
  if (peak_mb != nullptr) *peak_mb = PeakRssMb();
  if (!status.ok()) report->Fail("fit: " + status.ToString());
  return elapsed;
}

/// Counts one fit-vs-reference label comparison.
void CheckLabels(const Clustering& got, const Clustering& want,
                 const char* what, Report* report) {
  if (got.labels == want.labels && !got.labels.empty()) {
    report->Count(true);
  } else {
    report->Fail(std::string("labels differ: ") + what);
  }
}

/// Theorem 3 spot check against a freshly built kd-tree: on a seeded sample
/// (uniform points plus points labelled noise), every core point is
/// clustered and every noise point is non-core with no core point within ε.
void CheckTheorem3(const FitInput& input, const Clustering& fit,
                   uint64_t seed, int samples, Report* report) {
  const Dataset& data = input.data;
  const double eps = input.params.epsilon;
  const int min_pts = input.params.min_pts;
  const auto kd = dbsvec::CreateIndex(dbsvec::IndexType::kKdTree, data, eps);
  dbsvec::Rng rng(Mix(seed, 3));
  std::vector<PointIndex> probe;
  std::vector<PointIndex> noise;
  for (PointIndex i = 0; i < data.size(); ++i) {
    if (fit.labels[i] == Clustering::kNoise) noise.push_back(i);
  }
  for (int k = 0; k < samples; ++k) {
    probe.push_back(static_cast<PointIndex>(rng.NextBounded(data.size())));
    if (!noise.empty()) {
      probe.push_back(noise[rng.NextBounded(noise.size())]);
    }
  }
  auto is_core = [&](PointIndex i) {
    return kd->RangeCount(data.point(i), eps) >= min_pts;
  };
  std::vector<PointIndex> hood;
  for (const PointIndex i : probe) {
    const bool noise_label = fit.labels[i] == Clustering::kNoise;
    bool ok = !(is_core(i) && noise_label);
    if (ok && noise_label) {
      kd->RangeQuery(i, eps, &hood);
      for (const PointIndex j : hood) {
        if (is_core(j)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      report->Count(true);
    } else {
      report->Fail("Theorem 3 violated at point " + std::to_string(i));
    }
  }
}

/// What one traced fit measured.
struct TracedFit {
  double fit_s = 0.0;
  double build_s = 0.0;
  double scan_query_s = 0.0;
  double batch_query_s = 0.0;
  double self_s = 0.0;
  uint64_t scan_issued = 0;
  uint64_t batch_queries = 0;
  uint64_t count_queries = 0;
  uint64_t result_ids = 0;
  uint64_t index_range_queries = 0;  // Inner + wrapper counters.
  uint64_t index_distances = 0;
  std::vector<Span> spans;
  double origin = 0.0;
};

TracedFit RunTracedFit(const FitInput& input, Clustering* out,
                       Report* report) {
  TracedFit t;
  DrainSpans();
  const double start = Now();
  const auto index = dbsvec::CreateIndex(input.params.index, input.data,
                                         input.params.epsilon);
  const double built = Now();
  RecordSpan(SpanKind::kIndexBuild, start, built, 0, 0);
  const TracedIndex traced(*index);
  const dbsvec::Status status =
      dbsvec::RunDbsvecWithIndex(traced, input.params, out);
  const double end = Now();
  RecordSpan(SpanKind::kFit, start, end, 0, 0);
  if (!status.ok()) report->Fail("traced fit: " + status.ToString());

  t.spans = DrainSpans();
  t.origin = start;
  t.fit_s = end - start;
  t.build_s = built - start;
  std::vector<std::pair<double, double>> scan, batch, all;
  for (const Span& s : t.spans) {
    switch (s.kind) {
      case SpanKind::kRangeQuery:
        scan.emplace_back(s.start, s.end);
        ++t.scan_issued;
        t.result_ids += s.results;
        break;
      case SpanKind::kBatchQuery:
        batch.emplace_back(s.start, s.end);
        t.batch_queries += s.queries;
        t.result_ids += s.results;
        break;
      case SpanKind::kRangeCount:
        ++t.count_queries;
        break;
      case SpanKind::kIndexBuild:
      case SpanKind::kFit:
        break;
    }
    if (s.kind != SpanKind::kFit) all.emplace_back(s.start, s.end);
  }
  t.scan_query_s = CoveredSeconds(scan, start, end);
  t.batch_query_s = CoveredSeconds(batch, start, end);
  t.self_s = t.fit_s - CoveredSeconds(all, start, end);
  t.index_range_queries =
      index->num_range_queries() + traced.num_range_queries();
  t.index_distances =
      index->num_distance_computations() + traced.num_distance_computations();
  return t;
}

/// A seeded SVDD target like the ones the fit trains on: up to
/// max_svdd_target members of the cluster of a random clustered point.
std::vector<PointIndex> ReplayTarget(const FitInput& input,
                                     const Clustering& fit, uint64_t seed) {
  dbsvec::Rng rng(Mix(seed, 5));
  const PointIndex n = input.data.size();
  PointIndex anchor = static_cast<PointIndex>(rng.NextBounded(n));
  for (PointIndex step = 0; step < n; ++step) {
    if (fit.labels[(anchor + step) % n] != Clustering::kNoise) {
      anchor = (anchor + step) % n;
      break;
    }
  }
  std::vector<PointIndex> members;
  for (PointIndex i = 0; i < n; ++i) {
    if (fit.labels[i] == fit.labels[anchor]) members.push_back(i);
  }
  const size_t cap = static_cast<size_t>(input.params.max_svdd_target);
  if (members.size() > cap) {
    for (size_t k = 0; k < cap; ++k) {
      std::swap(members[k],
                members[k + rng.NextBounded(members.size() - k)]);
    }
    members.resize(cap);
    std::sort(members.begin(), members.end());
  }
  return members;
}

struct Replay {
  double select_sigma_us = 0.0;
  double penalty_weights_us = 0.0;
  double train_us = 0.0;
  double smo_iterations = 0.0;
  double rbf_row_ns_per_point = 0.0;
  size_t target_size = 0;
};

/// Times the per-target calls one DBSVEC expansion round makes: σ
/// selection, penalty weights (Eq. 5/7), the weighted SVDD solve, and the
/// SIMD kernel-row primitive, each as the median of `reps` calls.
Replay RunReplay(const FitInput& input, const Clustering& fit, uint64_t seed,
                 int reps, Report* report) {
  Replay r;
  const Dataset& data = input.data;
  const std::vector<PointIndex> target = ReplayTarget(input, fit, seed);
  r.target_size = target.size();
  std::vector<double> sigma_us, weight_us, train_us, rbf_ns;
  double sigma = 0.0;
  std::vector<double> weights;
  const std::vector<int32_t> train_counts(data.size(), 0);
  dbsvec::PenaltyWeightOptions weight_options;
  weight_options.memory_factor = input.params.memory_factor;
  weight_options.anchor_count = input.params.penalty_anchor_count;
  dbsvec::SvddModel model;
  const dbsvec::simd::SoaBlockView view(data, target);
  std::vector<float> row(target.size());
  const size_t row_queries = std::min<size_t>(64, target.size());
  for (int rep = 0; rep < reps; ++rep) {
    double t0 = Now();
    sigma = dbsvec::Svdd::SelectSigma(data, target);
    sigma_us.push_back((Now() - t0) * 1e6);

    dbsvec::Rng rng(Mix(seed, 7));
    t0 = Now();
    weights = dbsvec::ComputePenaltyWeights(data, target, train_counts, sigma,
                                            weight_options, &rng);
    weight_us.push_back((Now() - t0) * 1e6);

    dbsvec::SvddParams svdd;
    svdd.nu = dbsvec::SelectNuStar(data.dim(), static_cast<int>(target.size()),
                                   input.params.min_pts);
    svdd.sigma = sigma;
    svdd.weights = weights;
    svdd.smo = input.params.smo;
    t0 = Now();
    const dbsvec::Status status = dbsvec::Svdd::Train(data, target, svdd,
                                                      &model);
    train_us.push_back((Now() - t0) * 1e6);
    report->Count(status.ok());

    const double inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
    t0 = Now();
    for (size_t q = 0; q < row_queries; ++q) {
      view.RbfRow(data.point(target[q]), inv_two_sigma_sq, 0, target.size(),
                  row.data());
    }
    rbf_ns.push_back((Now() - t0) * 1e9 /
                     static_cast<double>(row_queries * target.size()));
  }
  r.select_sigma_us = Median(sigma_us);
  r.penalty_weights_us = Median(weight_us);
  r.train_us = Median(train_us);
  r.smo_iterations = static_cast<double>(model.smo_iterations());
  r.rbf_row_ns_per_point = Median(rbf_ns);
  return r;
}

void RunUntraced(const Options& options, Report* report) {
  // Set-up (generation and shuffle) is repeated for at least 1.5 s (5 to 31
  // times) and medianed: it takes ~40 ms, in which a host stall is a large
  // share.
  const size_t min_setups = options.smoke ? 2 : 5;
  const double setup_budget_s = options.smoke ? 0.0 : 1.5;
  std::vector<double> setup_s;
  FitInput input;
  const double setup_begin = Now();
  while (setup_s.size() < min_setups ||
         (setup_s.size() < 31 && Now() - setup_begin < setup_budget_s)) {
    const double start = Now();
    input = MakeInput(options);
    setup_s.push_back(Now() - start);
  }

  Clustering reference;
  TimedFit(input, &reference, report);  // Warm-up.
  report->Count(!reference.labels.empty());

  // The first timed fit repeats the warm-up's input and must repeat its
  // labels. Every later one clusters another seeded order of the same
  // points: fit time depends on the order (±15% on the walk), so the run
  // reports the median over orders rather than the time of one order.
  // Peak RSS is taken per fit, from a trimmed heap, and medianed: the
  // process-wide peak moved by 20% between runs with how earlier stages
  // had left the heap.
  const int min_fits = options.smoke ? 2 : 3;
  std::vector<double> fit_s, peak_mb(1);
  const double begin = Now();
  Clustering repeat;
  fit_s.push_back(TimedFit(input, &repeat, report, nullptr, &peak_mb[0]));
  CheckLabels(repeat, reference, "repeated fit", report);
  CheckTheorem3(input, reference, options.seed, options.smoke ? 20 : 100,
                report);
  for (uint64_t order = 1; static_cast<int>(fit_s.size()) < min_fits ||
                           Now() - begin < options.seconds;
       ++order) {
    FitInput shuffled;
    shuffled.data = Shuffled(input.data, Mix(options.seed, 100 + order));
    shuffled.params = input.params;
    Clustering fit;
    peak_mb.push_back(0.0);
    fit_s.push_back(
        TimedFit(shuffled, &fit, report, nullptr, &peak_mb.back()));
    CheckTheorem3(shuffled, fit, Mix(options.seed, order),
                  options.smoke ? 10 : 30, report);
  }

  report->Detail("setups", static_cast<double>(setup_s.size()));
  report->Detail("fits", static_cast<double>(fit_s.size()));
  report->Detail("fit_s", NumList(fit_s));
  report->Detail("clusters", static_cast<double>(reference.num_clusters));
  report->Detail("noise", static_cast<double>(reference.CountNoise()));
  report->Detail("epsilon", input.params.epsilon);
  report->Metric("latency_p50_ms", Median(fit_s) * 1e3, "ms");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", Median(peak_mb), "MiB");
  report->Metric("ok_frac",
                 1.0 - static_cast<double>(report->failed()) /
                           static_cast<double>(report->attempted()),
                 "ratio");
}

/// `count` points drawn (seeded, with replacement) from `data`.
Dataset SampleQueries(const Dataset& data, size_t count, uint64_t seed) {
  dbsvec::Rng rng(Mix(seed, 9));
  Dataset queries(data.dim());
  for (size_t k = 0; k < count; ++k) {
    queries.Append(
        data.point(static_cast<PointIndex>(rng.NextBounded(data.size()))));
  }
  return queries;
}

}  // namespace

void TraceFitLayers(const FitInput& input, const Options& options,
                    Report* report, dbsvec::DbsvecModel* model) {
  Clustering reference;
  TimedFit(input, &reference, report, model);  // Warm-up; label reference.
  report->Count(!reference.labels.empty());

  std::vector<double> plain_s, traced_s, build_s, scan_s, batch_s, self_s;
  TracedFit last;
  const int min_pairs = options.smoke ? 1 : 2;
  const double begin = Now();
  int pairs = 0;
  while (pairs < min_pairs || Now() - begin < options.seconds) {
    Clustering plain;
    plain_s.push_back(TimedFit(input, &plain, report));
    CheckLabels(plain, reference, "untraced fit", report);
    Clustering traced;
    last = RunTracedFit(input, &traced, report);
    CheckLabels(traced, reference, "traced fit", report);
    traced_s.push_back(last.fit_s);
    build_s.push_back(last.build_s);
    scan_s.push_back(last.scan_query_s);
    batch_s.push_back(last.batch_query_s);
    self_s.push_back(last.self_s);
    ++pairs;
  }

  // Span accounting: the wrapper plus inner counters must add up to what
  // the untraced fit reported, and every batched or counted query the fit
  // consumed must have been seen by a span.
  const dbsvec::ClusteringStats& stats = reference.stats;
  const bool counters_match =
      last.index_range_queries == stats.num_range_queries &&
      last.index_distances == stats.num_distance_computations;
  const uint64_t counted = last.batch_queries + last.count_queries;
  const uint64_t untraced_consumed = stats.num_range_queries >= counted
                                         ? stats.num_range_queries - counted
                                         : 0;
  const bool spans_cover = stats.num_range_queries >= counted &&
                           untraced_consumed <= last.scan_issued;
  if (counters_match && spans_cover) {
    report->Count(true);
  } else {
    report->Fail("span accounting: traced index counters " +
                 std::to_string(last.index_range_queries) + " vs fit " +
                 std::to_string(stats.num_range_queries));
  }

  dbsvec::SetGlobalThreads(0);  // nproc
  Clustering pooled;
  const double pooled_s = TimedFit(input, &pooled, report);
  CheckLabels(pooled, reference, "pool fit", report);
  dbsvec::SetGlobalThreads(1);

  CheckTheorem3(input, reference, options.seed, options.smoke ? 20 : 100,
                report);
  const Replay replay =
      RunReplay(input, reference, options.seed, options.smoke ? 2 : 5, report);

  const std::string span_path = options.work_dir + "/spans-" +
                                options.workload + "-" +
                                std::to_string(options.seed) + ".csv";
  report->Count(WriteSpans(span_path, last.spans, last.origin));
  report->Detail("span_file", "\"" + span_path + "\"");
  report->Detail("traced_pairs", static_cast<double>(pairs));
  report->Detail("replay_target_size", static_cast<double>(replay.target_size));

  const double plain_fit_s = Median(plain_s);
  const uint64_t all_queries =
      last.scan_issued + last.batch_queries + last.count_queries;
  report->Metric("index.build_s", Median(build_s), "s");
  report->Metric("index.scan_query_s", Median(scan_s), "s");
  report->Metric("index.scan_queries_issued",
                 static_cast<double>(last.scan_issued), "count");
  report->Metric("index.scan_useful_frac",
                 last.scan_issued == 0
                     ? 0.0
                     : static_cast<double>(untraced_consumed) /
                           static_cast<double>(last.scan_issued),
                 "ratio");
  report->Metric("index.batch_query_s", Median(batch_s), "s");
  report->Metric("index.batch_queries",
                 static_cast<double>(last.batch_queries), "count");
  report->Metric("index.result_ids_per_query",
                 all_queries == 0 ? 0.0
                                  : static_cast<double>(last.result_ids) /
                                        static_cast<double>(all_queries),
                 "count");
  report->Metric("index.distance_computations",
                 static_cast<double>(stats.num_distance_computations),
                 "count");
  report->Metric("core.fit_self_s", Median(self_s), "s");
  report->Metric("core.penalty_weights_us", replay.penalty_weights_us, "us");
  report->Metric("core.select_sigma_us", replay.select_sigma_us, "us");
  report->Metric("core.merges", static_cast<double>(stats.num_merges),
                 "count");
  report->Metric("core.noise_list_size",
                 static_cast<double>(stats.noise_list_size), "count");
  report->Metric("svm.train_us", replay.train_us, "us");
  report->Metric("svm.train_smo_iterations", replay.smo_iterations, "count");
  report->Metric("svm.trainings",
                 static_cast<double>(stats.num_svdd_trainings), "count");
  report->Metric("svm.smo_iterations",
                 static_cast<double>(stats.smo_iterations), "count");
  report->Metric("svm.max_smo_iterations",
                 static_cast<double>(stats.max_smo_iterations), "count");
  report->Metric("svm.support_vectors",
                 static_cast<double>(stats.num_support_vectors), "count");
  report->Metric("svm.fallbacks",
                 static_cast<double>(stats.num_svdd_fallbacks), "count");
  report->Metric("svm.nonconverged",
                 static_cast<double>(stats.num_nonconverged_solves), "count");
  report->Metric("simd.rbf_row_ns_per_point", replay.rbf_row_ns_per_point,
                 "ns");
  report->Metric("common.pool_speedup_vs_1t", plain_fit_s / pooled_s, "x");
  report->Metric("trace_overhead_frac",
                 Median(traced_s) / plain_fit_s - 1.0, "ratio");
}

bool RunFitWorkload(const Options& options, Report* report) {
  if (!options.trace) {
    RunUntraced(options, report);
    return true;
  }
  const FitInput input = MakeInput(options);
  dbsvec::DbsvecModel model;
  TraceFitLayers(input, options, report, &model);
  const Dataset queries = SampleQueries(
      input.data, options.smoke ? 2'000 : 20'000, options.seed);
  return ReplayServeLayers(model, queries, /*batch=*/true,
                           /*online_refresh=*/false, options, report);
}

}  // namespace perfbench
