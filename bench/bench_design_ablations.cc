// Ablation benches for the implementation-level design choices DESIGN.md
// calls out — knobs this library adds around the paper's algorithm:
//
//   1. Stall recovery (DESIGN.md §6): one full-member SVDD round when the
//      incremental target stops growing. Measures its recall benefit on
//      thin 2-D clusters and its time cost.
//   2. SVDD target cap (max_svdd_target): the uniform subsample bounding
//      every solve, swept over {256, 512, 1024, 2048, 4096, unlimited} on
//      the 8-d walk and on noisy 2-d blobs. This table is the evidence for
//      the library default; the run fails (exit 1) when, on either
//      workload, the default cap subsamples no target (the cell would
//      just repeat the uncapped one) or its recall falls below the
//      uncapped recall.
//   3. Penalty-weight anchor count: the O(ñ·m) estimate of the kernel
//      distance (Eq. 5) vs larger anchor sets.
//   4. Learning threshold T: Sec. IV-B1 claims T in [2,4] balances time
//      and accuracy; this sweep validates that claim empirically.
//
// Every cell runs 5 identical fits (1 under --smoke) and reports the
// median wall time with its min–max spread (identical fits spread up to 2×
// on a shared host); recall and the counters are deterministic and come from the first.
// Fits run on one thread, as perfbench's do: a pool adds spread and, on
// these sizes, no speed.
//
// Flags: --n=50000 (walk) --csv=<path>
//        --smoke (20k walk, 10k blobs, 1 repeat; the CI leg. A 10k walk
//        has no sub-cluster above the 1024 default cap, so it would not
//        test the cap.)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "cluster/dbscan.h"
#include "common/thread_pool.h"
#include "core/dbsvec.h"
#include "data/surrogates.h"
#include "data/synthetic.h"
#include "eval/recall.h"

namespace dbsvec {
namespace {

struct Workload {
  std::string name;
  Dataset data{2};
  double epsilon = 0.0;
  int min_pts = 0;
  Clustering reference;
};

void RunReference(Workload* w) {
  DbscanParams params;
  params.epsilon = w->epsilon;
  params.min_pts = w->min_pts;
  (void)RunDbscan(w->data, params, &w->reference);
}

Workload MakeShapeWorkload() {
  Workload w;
  w.name = "t4.8k";
  SurrogateDataset surrogate;
  (void)MakeSurrogate("t4.8k", &surrogate);
  w.data = std::move(surrogate.data);
  w.epsilon = 8.5;
  w.min_pts = 20;
  RunReference(&w);
  return w;
}

Workload MakeWalkWorkload(PointIndex n) {
  Workload w;
  w.name = "walk-8d";
  RandomWalkParams gen;
  gen.n = n;
  gen.dim = 8;
  gen.num_clusters = 10;
  gen.seed = 43;
  w.data = GenerateRandomWalk(gen);
  w.epsilon = 5000.0;
  w.min_pts = 100;
  RunReference(&w);
  return w;
}

/// bench_budget's noisy blobs (the fit_blobs2d_noisy point set).
Workload MakeBlobsWorkload(PointIndex n) {
  Workload w;
  w.name = "blobs-2d";
  GaussianBlobsParams gen;
  gen.n = n;
  gen.dim = 2;
  gen.num_clusters = 3;
  gen.stddev = 1.0;
  gen.noise_fraction = 0.05;
  gen.seed = 17;
  w.data = GenerateGaussianBlobs(gen);
  w.min_pts = 150;
  w.epsilon = SuggestEpsilon(w.data, w.min_pts);
  RunReference(&w);
  return w;
}

bench::Table MakeTable() {
  return bench::Table({"dataset", "knob", "time_s", "min_s", "max_s",
                       "recall", "capped_solves", "svdd_trainings",
                       "range_queries"});
}

struct CellResult {
  double recall = -1.0;  // -1 when a fit failed
  uint64_t capped_solves = 0;
};

/// Runs `repeats` fits of one cell and adds its row.
CellResult AddRun(bench::Table* table, const Workload& w,
                  const std::string& knob, const DbsvecParams& params,
                  int repeats) {
  Clustering first;
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    Clustering out;
    if (!RunDbsvec(w.data, params, &out).ok()) {
      table->AddRow({w.name, knob, "ERR", "-", "-", "-", "-", "-", "-"});
      return {};
    }
    seconds.push_back(out.stats.elapsed_seconds);
    if (r == 0) {
      first = std::move(out);
    }
  }
  std::sort(seconds.begin(), seconds.end());
  const size_t mid = seconds.size() / 2;
  const double median = seconds.size() % 2 == 1
                            ? seconds[mid]
                            : 0.5 * (seconds[mid - 1] + seconds[mid]);
  const double recall = PairRecall(w.reference.labels, first.labels);
  table->AddRow({w.name, knob, bench::FormatSeconds(median),
                 bench::FormatSeconds(seconds.front()),
                 bench::FormatSeconds(seconds.back()),
                 bench::FormatDouble(recall, 4),
                 std::to_string(first.stats.num_capped_solves),
                 std::to_string(first.stats.num_svdd_trainings),
                 std::to_string(first.stats.num_range_queries)});
  return {recall, first.stats.num_capped_solves};
}

DbsvecParams ParamsFor(const Workload& w) {
  DbsvecParams params;
  params.epsilon = w.epsilon;
  params.min_pts = w.min_pts;
  return params;
}

int Main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const bool smoke = args.GetBool("smoke");
  const PointIndex n =
      static_cast<PointIndex>(args.GetInt("n", smoke ? 20'000 : 50'000));
  const PointIndex blobs_n = smoke ? 10'000 : 100'000;
  const int repeats = smoke ? 1 : 5;
  SetGlobalThreads(1);

  Workload shape = MakeShapeWorkload();
  Workload walk = MakeWalkWorkload(n);
  Workload blobs = MakeBlobsWorkload(blobs_n);
  std::printf("repeats=%d walk n=%d blobs n=%d eps=%.4g\n\n", repeats,
              walk.data.size(), blobs.data.size(), blobs.epsilon);

  bench::Table table = MakeTable();
  std::printf("Design ablation 1: stall recovery (library extension)\n\n");
  for (Workload* w : {&shape, &walk}) {
    for (const bool recovery : {true, false}) {
      DbsvecParams params = ParamsFor(*w);
      params.stall_recovery = recovery;
      AddRun(&table, *w,
             recovery ? "stall_recovery=on" : "stall_recovery=off", params,
             repeats);
    }
  }
  table.Print();
  table.WriteCsv(args.GetString("csv", ""));

  const int default_cap = DbsvecParams{}.max_svdd_target;
  std::printf("\nDesign ablation 2: SVDD target cap (max_svdd_target, "
              "default %d)\n\n",
              default_cap);
  bench::Table cap_table = MakeTable();
  bool gate_ok = true;
  for (const Workload* w : {&walk, &blobs}) {
    CellResult at_default;
    CellResult uncapped;
    for (const int cap : {256, 512, 1024, 2048, 4096, 0}) {
      DbsvecParams params = ParamsFor(*w);
      params.max_svdd_target = cap;
      const CellResult cell = AddRun(
          &cap_table, *w,
          cap == 0 ? "cap=unlimited" : "cap=" + std::to_string(cap), params,
          repeats);
      if (cap == default_cap) at_default = cell;
      if (cap == 0) uncapped = cell;
    }
    if (at_default.capped_solves == 0) {
      std::fprintf(stderr,
                   "FAIL: %s: the default cap %d subsampled no SVDD target "
                   "(or the cap is not in the sweep), so this workload does "
                   "not test it\n",
                   w->name.c_str(), default_cap);
      gate_ok = false;
    }
    if (at_default.recall < 0.0 || at_default.recall < uncapped.recall) {
      std::fprintf(stderr,
                   "FAIL: %s recall at the default cap %d is %.4f, below "
                   "the uncapped %.4f\n",
                   w->name.c_str(), default_cap, at_default.recall,
                   uncapped.recall);
      gate_ok = false;
    }
  }
  cap_table.Print();

  std::printf("\nDesign ablation 3: penalty-weight anchor count "
              "(Eq. 5 estimate)\n\n");
  bench::Table anchor_table = MakeTable();
  for (const int anchors : {32, 128, 256, 1024}) {
    DbsvecParams params = ParamsFor(walk);
    params.penalty_anchor_count = anchors;
    AddRun(&anchor_table, walk, "anchors=" + std::to_string(anchors), params,
           repeats);
  }
  anchor_table.Print();

  std::printf("\nDesign ablation 4: learning threshold T "
              "(paper: T in [2,4] is the sweet spot)\n\n");
  bench::Table t_table = MakeTable();
  for (const int threshold : {0, 1, 2, 3, 4, 6}) {
    DbsvecParams params = ParamsFor(walk);
    params.learning_threshold = threshold;
    AddRun(&t_table, walk, "T=" + std::to_string(threshold), params,
           repeats);
  }
  t_table.Print();
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace dbsvec

int main(int argc, char** argv) { return dbsvec::Main(argc, argv); }
