// Reproduces Fig. 9 of the paper: the effect of the three SVDD
// improvements.
//
//   Fig. 9a (--mode=recall): recall of DBSVEC\WF (no adaptive penalty
//   weights), DBSVEC\IL (no incremental learning) and full DBSVEC on the
//   Table III datasets. Paper: adaptive weights lift recall by 3-8 points;
//   incremental learning barely affects it.
//
//   Fig. 9b (--mode=efficiency): running time of DBSVEC, DBSVEC\IL and
//   DBSVEC\OK (random kernel width instead of sigma = r/sqrt(2)) on the
//   8-d synthetic dataset across an eps sweep, all three uncapped
//   (max_svdd_target = 0). Paper: both incremental learning and the
//   kernel-width selection speed DBSVEC up.
//
// Flags: --mode=recall|efficiency|both --n=20000 --minpts=100
//        --eps_list=5000,15000,25000,35000 --csv=<path>

#include <cstdio>
#include <sstream>

#include "bench_util.h"
#include "cluster/dbscan.h"
#include "core/dbsvec.h"
#include "data/surrogates.h"
#include "data/synthetic.h"
#include "eval/recall.h"

namespace dbsvec {
namespace {

void RecallAblation(const bench::Args& args) {
  std::printf("Fig. 9a reproduction: recall of DBSVEC variants on the "
              "accuracy datasets\n\n");
  bench::Table table(
      {"dataset", "DBSVEC\\WF", "DBSVEC\\IL", "DBSVEC (full)"});
  for (const std::string& name : AccuracySurrogateNames()) {
    SurrogateDataset surrogate;
    if (!MakeSurrogate(name, &surrogate).ok()) {
      continue;
    }
    const Dataset& data = surrogate.data;
    DbscanParams dbscan_params;
    dbscan_params.epsilon = surrogate.epsilon;
    dbscan_params.min_pts = surrogate.min_pts;
    Clustering reference;
    if (!RunDbscan(data, dbscan_params, &reference).ok()) {
      continue;
    }
    auto run_variant = [&](bool weights, bool incremental) {
      DbsvecParams params;
      params.epsilon = surrogate.epsilon;
      params.min_pts = surrogate.min_pts;
      params.adaptive_weights = weights;
      params.incremental_learning = incremental;
      Clustering out;
      if (!RunDbsvec(data, params, &out).ok()) {
        return std::string("ERR");
      }
      return bench::FormatDouble(PairRecall(reference.labels, out.labels));
    };
    table.AddRow({name, run_variant(false, true), run_variant(true, false),
                  run_variant(true, true)});
  }
  table.Print();
  const std::string csv = args.GetString("csv", "");
  if (!csv.empty()) {
    table.WriteCsv(csv + ".recall.csv");
  }
  std::printf(
      "\nExpected shape (Fig. 9a): full DBSVEC >= DBSVEC\\WF on every\n"
      "dataset; DBSVEC\\IL tracks full DBSVEC closely.\n\n");
}

void EfficiencyAblation(const bench::Args& args) {
  // The incremental-learning gain is a large-sub-cluster effect: at small
  // n, re-training on whole sub-clusters is cheap and \IL wins. Run
  // uncapped, \IL still wins at the default 100k (EXPERIMENTS.md, Fig. 9b);
  // the paper measures at n=2M.
  const PointIndex n = static_cast<PointIndex>(args.GetInt("n", 100000));
  const int min_pts = static_cast<int>(args.GetInt("minpts", 100));
  std::vector<double> eps_list;
  std::stringstream ss(args.GetString("eps_list", "5000,15000,25000,35000"));
  std::string token;
  while (std::getline(ss, token, ',')) {
    eps_list.push_back(std::atof(token.c_str()));
  }

  RandomWalkParams gen;
  gen.n = n;
  gen.dim = 8;
  gen.num_clusters = 10;
  gen.seed = 41;
  const Dataset data = GenerateRandomWalk(gen);

  std::printf("Fig. 9b reproduction: running time (s) of DBSVEC variants "
              "(n=%d, d=8, MinPts=%d)\n\n",
              n, min_pts);
  std::vector<std::string> header = {"algorithm"};
  for (const double eps : eps_list) {
    header.push_back("eps=" + std::to_string(static_cast<int64_t>(eps)));
  }
  bench::Table table(header);

  struct Variant {
    const char* name;
    bool incremental;
    bool auto_sigma;
  };
  const Variant variants[] = {
      {"DBSVEC", true, true},
      {"DBSVEC\\IL", false, true},
      {"DBSVEC\\OK", true, false},
  };
  for (const Variant& variant : variants) {
    std::vector<std::string> row = {variant.name};
    for (const double eps : eps_list) {
      DbsvecParams params;
      params.epsilon = eps;
      params.min_pts = min_pts;
      params.incremental_learning = variant.incremental;
      params.auto_sigma = variant.auto_sigma;
      // Every variant runs uncapped, as the paper's algorithm has no
      // target cap: the \IL variant trains on the *entire* sub-cluster
      // each round, and capping only the other two would credit the
      // library's subsample to incremental learning.
      params.max_svdd_target = 0;
      Clustering out;
      if (RunDbsvec(data, params, &out).ok()) {
        row.push_back(bench::FormatSeconds(out.stats.elapsed_seconds));
      } else {
        row.push_back("ERR");
      }
    }
    table.AddRow(row);
  }
  table.Print();
  const std::string csv = args.GetString("csv", "");
  if (!csv.empty()) {
    table.WriteCsv(csv + ".efficiency.csv");
  }
  std::printf(
      "\nExpected shape (Fig. 9b): full DBSVEC is the fastest variant;\n"
      "dropping incremental learning or the kernel-width selection\n"
      "strategy costs time.\n");
}

int Main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const std::string mode = args.GetString("mode", "both");
  if (mode == "recall" || mode == "both") {
    RecallAblation(args);
  }
  if (mode == "efficiency" || mode == "both") {
    EfficiencyAblation(args);
  }
  return 0;
}

}  // namespace
}  // namespace dbsvec

int main(int argc, char** argv) { return dbsvec::Main(argc, argv); }
