#include "index/lsh_index.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace dbsvec {

LshIndex::LshIndex(const Dataset& dataset, double epsilon_hint,
                   const LshParams& params)
    : NeighborIndex(dataset),
      bucket_width_(params.bucket_width_factor * epsilon_hint) {
  Rng rng(params.seed);
  const int dim = dataset.dim();
  tables_.resize(params.num_tables);
  for (Table& table : tables_) {
    table.directions.resize(params.num_projections);
    table.offsets.resize(params.num_projections);
    for (int p = 0; p < params.num_projections; ++p) {
      table.directions[p].resize(dim);
      for (int j = 0; j < dim; ++j) {
        table.directions[p][j] = rng.NextGaussian();
      }
      table.offsets[p] = rng.Uniform(0.0, bucket_width_);
    }
    for (PointIndex i = 0; i < dataset.size(); ++i) {
      table.buckets[HashKey(table, dataset.point(i))].push_back(i);
    }
  }
}

std::vector<int32_t> LshIndex::HashKey(const Table& table,
                                       std::span<const double> p) const {
  std::vector<int32_t> key(table.directions.size());
  for (size_t h = 0; h < table.directions.size(); ++h) {
    double dot = table.offsets[h];
    const std::vector<double>& a = table.directions[h];
    for (size_t j = 0; j < p.size(); ++j) {
      dot += a[j] * p[j];
    }
    key[h] = static_cast<int32_t>(std::floor(dot / bucket_width_));
  }
  return key;
}

void LshIndex::RangeQuery(std::span<const double> query, double epsilon,
                          std::vector<PointIndex>* out) const {
  out->clear();
  CountRangeQuery();
  // Gather the query's colliding bucket entries from every table, then
  // dedupe them (a point may collide in several tables). The candidate list
  // is per call, so concurrent queries share no mutable state.
  std::vector<PointIndex> candidates;
  for (const Table& table : tables_) {
    const auto it = table.buckets.find(HashKey(table, query));
    if (it != table.buckets.end()) {
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  CountDistanceComputations(candidates.size());
  const double eps_sq = epsilon * epsilon;
  for (const PointIndex i : candidates) {
    if (dataset_.SquaredDistanceTo(i, query) <= eps_sq) {
      out->push_back(i);
    }
  }
}

}  // namespace dbsvec
