#ifndef DBSVEC_INDEX_LSH_INDEX_H_
#define DBSVEC_INDEX_LSH_INDEX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "index/neighbor_index.h"

namespace dbsvec {

/// Parameters for the p-stable LSH index.
struct LshParams {
  /// Number of hash tables; the paper's DBSCAN-LSH baseline uses eight
  /// p-stable hashing functions [11].
  int num_tables = 8;
  /// Projections concatenated per table (k of Datar et al.). Two
  /// projections reproduce the accuracy profile the paper reports for
  /// DBSCAN-LSH (near-perfect on compact high-d clusters, clearly lossy
  /// on thin 2-D structures like the map and chameleon datasets).
  int num_projections = 2;
  /// Bucket width as a multiple of the query radius epsilon.
  double bucket_width_factor = 1.0;
  /// RNG seed for the random projections.
  uint64_t seed = 0x5f3759df;
};

/// Locality-sensitive hashing index with 2-stable (Gaussian) projections
/// [Datar et al. 2004]: h(x) = floor((a·x + b) / w). Range queries return
/// the *verified subset* of true neighbors that collide with the query in
/// at least one table — i.e., results are approximate (may miss neighbors)
/// but never contain false positives. This is the substrate of the
/// DBSCAN-LSH baseline [Li, Heinis, Luk 2016].
class LshIndex final : public NeighborIndex {
 public:
  /// `epsilon_hint` fixes the bucket width w = bucket_width_factor * eps.
  LshIndex(const Dataset& dataset, double epsilon_hint,
           const LshParams& params = LshParams());

  void RangeQuery(std::span<const double> query, double epsilon,
                  std::vector<PointIndex>* out) const override;

  /// Number of hash tables in use.
  int num_tables() const { return static_cast<int>(tables_.size()); }

 private:
  struct KeyHash {
    size_t operator()(const std::vector<int32_t>& key) const {
      uint64_t h = 0x2545f4914f6cdd1dULL;
      for (const int32_t c : key) {
        h ^= static_cast<uint64_t>(static_cast<uint32_t>(c)) +
             0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return static_cast<size_t>(h);
    }
  };

  struct Table {
    // num_projections rows of (a vector, b offset).
    std::vector<std::vector<double>> directions;
    std::vector<double> offsets;
    std::unordered_map<std::vector<int32_t>, std::vector<PointIndex>, KeyHash>
        buckets;
  };

  std::vector<int32_t> HashKey(const Table& table,
                               std::span<const double> p) const;

  double bucket_width_;
  std::vector<Table> tables_;
};

}  // namespace dbsvec

#endif  // DBSVEC_INDEX_LSH_INDEX_H_
