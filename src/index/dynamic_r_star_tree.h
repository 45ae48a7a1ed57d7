#ifndef DBSVEC_INDEX_DYNAMIC_R_STAR_TREE_H_
#define DBSVEC_INDEX_DYNAMIC_R_STAR_TREE_H_

#include <span>
#include <vector>

#include "index/neighbor_index.h"
#include "simd/soa_block.h"

namespace dbsvec {

/// Dynamic R*-tree [Beckmann et al. 1990] over a Dataset, built by
/// one-at-a-time insertion with the full R* machinery:
///
///  * ChooseSubtree — minimum overlap enlargement at the leaf level,
///    minimum area enlargement above it;
///  * forced reinsertion — on the first overflow per level of an
///    insertion, the 30% of entries farthest from the node center are
///    removed and reinserted;
///  * R* split — axis chosen by minimum margin sum over candidate
///    distributions, split index by minimum overlap (area as tie-break).
///
/// The STR-packed `RStarTree` is the right choice for the static datasets
/// of the paper's experiments; this class provides the incremental
/// behaviour of the R-DBSCAN baseline's "in-memory R-tree" for workloads
/// that grow, and serves as a cross-check of the packed tree (both must
/// answer every range query identically).
class DynamicRStarTree final : public NeighborIndex {
 public:
  /// Indexes all current points of `dataset` via repeated Insert.
  explicit DynamicRStarTree(const Dataset& dataset);

  /// Inserts dataset point `i` (useful after Dataset::Append — the tree
  /// does not observe appends by itself). Needs exclusive access: no query
  /// may run concurrently with an insert.
  void Insert(PointIndex i);

  void RangeQuery(std::span<const double> query, double epsilon,
                  std::vector<PointIndex>* out) const override;

  /// Tree height (0 for an empty tree); exposed for invariant tests.
  int height() const { return height_; }
  /// Number of indexed points; exposed for invariant tests.
  PointIndex size() const { return count_; }
  /// Validates the structural invariants (MBR containment, fill factors);
  /// returns false and stops at the first violation. Test hook.
  bool CheckInvariants() const;

 private:
  static constexpr int kMaxEntries = 16;
  static constexpr int kMinEntries = 6;          // ~40% of max.
  static constexpr int kReinsertCount = 5;       // ~30% of max.

  struct Node {
    bool is_leaf = true;
    std::vector<int32_t> children;   // Node ids (internal) or points (leaf).
    std::vector<double> mbr_min;
    std::vector<double> mbr_max;
    int32_t parent = -1;
    // SoA page over the leaf's points (leaf nodes only), scanned by the
    // batched SIMD distance kernels. Rebuilt *eagerly* at the end of every
    // Insert for the leaves whose children changed — RangeQuery stays
    // const and safe under concurrent readers (the serving overlay tree is
    // queried under a shared lock), which a lazy build-on-scan could not be.
    simd::SoaBlockView soa;
    bool soa_dirty = false;
  };

  int32_t NewNode(bool is_leaf);
  void RecomputeMbr(int32_t node_id);
  void ExtendMbr(int32_t node_id, std::span<const double> lo,
                 std::span<const double> hi);
  void EntryBox(const Node& node, int entry, std::vector<double>* lo,
                std::vector<double>* hi) const;
  double Area(std::span<const double> lo, std::span<const double> hi) const;
  double Margin(std::span<const double> lo,
                std::span<const double> hi) const;
  double Overlap(std::span<const double> a_lo, std::span<const double> a_hi,
                 std::span<const double> b_lo,
                 std::span<const double> b_hi) const;
  double Enlargement(std::span<const double> lo, std::span<const double> hi,
                     std::span<const double> p) const;

  int32_t ChooseSubtree(std::span<const double> p, int target_level) const;
  int NodeLevel(int32_t node_id) const;
  void InsertEntry(int32_t entry, std::span<const double> lo,
                   std::span<const double> hi, int target_level,
                   std::vector<bool>* reinserted_levels);
  void HandleOverflow(int32_t node_id,
                      std::vector<bool>* reinserted_levels);
  void ReinsertEntries(int32_t node_id,
                       std::vector<bool>* reinserted_levels);
  void SplitNode(int32_t node_id, std::vector<bool>* reinserted_levels);
  void PropagateMbrUp(int32_t node_id);

  /// Queues `node_id` for a page rebuild (no-op if already queued).
  void MarkLeafDirty(int32_t node_id);
  /// Rebuilds the SoA page of every queued leaf; called at the end of each
  /// Insert, so between inserts no leaf page is ever stale.
  void RefreshLeafPages();

  std::vector<Node> nodes_;
  std::vector<int32_t> dirty_leaves_;
  int32_t root_ = -1;
  int height_ = 0;
  PointIndex count_ = 0;
};

}  // namespace dbsvec

#endif  // DBSVEC_INDEX_DYNAMIC_R_STAR_TREE_H_
