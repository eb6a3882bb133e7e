#pragma once
/// \file nested_dissection.hpp
/// \brief Nested-dissection fill-reducing ordering with a tracked binary
/// separator tree, replacing the paper's METIS dependency.
///
/// The 3D SpTRSV layout (§2.2 of the paper) requires the top `log2(Pz)`
/// levels of the elimination tree to form a binary subtree whose leaves can
/// be mapped one-to-one onto the `Pz` 2D grids. Our orderer produces exactly
/// that interface: a recursive graph bisection where the top `levels` splits
/// are recorded as an `NdTree` (paper Fig 1(a)); recursion continues below
/// the tracked leaves purely for fill reduction.

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/graph.hpp"
#include "sparse/types.hpp"

namespace sptrsv {

/// One node of the tracked separator tree. Nodes use the paper's BFS
/// numbering: root is 0, children of node i are 2i+1 and 2i+2, and the
/// 2^levels leaves are the last block of ids.
struct NdNode {
  Idx parent = kNoIdx;
  Idx left = kNoIdx;   ///< kNoIdx for leaves
  Idx right = kNoIdx;  ///< kNoIdx for leaves
  int depth = 0;       ///< root = 0
  /// Column range [col_begin, col_end) of this node in the ND-permuted
  /// matrix. For internal nodes this is the separator; for leaves it is the
  /// whole remaining subdomain.
  Idx col_begin = 0;
  Idx col_end = 0;
};

/// Tracked binary separator tree: the top `levels()` splits of the ND
/// recursion. Leaves correspond one-to-one to the paper's 2D grids.
class NdTree {
 public:
  NdTree() = default;
  NdTree(int levels, std::vector<NdNode> nodes);

  int levels() const { return levels_; }
  Idx num_nodes() const { return static_cast<Idx>(nodes_.size()); }
  Idx num_leaves() const { return Idx{1} << levels_; }
  const NdNode& node(Idx id) const { return nodes_[static_cast<size_t>(id)]; }

  /// Node id of the `leaf`-th leaf (left to right), 0 <= leaf < num_leaves().
  Idx leaf_node_id(Idx leaf) const { return (Idx{1} << levels_) - 1 + leaf; }

  /// Path from `id` to the root, inclusive on both ends.
  std::vector<Idx> path_to_root(Idx id) const;

  /// Range of leaves [first, last) descending from node `id` — i.e. the
  /// replication group of 2D grids that share this node in the 3D layout.
  std::pair<Idx, Idx> leaf_range(Idx id) const;

  /// The tracked node whose column range contains column `c`, or kNoIdx if
  /// the tree is empty.
  Idx node_of_column(Idx c) const;

  /// Validates the structural invariants (ranges partition [0,n), children
  /// precede parents in column order, BFS numbering consistent).
  bool check_invariants(Idx n) const;

 private:
  int levels_ = 0;
  std::vector<NdNode> nodes_;
};

/// Options for the ND orderer.
struct NdOptions {
  /// Number of tracked binary levels; the tree has 2^levels leaves. This
  /// must be >= log2(Pz) of any 3D grid the ordering will be used with.
  int levels = 3;
  /// Stop the (untracked) fill-reduction recursion when a part has at most
  /// this many vertices.
  Idx min_partition = 24;
  /// Balance slack for the bisection level cut (0.5 = perfectly balanced).
  Real balance = 0.5;
};

/// Result of the ordering.
struct NdOrdering {
  /// Permutation, new index -> old index.
  std::vector<Idx> perm;
  /// Tracked binary separator tree over the permuted index space.
  NdTree tree;
};

/// Computes a nested-dissection ordering of `g` with a tracked binary top
/// tree of `opt.levels` levels. Works on arbitrary (possibly disconnected)
/// graphs; empty parts yield empty leaf ranges, which downstream layers
/// accept.
NdOrdering nested_dissection(const Graph& g, const NdOptions& opt = {});

/// Convenience: symmetrizes the pattern of `a` and orders its graph.
NdOrdering nested_dissection(const CsrMatrix& a, const NdOptions& opt = {});

/// A single graph bisection (exposed for tests): labels each vertex
/// 0 (part A), 1 (part B) or 2 (separator). Guarantees no A-B edges.
std::vector<std::uint8_t> bisect_graph(const Graph& g, Real balance = 0.5);

/// Coarsens a tracked tree to `levels` levels (levels <= tree.levels()):
/// nodes above the cut are copied verbatim (BFS ids preserved); each
/// depth-`levels` node becomes a leaf whose column range covers its whole
/// original subtree. Used to run a Pz-grid solve on a factor whose tracked
/// tree is deeper than log2(Pz).
NdTree coarsen_nd_tree(const NdTree& tree, int levels);

}  // namespace sptrsv
