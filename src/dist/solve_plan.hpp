#pragma once
/// \file solve_plan.hpp
/// \brief Precomputed structure for one distributed 2D triangular solve.
///
/// A plan fixes the scope of a 2D solve on one grid: the set `cols` of
/// supernodes whose diagonal is solved (the paper's per-node submatrix for
/// the baseline algorithm, or the whole L^z/U^z of Fig 1(c) for the
/// proposed algorithm) and the set `rows` of supernodes whose partial sums
/// are tracked (cols plus replicated ancestors). From the global symbolic
/// structure it derives, per supernode, the filtered block patterns and the
/// four communication-tree member lists of §3.3 (L broadcast/reduction, U
/// broadcast/reduction). The U-solve is the L-solve with block rows and
/// block columns swapped; `view(Triangle)` binds the arrays to their roles
/// for one triangle, so the solvers are written once for both. Plans are
/// built once per grid and shared read-only by the grid's ranks — exactly
/// the setup precomputation the paper performs on the CPU before the solve.
/// A plan for the runtime's solvers also indexes each grid rank's roles
/// (Roles), so no rank scans every target and source to find its own.

#include <span>
#include <vector>

#include "dist/layout.hpp"
#include "dist/tree_view.hpp"
#include "factor/supernodal_lu.hpp"
#include "ordering/nested_dissection.hpp"

namespace sptrsv {

/// Which triangular factor a 2D solve runs over.
enum class Triangle { kLower, kUpper };

class Solve2dPlan {
 public:
  /// Builds a plan. `cols` must be sorted ascending; `rows` must be sorted
  /// ascending and contain every block row of every column's (filtered)
  /// pattern that the solve should track. Rows of `cols` are implicitly
  /// tracked and need not be listed separately.
  /// Without `index_ranks` the plan has no roles(): gpusim's model walks
  /// the plan by supernode and rebuilds its plans on every simulation.
  static Solve2dPlan build(const SupernodalLU& lu, Grid2dShape shape, TreeKind kind,
                           std::vector<Idx> cols, std::vector<Idx> extra_rows,
                           bool index_ranks = true);

  const SupernodalLU& lu() const { return *lu_; }
  const Grid2dShape& shape() const { return shape_; }
  TreeKind kind() const { return kind_; }

  /// Supernodes solved here, ascending.
  std::span<const Idx> cols() const { return cols_; }
  /// All tracked rows (cols plus external targets), ascending.
  std::span<const Idx> rows() const { return rows_; }
  /// Rows that are tracked but not solved (partial sums handed back).
  std::span<const Idx> external_rows() const { return external_rows_; }

  Idx num_cols() const { return static_cast<Idx>(cols_.size()); }
  Idx num_rows() const { return static_cast<Idx>(rows_.size()); }

  /// The plan's arrays bound by their role in one triangle's solve; see
  /// view(). Per-target lists are indexed by position into `targets`,
  /// per-source lists by position into `sources`.
  struct View {
    /// Reduced, then solved or handed back as partial sums, ascending.
    std::span<const Idx> targets;
    /// Solved, then broadcast to the ranks holding their blocks, ascending.
    std::span<const Idx> sources;
    /// Sources whose solution is an input: broadcast, never solved.
    std::span<const Idx> seeded_sources;
    /// Per target: supernodes holding a tracked block in the target's block
    /// row (L) or block column (U), ascending. Aligned `block_index` gives
    /// each block's entry in lu.sym.below of the panel that stores it.
    std::span<const std::vector<Idx>> contributors;
    std::span<const std::vector<Idx>> block_index;
    /// Per source: the targets whose partial sums its blocks update.
    std::span<const std::vector<Idx>> dependents;
    /// Reduction (per target) and broadcast (per source) tree member lists
    /// of §3.3: root first, remaining members ascending (see TreeView).
    std::span<const std::vector<int>> reduce_members;
    std::span<const std::vector<int>> bcast_members;
    TreeKind kind = TreeKind::kBinary;

    /// Position of supernode `s` in targets/sources; kNoIdx if absent.
    Idx target_pos(Idx s) const;
    Idx source_pos(Idx s) const;
    TreeView reduce(Idx tp) const {
      return {reduce_members[static_cast<size_t>(tp)], kind};
    }
    TreeView bcast(Idx sp) const {
      return {bcast_members[static_cast<size_t>(sp)], kind};
    }
  };

  /// Binds the plan's arrays to the roles of `tri`'s solve. This is the one
  /// place the L/U mirror is written down: the L-solve reduces into rows
  /// and broadcasts columns, the U-solve reduces into columns and
  /// broadcasts rows, seeded with the external rows' solutions.
  View view(Triangle tri) const;

  /// Every grid rank's part in one triangle's solve, derived from view()
  /// once per plan. Per-rank lists are flat arrays cut by `*_start`
  /// offsets (grid size + 1 entries); each list is ascending.
  struct Roles {
    /// Target positions whose reduction tree holds the rank, with each
    /// one's initial pending count (the rank's local blocks of the target
    /// plus its children in the tree) and its children alone.
    std::vector<Idx> target_start;
    std::vector<Idx> targets;
    std::vector<Idx> pending;
    std::vector<Idx> children;
    /// Source positions whose broadcast tree holds the rank, as root or
    /// receiver: the solutions it relays and caches.
    std::vector<Idx> source_start;
    std::vector<Idx> sources;
    /// Per rank: messages its solve receives (partial sums from its
    /// reduction children, solutions from its broadcast parents).
    std::vector<Idx> receives;
    /// Per rank: diagonal solves it roots.
    std::vector<Idx> diag_solves;

    std::span<const Idx> targets_of(int rank) const {
      return cut(targets, target_start, rank);
    }
    std::span<const Idx> pending_of(int rank) const {
      return cut(pending, target_start, rank);
    }
    std::span<const Idx> children_of(int rank) const {
      return cut(children, target_start, rank);
    }
    std::span<const Idx> sources_of(int rank) const {
      return cut(sources, source_start, rank);
    }

   private:
    static std::span<const Idx> cut(const std::vector<Idx>& v,
                                    const std::vector<Idx>& start, int rank) {
      const auto r = static_cast<size_t>(rank);
      return std::span<const Idx>(v).subspan(
          static_cast<size_t>(start[r]), static_cast<size_t>(start[r + 1] - start[r]));
    }
  };

  /// The rank roles of `tri`'s solve. Throws std::logic_error for a plan
  /// built without `index_ranks`.
  const Roles& roles(Triangle tri) const;

  /// Flop count of one GEMV/GEMM with block (I,K) of width-of-I rows.
  double block_flops(Idx i, Idx k, Idx nrhs) const {
    return 2.0 * lu_->sym.part.width(i) * lu_->sym.part.width(k) * nrhs;
  }
  /// Flop count of applying a diagonal inverse of K.
  double diag_flops(Idx k, Idx nrhs) const {
    const double w = lu_->sym.part.width(k);
    return 2.0 * w * w * nrhs;
  }

 private:
  const SupernodalLU* lu_ = nullptr;
  Grid2dShape shape_;
  TreeKind kind_ = TreeKind::kBinary;
  std::vector<Idx> cols_;
  std::vector<Idx> rows_;
  std::vector<Idx> external_rows_;
  // Per column position: its pattern filtered to rows(), with each entry's
  // index in lu.sym.below[K]. Per row position: the columns whose pattern
  // holds it, with the same index. view() binds these by role.
  std::vector<std::vector<Idx>> below_;
  std::vector<std::vector<Idx>> below_index_;
  std::vector<std::vector<Idx>> row_pattern_;
  std::vector<std::vector<Idx>> row_pattern_index_;
  std::vector<std::vector<int>> l_bcast_;   // per column
  std::vector<std::vector<int>> u_reduce_;  // per column
  std::vector<std::vector<int>> l_reduce_;  // per row
  std::vector<std::vector<int>> u_bcast_;   // per row
  std::vector<Roles> roles_;                // by Triangle; empty unless indexed
};

/// Supernode id range [first, last) of a tracked tree node's columns.
/// Requires the supernode partition to respect node boundaries (which
/// `analyze_and_factor` guarantees via forced breaks).
std::pair<Idx, Idx> node_supernode_range(const SymbolicStructure& sym, const NdTree& tree,
                                         Idx node);

/// Plan for the proposed algorithm's whole-grid solve on leaf z: cols =
/// rows = supernodes of the leaf and all its ancestors (Fig 1(c)).
Solve2dPlan make_grid_plan(const SupernodalLU& lu, const NdTree& tree, Idx leaf,
                           Grid2dShape shape, TreeKind kind, bool index_ranks = true);

/// Plan for one node of the baseline algorithm: cols = the node's
/// supernodes, external rows = all its ancestors' supernodes.
Solve2dPlan make_node_plan(const SupernodalLU& lu, const NdTree& tree, Idx node,
                           Grid2dShape shape, TreeKind kind);

}  // namespace sptrsv
