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
///
/// Storage is flat: each family of lists (the column patterns and their
/// block indices, the row patterns, each of the four tree families) is one
/// items array cut by an offsets array. The patterns are filled by one
/// pass that counts every list and one that writes it, the member lists
/// by one pass that stamps each grid rank it has listed. Two dense maps
/// from supernode id to row and to column position make the build's row
/// filter and View::target_pos/source_pos O(1); they cost
/// 2 x num_supernodes() indices per plan, whatever the plan's size.

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
  /// One list of supernode ids per position, stored back to back: list j
  /// is ids[start[j], start[j + 1]), and block_index[q] is the entry of the
  /// block ids[q] in lu.sym.below of the panel that stores it.
  struct Pattern {
    std::vector<Idx> start;
    std::vector<Idx> ids;
    std::vector<Idx> block_index;
  };
  /// One tree member list per position, stored back to back like Pattern.
  struct Members {
    std::vector<Idx> start;
    std::vector<int> ranks;
  };

 public:
  /// Builds a plan. `cols` must be sorted ascending and unique;
  /// `extra_rows` lists further block rows whose partial sums the solve
  /// tracks, in any order. Blocks in any other row are dropped from the
  /// patterns. Throws std::invalid_argument for unsorted `cols` or a
  /// supernode id outside [0, lu.num_supernodes()).
  /// Without `index_ranks` the plan has no roles(). gpusim's model walks
  /// the plan by supernode and needs none: the role index would add ~5 ms
  /// to the benchmark's ~50 ms gpu-3d pass, about 10% (4-vCPU Xeon VM).
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

  /// The plan's lists bound by their role in one triangle's solve. This is
  /// the one place the L/U mirror is written down: the L-solve reduces into
  /// rows and broadcasts columns, the U-solve reduces into columns and
  /// broadcasts rows, seeded with the external rows' solutions. Per-target
  /// lists are indexed by position into targets(), per-source lists by
  /// position into sources(). A View is two words because every rank's
  /// solve keeps one on its fiber stack: a View of 15 spans raised the
  /// repo benchmark's cpu-strong-2d peak RSS by ~7 MB (2,048 ranks).
  class View {
   public:
    /// Reduced, then solved or handed back as partial sums, ascending.
    std::span<const Idx> targets() const { return lower_ ? p_->rows_ : p_->cols_; }
    /// Solved, then broadcast to the ranks holding their blocks, ascending.
    std::span<const Idx> sources() const { return lower_ ? p_->cols_ : p_->rows_; }
    /// Sources whose solution is an input: broadcast, never solved.
    std::span<const Idx> seeded_sources() const {
      return lower_ ? std::span<const Idx>() : p_->external_rows_;
    }
    /// Supernodes holding a tracked block in target `tp`'s block row (L) or
    /// block column (U), ascending. Aligned block_index(tp) gives each
    /// block's entry in lu.sym.below of the panel that stores it.
    std::span<const Idx> contributors(Idx tp) const {
      return list(target_pattern().start, target_pattern().ids, tp);
    }
    std::span<const Idx> block_index(Idx tp) const {
      return list(target_pattern().start, target_pattern().block_index, tp);
    }
    /// The targets whose partial sums source `sp`'s blocks update.
    std::span<const Idx> dependents(Idx sp) const {
      const Pattern& p = lower_ ? p_->below_ : p_->row_pattern_;
      return list(p.start, p.ids, sp);
    }
    /// Reduction (per target) and broadcast (per source) tree member lists
    /// of §3.3: root first, remaining members ascending (see TreeView).
    std::span<const int> reduce_members(Idx tp) const {
      const Members& m = lower_ ? p_->l_reduce_ : p_->u_reduce_;
      return list(m.start, m.ranks, tp);
    }
    std::span<const int> bcast_members(Idx sp) const {
      const Members& m = lower_ ? p_->l_bcast_ : p_->u_bcast_;
      return list(m.start, m.ranks, sp);
    }
    TreeView reduce(Idx tp) const { return {reduce_members(tp), p_->kind_}; }
    TreeView bcast(Idx sp) const { return {bcast_members(sp), p_->kind_}; }
    /// Position of supernode `s` in targets()/sources(); kNoIdx if absent.
    Idx target_pos(Idx s) const {
      return position(lower_ ? p_->row_pos_ : p_->col_pos_, s);
    }
    Idx source_pos(Idx s) const {
      return position(lower_ ? p_->col_pos_ : p_->row_pos_, s);
    }

   private:
    friend class Solve2dPlan;
    View(const Solve2dPlan& plan, Triangle tri)
        : p_(&plan), lower_(tri == Triangle::kLower) {}

    const Pattern& target_pattern() const {
      return lower_ ? p_->row_pattern_ : p_->below_;
    }
    static Idx position(const std::vector<Idx>& by_id, Idx s) {
      return s >= 0 && static_cast<size_t>(s) < by_id.size()
                 ? by_id[static_cast<size_t>(s)]
                 : kNoIdx;
    }

    const Solve2dPlan* p_;
    bool lower_;
  };

  /// Binds the plan's lists to the roles of `tri`'s solve.
  View view(Triangle tri) const { return View(*this, tri); }

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
      return list(target_start, targets, rank);
    }
    std::span<const Idx> pending_of(int rank) const {
      return list(target_start, pending, rank);
    }
    std::span<const Idx> children_of(int rank) const {
      return list(target_start, children, rank);
    }
    std::span<const Idx> sources_of(int rank) const {
      return list(source_start, sources, rank);
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
  /// List j of lists stored back to back: items[start[j], start[j + 1]).
  template <class T>
  static std::span<const T> list(const std::vector<Idx>& start,
                                 const std::vector<T>& items, Idx j) {
    const auto b = static_cast<size_t>(start[static_cast<size_t>(j)]);
    const auto e = static_cast<size_t>(start[static_cast<size_t>(j) + 1]);
    return std::span<const T>(items).subspan(b, e - b);
  }

  const SupernodalLU* lu_ = nullptr;
  Grid2dShape shape_;
  TreeKind kind_ = TreeKind::kBinary;
  std::vector<Idx> cols_;
  std::vector<Idx> rows_;
  std::vector<Idx> external_rows_;
  std::vector<Idx> col_pos_;  // by supernode id: position in cols_, or kNoIdx
  std::vector<Idx> row_pos_;  // by supernode id: position in rows_, or kNoIdx
  // Per column position: its pattern filtered to rows(). Per row position:
  // the columns whose pattern holds it. view() binds these by role.
  Pattern below_;
  Pattern row_pattern_;
  Members l_bcast_;   // per column
  Members u_reduce_;  // per column
  Members l_reduce_;  // per row
  Members u_bcast_;   // per row
  std::vector<Roles> roles_;  // by Triangle; empty unless indexed
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
