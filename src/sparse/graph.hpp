#pragma once
/// \file graph.hpp
/// \brief Undirected adjacency graph extracted from a sparse matrix pattern.
///
/// The nested-dissection orderer works on this representation. Vertices are
/// 0..n-1; edges are the off-diagonal entries of the (symmetrized) pattern.

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace sptrsv {

/// CSR-style adjacency structure (no values, no self-loops).
class Graph {
 public:
  Graph() = default;

  /// Extracts the adjacency graph of `m`'s off-diagonal pattern. The matrix
  /// pattern must be symmetric (callers symmetrize first if needed).
  static Graph from_matrix(const CsrMatrix& m);

  /// Builds from raw adjacency arrays.
  static Graph from_raw(Idx n, std::vector<Nnz> xadj, std::vector<Idx> adj);

  Idx num_vertices() const { return n_; }
  Nnz num_edges() const { return static_cast<Nnz>(adj_.size()) / 2; }

  std::span<const Idx> neighbors(Idx v) const {
    return {adj_.data() + xadj_[v], static_cast<size_t>(xadj_[v + 1] - xadj_[v])};
  }
  Idx degree(Idx v) const { return static_cast<Idx>(xadj_[v + 1] - xadj_[v]); }

  /// Induced subgraph on `vertices`; also returns the local->global map
  /// (which is just `vertices`) implicitly — callers keep their own copy.
  Graph induced_subgraph(std::span<const Idx> vertices) const;

  /// The same, with a caller-owned global->local map of num_vertices()
  /// entries that must be all kNoIdx on entry and is all kNoIdx again on
  /// return. Only the entries of `vertices` are written, so a caller that
  /// takes many small subgraphs (nested dissection) pays for their sizes,
  /// not for n per call.
  Graph induced_subgraph(std::span<const Idx> vertices, std::span<Idx> local) const;

  /// Number of connected components.
  Idx num_components() const;

 private:
  Idx n_ = 0;
  std::vector<Nnz> xadj_;
  std::vector<Idx> adj_;
};

}  // namespace sptrsv
