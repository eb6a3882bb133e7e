#pragma once
/// \file etree.hpp
/// \brief Elimination tree utilities for symmetric-pattern matrices.

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace sptrsv {

/// Computes the elimination tree of a symmetric-pattern matrix using Liu's
/// algorithm with path compression. `parent[j]` is the etree parent of column
/// j, or `kNoIdx` for roots. O(nnz * alpha(n)).
std::vector<Idx> elimination_tree(const CsrMatrix& a);

/// True if `parent` encodes a forest where every parent index exceeds the
/// child index — the invariant elimination trees of properly ordered
/// matrices satisfy, and which the symbolic layer relies on.
bool is_topologically_ordered_forest(std::span<const Idx> parent);

}  // namespace sptrsv
