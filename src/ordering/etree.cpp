#include "ordering/etree.hpp"

#include <stdexcept>

namespace sptrsv {

std::vector<Idx> elimination_tree(const CsrMatrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("elimination_tree: square only");
  const Idx n = a.rows();
  std::vector<Idx> parent(static_cast<size_t>(n), kNoIdx);
  std::vector<Idx> ancestor(static_cast<size_t>(n), kNoIdx);
  for (Idx j = 0; j < n; ++j) {
    for (const Idx i : a.row_cols(j)) {
      if (i >= j) break;  // columns sorted; only the strict lower triangle matters
      Idx r = i;
      while (ancestor[static_cast<size_t>(r)] != kNoIdx &&
             ancestor[static_cast<size_t>(r)] != j) {
        const Idx next = ancestor[static_cast<size_t>(r)];
        ancestor[static_cast<size_t>(r)] = j;  // path compression
        r = next;
      }
      if (ancestor[static_cast<size_t>(r)] == kNoIdx) {
        ancestor[static_cast<size_t>(r)] = j;
        parent[static_cast<size_t>(r)] = j;
      }
    }
  }
  return parent;
}

bool is_topologically_ordered_forest(std::span<const Idx> parent) {
  for (size_t j = 0; j < parent.size(); ++j) {
    const Idx p = parent[j];
    if (p != kNoIdx && p <= static_cast<Idx>(j)) return false;
  }
  return true;
}

}  // namespace sptrsv
