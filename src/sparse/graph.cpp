#include "sparse/graph.hpp"

#include <cassert>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace sptrsv {

Graph Graph::from_matrix(const CsrMatrix& m) {
  if (m.rows() != m.cols()) throw std::invalid_argument("Graph::from_matrix: square only");
  Graph g;
  g.n_ = m.rows();
  g.xadj_.assign(static_cast<size_t>(g.n_) + 1, 0);
  for (Idx r = 0; r < g.n_; ++r) {
    Nnz deg = 0;
    for (const Idx c : m.row_cols(r)) {
      if (c != r) ++deg;
    }
    g.xadj_[static_cast<size_t>(r) + 1] = g.xadj_[static_cast<size_t>(r)] + deg;
  }
  g.adj_.resize(static_cast<size_t>(g.xadj_.back()));
  for (Idx r = 0; r < g.n_; ++r) {
    Nnz p = g.xadj_[static_cast<size_t>(r)];
    for (const Idx c : m.row_cols(r)) {
      if (c != r) g.adj_[static_cast<size_t>(p++)] = c;
    }
  }
  return g;
}

Graph Graph::from_raw(Idx n, std::vector<Nnz> xadj, std::vector<Idx> adj) {
  if (xadj.size() != static_cast<size_t>(n) + 1 ||
      xadj.back() != static_cast<Nnz>(adj.size())) {
    throw std::invalid_argument("Graph::from_raw: inconsistent arrays");
  }
  Graph g;
  g.n_ = n;
  g.xadj_ = std::move(xadj);
  g.adj_ = std::move(adj);
  return g;
}

Graph Graph::induced_subgraph(std::span<const Idx> vertices) const {
  std::vector<Idx> local(static_cast<size_t>(n_), kNoIdx);
  return induced_subgraph(vertices, local);
}

Graph Graph::induced_subgraph(std::span<const Idx> vertices, std::span<Idx> local) const {
  if (local.size() != static_cast<size_t>(n_)) {
    throw std::invalid_argument("Graph::induced_subgraph: map size != num_vertices()");
  }
  for (size_t i = 0; i < vertices.size(); ++i) {
    local[static_cast<size_t>(vertices[i])] = static_cast<Idx>(i);
  }
  Graph s;
  s.n_ = static_cast<Idx>(vertices.size());
  s.xadj_.assign(vertices.size() + 1, 0);
  for (size_t i = 0; i < vertices.size(); ++i) {
    Nnz deg = 0;
    for (const Idx u : neighbors(vertices[i])) {
      if (local[static_cast<size_t>(u)] != kNoIdx) ++deg;
    }
    s.xadj_[i + 1] = s.xadj_[i] + deg;
  }
  s.adj_.resize(static_cast<size_t>(s.xadj_.back()));
  for (size_t i = 0; i < vertices.size(); ++i) {
    Nnz p = s.xadj_[i];
    for (const Idx u : neighbors(vertices[i])) {
      const Idx lu = local[static_cast<size_t>(u)];
      if (lu != kNoIdx) s.adj_[static_cast<size_t>(p++)] = lu;
    }
  }
  for (const Idx v : vertices) local[static_cast<size_t>(v)] = kNoIdx;
  return s;
}

Idx Graph::num_components() const {
  std::vector<Idx> stack;
  std::vector<bool> seen(static_cast<size_t>(n_), false);
  Idx comps = 0;
  for (Idx v = 0; v < n_; ++v) {
    if (seen[static_cast<size_t>(v)]) continue;
    ++comps;
    stack.push_back(v);
    seen[static_cast<size_t>(v)] = true;
    while (!stack.empty()) {
      const Idx u = stack.back();
      stack.pop_back();
      for (const Idx w : neighbors(u)) {
        if (!seen[static_cast<size_t>(w)]) {
          seen[static_cast<size_t>(w)] = true;
          stack.push_back(w);
        }
      }
    }
  }
  return comps;
}

}  // namespace sptrsv
