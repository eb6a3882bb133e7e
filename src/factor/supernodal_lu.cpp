#include "factor/supernodal_lu.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ordering/etree.hpp"
#include "symbolic/colcounts.hpp"

namespace sptrsv {

std::vector<Real> SupernodalLU::reconstruct_dense() const {
  const Idx N = n();
  std::vector<Real> l(static_cast<size_t>(N) * N, 0.0);
  std::vector<Real> u(static_cast<size_t>(N) * N, 0.0);
  const auto& part = sym.part;
  for (Idx k = 0; k < num_supernodes(); ++k) {
    const Idx w = part.width(k);
    const Idx base = part.first_col(k);
    const auto& d = diag[static_cast<size_t>(k)];
    for (Idx j = 0; j < w; ++j) {
      for (Idx i = 0; i < w; ++i) {
        const Real v = d[static_cast<size_t>(j) * w + i];
        if (i > j) {
          l[static_cast<size_t>(base + j) * N + (base + i)] = v;
        } else {
          u[static_cast<size_t>(base + j) * N + (base + i)] = v;
        }
      }
      l[static_cast<size_t>(base + j) * N + (base + j)] = 1.0;  // unit diagonal
    }
    const Idx r = sym.panel_rows[static_cast<size_t>(k)];
    const auto& lb = sym.below[static_cast<size_t>(k)];
    for (size_t bi = 0; bi < lb.size(); ++bi) {
      const Idx ib = part.first_col(lb[bi]);
      const Idx wi = part.width(lb[bi]);
      const Idx off = sym.below_offset[static_cast<size_t>(k)][bi];
      for (Idx j = 0; j < w; ++j) {
        for (Idx i = 0; i < wi; ++i) {
          l[static_cast<size_t>(base + j) * N + (ib + i)] =
              lpanel[static_cast<size_t>(k)][static_cast<size_t>(j) * r + off + i];
          u[static_cast<size_t>(ib + i) * N + (base + j)] =
              upanel[static_cast<size_t>(k)][(static_cast<size_t>(off) + i) * w + j];
        }
      }
    }
  }
  // Dense product L * U.
  std::vector<Real> prod(static_cast<size_t>(N) * N, 0.0);
  gemm_plus(N, N, N, l, u, prod);
  return prod;
}

double SupernodalLU::solve_flops(Idx nrhs) const {
  double fl = 0;
  for (Idx k = 0; k < num_supernodes(); ++k) {
    const double w = sym.part.width(k);
    const double r = sym.panel_rows[static_cast<size_t>(k)];
    // Both solves: diagonal inverse apply (w*w GEMM) + panel GEMM (r*w).
    fl += 2.0 * nrhs * (2.0 * w * w + 2.0 * w * r);
  }
  return fl;
}

SupernodalLU init_supernodal_storage(const CsrMatrix& a, SymbolicStructure sym) {
  const Idx nsup = sym.num_supernodes();
  const auto& part = sym.part;

  SupernodalLU f;
  f.diag.resize(static_cast<size_t>(nsup));
  f.diag_linv.resize(static_cast<size_t>(nsup));
  f.diag_uinv.resize(static_cast<size_t>(nsup));
  f.lpanel.resize(static_cast<size_t>(nsup));
  f.upanel.resize(static_cast<size_t>(nsup));
  for (Idx k = 0; k < nsup; ++k) {
    const size_t w = static_cast<size_t>(part.width(k));
    const size_t r = static_cast<size_t>(sym.panel_rows[static_cast<size_t>(k)]);
    f.diag[static_cast<size_t>(k)].assign(w * w, 0.0);
    f.lpanel[static_cast<size_t>(k)].assign(r * w, 0.0);
    f.upanel[static_cast<size_t>(k)].assign(w * r, 0.0);
  }

  // Scatter A's values into the block storage. Entry (i,j):
  //   sn(i) == sn(j): diagonal block of that supernode.
  //   sn(i) >  sn(j): L block (row block sn(i)) in column supernode sn(j).
  //   sn(i) <  sn(j): U block (column block sn(j)) in row supernode sn(i).
  for (Idx i = 0; i < a.rows(); ++i) {
    const Idx ki = part.col_to_sn[static_cast<size_t>(i)];
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    for (size_t t = 0; t < cs.size(); ++t) {
      const Idx j = cs[t];
      const Real v = vs[t];
      if (!std::isfinite(v)) {
        throw std::invalid_argument("init_supernodal_storage: non-finite value at row " +
                                    std::to_string(i) + ", column " + std::to_string(j));
      }
      const Idx kj = part.col_to_sn[static_cast<size_t>(j)];
      if (ki == kj) {
        const Idx w = part.width(ki);
        f.diag[static_cast<size_t>(ki)][static_cast<size_t>(j - part.first_col(kj)) * w +
                                        (i - part.first_col(ki))] = v;
      } else if (ki > kj) {
        const Idx pos = sym.find_block(kj, ki);
        assert(pos != kNoIdx);
        const Idx r = sym.panel_rows[static_cast<size_t>(kj)];
        const Idx off = sym.below_offset[static_cast<size_t>(kj)][static_cast<size_t>(pos)];
        f.lpanel[static_cast<size_t>(kj)][static_cast<size_t>(j - part.first_col(kj)) * r +
                                          off + (i - part.first_col(ki))] = v;
      } else {
        const Idx pos = sym.find_block(ki, kj);
        assert(pos != kNoIdx);
        const Idx w = part.width(ki);
        const Idx off = sym.below_offset[static_cast<size_t>(ki)][static_cast<size_t>(pos)];
        f.upanel[static_cast<size_t>(ki)][(static_cast<size_t>(off) + (j - part.first_col(kj))) * w +
                                          (i - part.first_col(ki))] = v;
      }
    }
  }
  f.sym = std::move(sym);
  return f;
}

SupernodalLU factor_supernodal(const CsrMatrix& a, SymbolicStructure sym0) {
  SupernodalLU f = init_supernodal_storage(a, std::move(sym0));
  const SymbolicStructure& sym = f.sym;
  const auto& part = sym.part;
  const Idx nsup = sym.num_supernodes();

  // Right-looking factorization over the block structure.
  for (Idx k = 0; k < nsup; ++k) {
    const Idx w = part.width(k);
    auto& d = f.diag[static_cast<size_t>(k)];
    if (!lu_unpivoted_inplace(w, d)) {
      throw std::runtime_error(
          "factor_supernodal: zero or non-finite pivot in supernode " +
          std::to_string(k));
    }
    auto& linv = f.diag_linv[static_cast<size_t>(k)];
    auto& uinv = f.diag_uinv[static_cast<size_t>(k)];
    linv.assign(static_cast<size_t>(w) * w, 0.0);
    uinv.assign(static_cast<size_t>(w) * w, 0.0);
    invert_unit_lower(w, d, linv);
    invert_upper(w, d, uinv);

    const Idx r = sym.panel_rows[static_cast<size_t>(k)];
    if (r > 0) {
      trsm_right_upper(r, w, d, f.lpanel[static_cast<size_t>(k)]);
      trsm_left_unit_lower(w, r, d, f.upanel[static_cast<size_t>(k)]);
    }

    // Schur updates: (I, J) -= L(I,K) * U(K,J) for all I, J in below[K].
    const auto& blist = sym.below[static_cast<size_t>(k)];
    const auto& boff = sym.below_offset[static_cast<size_t>(k)];
    for (size_t bi = 0; bi < blist.size(); ++bi) {
      const Idx I = blist[bi];
      const Idx wi = part.width(I);
      const Real* lik =
          f.lpanel[static_cast<size_t>(k)].data() + boff[bi];  // wi x w, ld r
      for (size_t bj = 0; bj < blist.size(); ++bj) {
        const Idx J = blist[bj];
        const Idx wj = part.width(J);
        const Real* ukj = f.upanel[static_cast<size_t>(k)].data() +
                          static_cast<size_t>(boff[bj]) * w;  // w x wj, ld w
        if (I == J) {
          gemm_minus_ld(wi, w, wj, {lik, static_cast<size_t>(r) * w - boff[bi]}, r,
                        {ukj, static_cast<size_t>(w) * wj}, w,
                        f.diag[static_cast<size_t>(I)], wi);
        } else if (I > J) {
          const Idx pos = sym.find_block(J, I);
          assert(pos != kNoIdx);
          const Idx rj = sym.panel_rows[static_cast<size_t>(J)];
          const Idx off = sym.below_offset[static_cast<size_t>(J)][static_cast<size_t>(pos)];
          gemm_minus_ld(wi, w, wj, {lik, static_cast<size_t>(r) * w - boff[bi]}, r,
                        {ukj, static_cast<size_t>(w) * wj}, w,
                        std::span<Real>(f.lpanel[static_cast<size_t>(J)]).subspan(off), rj);
        } else {  // I < J: U panel of I
          const Idx pos = sym.find_block(I, J);
          assert(pos != kNoIdx);
          const Idx off = sym.below_offset[static_cast<size_t>(I)][static_cast<size_t>(pos)];
          gemm_minus_ld(wi, w, wj, {lik, static_cast<size_t>(r) * w - boff[bi]}, r,
                        {ukj, static_cast<size_t>(w) * wj}, w,
                        std::span<Real>(f.upanel[static_cast<size_t>(I)])
                            .subspan(static_cast<size_t>(off) * wi),
                        wi);
        }
      }
    }
  }

  return f;
}

FactoredSystem analyze_and_factor(const CsrMatrix& a, const AnalyzeOptions& opt) {
  const CsrMatrix sym_a = a.has_symmetric_pattern() ? a : a.symmetrized_pattern();
  if (!sym_a.has_full_diagonal()) {
    throw std::invalid_argument("analyze_and_factor: matrix needs a full diagonal");
  }
  NdOrdering nd = nested_dissection(sym_a, opt.nd);
  const CsrMatrix pa = sym_a.permuted_symmetric(nd.perm);

  const std::vector<Idx> parent = elimination_tree(pa);
  const std::vector<Nnz> counts = cholesky_col_counts(pa, parent);

  SupernodeOptions sn_opt = opt.supernode;
  sn_opt.forced_breaks.clear();  // the layout requires exactly these breaks
  for (Idx id = 0; id < nd.tree.num_nodes(); ++id) {
    sn_opt.forced_breaks.push_back(nd.tree.node(id).col_begin);
    sn_opt.forced_breaks.push_back(nd.tree.node(id).col_end);
  }
  SupernodePartition part = find_supernodes(parent, counts, sn_opt);
  SymbolicStructure sym = block_symbolic(pa, std::move(part));

  FactoredSystem out{factor_supernodal(pa, std::move(sym)), std::move(nd.perm),
                     std::move(nd.tree)};
  return out;
}

FactoredSystem analyze_and_factor(const CsrMatrix& a, int nd_levels,
                                  Idx max_supernode_width) {
  AnalyzeOptions opt;
  opt.nd.levels = nd_levels;
  opt.supernode.max_width = max_supernode_width;
  return analyze_and_factor(a, opt);
}

}  // namespace sptrsv
