#include "dist/factor_dist.hpp"

#include <algorithm>
#include <stdexcept>

#include "factor/dense.hpp"

namespace sptrsv {

namespace {

// Per-step tags (steps are pipelined across ranks, so tags carry K).
int tag_diag_col(Idx k) { return 8 * static_cast<int>(k) + 0; }
int tag_diag_row(Idx k) { return 8 * static_cast<int>(k) + 1; }
int tag_lpanel(Idx k) { return 8 * static_cast<int>(k) + 2; }
int tag_upanel(Idx k) { return 8 * static_cast<int>(k) + 3; }

/// Sorted unique process rows (or columns) touched by a pattern.
std::vector<int> procs_of(std::span<const Idx> blocks, int modulus) {
  std::vector<int> out;
  for (const Idx b : blocks) out.push_back(static_cast<int>(b % modulus));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

SupernodalLU factor_supernodal_distributed(const CsrMatrix& a, SymbolicStructure sym0,
                                           Grid2dShape shape,
                                           const MachineModel& machine,
                                           DistFactorStats* stats) {
  SupernodalLU f = init_supernodal_storage(a, std::move(sym0));
  const SymbolicStructure& sym = f.sym;
  const auto& part = sym.part;
  const Idx nsup = sym.num_supernodes();

  const Cluster::Result res = Cluster::run(shape.size(), machine, [&](Comm& comm) {
    const int myrow = shape.row_of(comm.rank());
    const int mycol = shape.col_of(comm.rank());
    std::vector<Real> dk;       // this step's factored diagonal block
    std::vector<Real> lbuf, ubuf;  // received panel pieces

    for (Idx k = 0; k < nsup; ++k) {
      const int kr = shape.owner_row(k);
      const int kc = shape.owner_col(k);
      const Idx w = part.width(k);
      const Idx ld = sym.panel_rows[static_cast<size_t>(k)];
      const auto& below = sym.below[static_cast<size_t>(k)];
      const auto& boff = sym.below_offset[static_cast<size_t>(k)];
      const std::vector<int> rows_of = procs_of(below, shape.px);
      const std::vector<int> cols_of = procs_of(below, shape.py);
      const bool in_rows = std::binary_search(rows_of.begin(), rows_of.end(), myrow);
      const bool in_cols = std::binary_search(cols_of.begin(), cols_of.end(), mycol);
      const bool i_am_diag = (myrow == kr && mycol == kc);
      const bool have_l = (mycol == kc) && in_rows;  // I own L(:,K) blocks
      const bool have_u = (myrow == kr) && in_cols;  // I own U(K,:) blocks
      const bool have_schur = in_rows && in_cols;
      if (!i_am_diag && !have_l && !have_u && !have_schur) continue;

      // --- 1. Diagonal factorization and fan-out. ---
      if (i_am_diag) {
        auto& d = f.diag[static_cast<size_t>(k)];
        if (!lu_unpivoted_inplace(w, d)) {
          throw std::runtime_error(
              "factor_supernodal_distributed: zero or non-finite pivot in " +
              std::to_string(k));
        }
        auto& linv = f.diag_linv[static_cast<size_t>(k)];
        auto& uinv = f.diag_uinv[static_cast<size_t>(k)];
        linv.assign(static_cast<size_t>(w) * w, 0.0);
        uinv.assign(static_cast<size_t>(w) * w, 0.0);
        invert_unit_lower(w, d, linv);
        invert_upper(w, d, uinv);
        comm.compute(2.0 / 3.0 * w * w * w + 2.0 * w * w * w);
        dk = d;
        for (const int r : rows_of) {
          if (r == kr) continue;
          comm.send(shape.rank_of(r, kc), tag_diag_col(k), dk, TimeCategory::kXyComm);
        }
        for (const int c : cols_of) {
          if (c == kc) continue;
          comm.send(shape.rank_of(kr, c), tag_diag_row(k), dk, TimeCategory::kXyComm);
        }
      } else if (have_l) {
        dk = comm.recv(shape.rank_of(kr, kc), tag_diag_col(k), TimeCategory::kXyComm)
                 .data;
      } else if (have_u) {
        dk = comm.recv(shape.rank_of(kr, kc), tag_diag_row(k), TimeCategory::kXyComm)
                 .data;
      }

      // --- 2. L panel: L(I,K) = A(I,K) * inv(U_KK) for my block rows. ---
      std::vector<Real> my_l;  // my blocks packed (ascending I), for fan-out
      if (have_l) {
        std::vector<Real> blk;
        for (size_t bi = 0; bi < below.size(); ++bi) {
          const Idx i = below[bi];
          if (shape.owner_row(i) != myrow) continue;
          const Idx wi = part.width(i);
          blk.resize(static_cast<size_t>(wi) * w);
          Real* panel = f.lpanel[static_cast<size_t>(k)].data() + boff[bi];
          for (Idx col = 0; col < w; ++col) {  // gather (ld-strided block)
            std::copy_n(panel + static_cast<size_t>(col) * ld, wi,
                        blk.data() + static_cast<size_t>(col) * wi);
          }
          trsm_right_upper(wi, w, dk, blk);
          comm.compute(static_cast<double>(wi) * w * w);
          for (Idx col = 0; col < w; ++col) {  // scatter back
            std::copy_n(blk.data() + static_cast<size_t>(col) * wi, wi,
                        panel + static_cast<size_t>(col) * ld);
          }
          my_l.insert(my_l.end(), blk.begin(), blk.end());
        }
        for (const int c : cols_of) {
          if (c == mycol) continue;
          comm.send(shape.rank_of(myrow, c), tag_lpanel(k), my_l,
                    TimeCategory::kXyComm);
        }
      }

      // --- 3. U panel: U(K,J) = inv(L_KK) * A(K,J) for my block columns. ---
      std::vector<Real> my_u;
      if (have_u) {
        for (size_t bj = 0; bj < below.size(); ++bj) {
          const Idx j = below[bj];
          if (shape.owner_col(j) != mycol) continue;
          const Idx wj = part.width(j);
          Real* blk = f.upanel[static_cast<size_t>(k)].data() +
                      static_cast<size_t>(boff[bj]) * w;  // contiguous w x wj
          trsm_left_unit_lower(w, wj, dk, {blk, static_cast<size_t>(w) * wj});
          comm.compute(static_cast<double>(w) * w * wj);
          my_u.insert(my_u.end(), blk, blk + static_cast<size_t>(w) * wj);
        }
        for (const int r : rows_of) {
          if (r == myrow) continue;
          comm.send(shape.rank_of(r, mycol), tag_upanel(k), my_u,
                    TimeCategory::kXyComm);
        }
      }

      // --- 4. Schur updates to my blocks. ---
      if (!have_schur) continue;
      std::span<const Real> lsrc;
      if (have_l) {
        lsrc = my_l;
      } else {
        lbuf = comm.recv(shape.rank_of(myrow, kc), tag_lpanel(k), TimeCategory::kXyComm)
                   .data;
        lsrc = lbuf;
      }
      std::span<const Real> usrc;
      if (have_u) {
        usrc = my_u;
      } else {
        ubuf = comm.recv(shape.rank_of(kr, mycol), tag_upanel(k), TimeCategory::kXyComm)
                   .data;
        usrc = ubuf;
      }
      size_t loff = 0;
      for (size_t bi = 0; bi < below.size(); ++bi) {
        const Idx i = below[bi];
        if (shape.owner_row(i) != myrow) continue;
        const Idx wi = part.width(i);
        const std::span<const Real> lik = lsrc.subspan(loff, static_cast<size_t>(wi) * w);
        loff += static_cast<size_t>(wi) * w;
        size_t uoff = 0;
        for (size_t bj = 0; bj < below.size(); ++bj) {
          const Idx j = below[bj];
          if (shape.owner_col(j) != mycol) continue;
          const Idx wj = part.width(j);
          const std::span<const Real> ukj = usrc.subspan(uoff, static_cast<size_t>(w) * wj);
          uoff += static_cast<size_t>(w) * wj;
          // Target block (I,J): diagonal, L panel of J, or U panel of I —
          // always owned by this rank under the cyclic map.
          if (i == j) {
            gemm_minus_ld(wi, w, wj, lik, wi, ukj, w, f.diag[static_cast<size_t>(i)],
                          wi);
          } else if (i > j) {
            const Idx pos = sym.find_block(j, i);
            const Idx rj = sym.panel_rows[static_cast<size_t>(j)];
            const Idx off = sym.below_offset[static_cast<size_t>(j)][static_cast<size_t>(pos)];
            gemm_minus_ld(wi, w, wj, lik, wi, ukj, w,
                          std::span<Real>(f.lpanel[static_cast<size_t>(j)]).subspan(
                              static_cast<size_t>(off)),
                          rj);
          } else {
            const Idx pos = sym.find_block(i, j);
            const Idx off = sym.below_offset[static_cast<size_t>(i)][static_cast<size_t>(pos)];
            gemm_minus_ld(wi, w, wj, lik, wi, ukj, w,
                          std::span<Real>(f.upanel[static_cast<size_t>(i)])
                              .subspan(static_cast<size_t>(off) * wi),
                          wi);
          }
          comm.compute(2.0 * wi * w * wj);
        }
      }
    }
  });

  if (stats != nullptr) {
    stats->makespan = res.makespan();
    stats->mean_fp = res.mean_category(TimeCategory::kFp);
    stats->mean_comm = res.mean_category(TimeCategory::kXyComm);
    stats->total_messages = 0;
    stats->total_bytes = 0;
    for (const auto& r : res.ranks) {
      stats->total_messages += r.messages[static_cast<int>(TimeCategory::kXyComm)];
      stats->total_bytes += r.bytes[static_cast<int>(TimeCategory::kXyComm)];
    }
  }
  return f;
}

}  // namespace sptrsv
