#include "factor/supernodal_lu.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <span>
#include <string>

#include "ordering/etree.hpp"
#include "sparse/step_pool.hpp"
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

namespace {

/// Allocates the factor storage for `sym` and scatters `a`'s values into
/// the diagonal blocks and L/U panels (no numeric work yet). Throws
/// std::invalid_argument naming the row and column of the first NaN or
/// infinite value of `a`.
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

// kParallelFlops was picked by timing analyze_and_factor on the repo
// benchmark's 256^2 9-point grid and its 3000-vertex dense-LU input (4-vCPU
// VM, GCC 12, medians of 4 rounds), when every step ran on the pool. Serial:
// 0.50 s and 1.55 s. At 1e5 flops: 0.31 s and 0.38 s. Raising it to 1e6
// read 0.38 s on the grid.

/// A run of factor_supernodal (the subtree phase, a top step, a flush of
/// deferred updates or the pass of diagonal inverses) goes to the pool once
/// its flops reach this; lighter work runs on the calling thread alone,
/// where a fork-join costs more than it saves.
constexpr double kParallelFlops = 1e5;

/// The subtree phase splits the elimination tree until no subtree holds
/// more than total flops / (kSubtreesPerThread x threads), so that claiming
/// the subtrees heaviest first leaves every thread a balanced share.
constexpr double kSubtreesPerThread = 4;

/// Threads worth using on `flops` of work: all of the pool's, or the caller
/// alone if the work is too light.
int threads_for(const StepPool& pool, double flops) {
  return flops >= kParallelFlops ? pool.threads() : 1;
}

/// Estimated flops of step K: its diagonal LU, its two panel TRSMs and its
/// Schur updates.
double step_flops(const SymbolicStructure& sym, Idx k) {
  const double w = sym.part.width(k);
  const double r = sym.panel_rows[static_cast<size_t>(k)];
  return 2.0 / 3.0 * w * w * w + 2.0 * r * w * (w + r);
}

std::runtime_error pivot_error(Idx k) {
  return std::runtime_error("factor_supernodal: zero or non-finite pivot in supernode " +
                            std::to_string(k));
}

/// How factor_supernodal splits the supernodal elimination tree
/// (`sym.sn_parent`). A supernode is *top* when the flops of its subtree
/// exceed the limit; every other supernode falls into the subtree of its
/// highest ancestor that is not top. A subtree holds all descendants of its
/// root, so every Schur update into a block it owns comes from its own
/// steps.
struct SubtreePlan {
  /// Supernodes of subtree s in ascending order:
  /// members[begin[s], begin[s + 1]). Subtrees are listed heaviest first.
  std::vector<Idx> begin;
  std::vector<Idx> members;
  std::vector<Idx> top;      ///< top supernodes, ascending
  std::vector<char> is_top;  ///< per supernode
  /// Per supernode: the number of top supernodes below its index. For a top
  /// supernode that is its position in `top`; for any other, the top step
  /// before which its deferred updates run.
  std::vector<Idx> tops_before;
  double flops = 0;  ///< the subtrees' estimated flops
};

/// Splits until no subtree's flops exceed total / (kSubtreesPerThread x
/// threads). With one thread (one CPU, or too few flops for the pool) every
/// supernode is top, so factor_supernodal runs its serial loop.
SubtreePlan plan_subtrees(const SymbolicStructure& sym, const StepPool& pool) {
  const Idx nsup = sym.num_supernodes();
  const auto n = static_cast<size_t>(nsup);
  std::vector<double> flops(n, 0.0);  // of each supernode's subtree
  double total = 0;
  for (Idx k = 0; k < nsup; ++k) {  // a parent's index exceeds its children's
    const double fk = step_flops(sym, k);
    flops[static_cast<size_t>(k)] += fk;
    total += fk;
    if (const Idx p = sym.sn_parent[static_cast<size_t>(k)]; p != kNoIdx) {
      flops[static_cast<size_t>(p)] += flops[static_cast<size_t>(k)];
    }
  }
  const int threads = threads_for(pool, total);
  const double limit = threads == 1 ? -1.0 : total / (kSubtreesPerThread * threads);

  SubtreePlan plan;
  plan.is_top.resize(n);
  plan.tops_before.resize(n);
  for (Idx k = 0; k < nsup; ++k) {
    plan.tops_before[static_cast<size_t>(k)] = static_cast<Idx>(plan.top.size());
    plan.is_top[static_cast<size_t>(k)] = flops[static_cast<size_t>(k)] > limit;
    if (plan.is_top[static_cast<size_t>(k)]) plan.top.push_back(k);
  }

  // The root of each other supernode's subtree, parents first.
  std::vector<Idx> root(n, kNoIdx);
  std::vector<Idx> roots;
  for (Idx k = nsup - 1; k >= 0; --k) {
    if (plan.is_top[static_cast<size_t>(k)]) continue;
    const Idx p = sym.sn_parent[static_cast<size_t>(k)];
    const bool is_root = p == kNoIdx || plan.is_top[static_cast<size_t>(p)];
    root[static_cast<size_t>(k)] = is_root ? k : root[static_cast<size_t>(p)];
    if (is_root) {
      roots.push_back(k);
      plan.flops += flops[static_cast<size_t>(k)];
    }
  }
  std::sort(roots.begin(), roots.end(), [&](Idx x, Idx y) {
    const double fx = flops[static_cast<size_t>(x)];
    const double fy = flops[static_cast<size_t>(y)];
    return fx != fy ? fx > fy : x < y;
  });

  // Subtree s holds the supernodes whose root is roots[s].
  std::vector<Idx> sub(n, kNoIdx);
  for (size_t s = 0; s < roots.size(); ++s) {
    sub[static_cast<size_t>(roots[s])] = static_cast<Idx>(s);
  }
  plan.begin.assign(roots.size() + 1, 0);
  for (Idx k = 0; k < nsup; ++k) {
    if (plan.is_top[static_cast<size_t>(k)]) continue;
    sub[static_cast<size_t>(k)] = sub[static_cast<size_t>(root[static_cast<size_t>(k)])];
    ++plan.begin[static_cast<size_t>(sub[static_cast<size_t>(k)]) + 1];
  }
  std::partial_sum(plan.begin.begin(), plan.begin.end(), plan.begin.begin());
  plan.members.resize(static_cast<size_t>(plan.begin.back()));
  std::vector<Idx> next(plan.begin.begin(), plan.begin.end() - 1);
  for (Idx k = 0; k < nsup; ++k) {
    if (plan.is_top[static_cast<size_t>(k)]) continue;
    Idx& slot = next[static_cast<size_t>(sub[static_cast<size_t>(k)])];
    plan.members[static_cast<size_t>(slot++)] = k;
  }
  return plan;
}

/// How many leading entries of below[k] lie in the subtree of k, a
/// supernode that is not top. The rest are top supernodes: they are the
/// ancestors of its subtree's root.
Idx blocks_in_subtree(const SymbolicStructure& sym, const SubtreePlan& plan, Idx k) {
  const auto& blist = sym.below[static_cast<size_t>(k)];
  return static_cast<Idx>(
      std::partition_point(blist.begin(), blist.end(),
                           [&](Idx i) { return !plan.is_top[static_cast<size_t>(i)]; }) -
      blist.begin());
}

/// A Schur update a subtree's step k makes to a block that a top supernode
/// owns: pair (bi, bj) of below[k] (schur_update). The subtree phase leaves
/// it to phase 2.
struct Deferred {
  Idx k;
  Idx bi;
  Idx bj;
};

/// The deferred updates in the order phase 2 runs them. Flush f, which runs
/// before top step f, holds the updates of the steps between top supernodes
/// f - 1 and f, grouped by target block: groups [flush_begin[f],
/// flush_begin[f + 1]), group g being updates[group_begin[g],
/// group_begin[g + 1]) in ascending k.
struct DeferredPlan {
  std::vector<Deferred> updates;
  std::vector<std::int64_t> group_begin;
  std::vector<std::int64_t> flush_begin;
  std::vector<double> flush_flops;
};

/// Stable counting sort of `v` by key(v[i]) in [0, nkeys); `tmp` is scratch.
template <class Key>
void sort_by_key(std::vector<Deferred>& v, std::vector<Deferred>& tmp, Idx nkeys,
                 const Key& key) {
  std::vector<std::int64_t> at(static_cast<size_t>(nkeys) + 1, 0);
  for (const Deferred& u : v) ++at[static_cast<size_t>(key(u)) + 1];
  std::partial_sum(at.begin(), at.end(), at.begin());
  tmp.resize(v.size());
  for (const Deferred& u : v) tmp[static_cast<size_t>(at[static_cast<size_t>(key(u))]++)] = u;
  v.swap(tmp);
}

DeferredPlan plan_deferred(const SymbolicStructure& sym, const SubtreePlan& plan) {
  const Idx nsup = sym.num_supernodes();
  const auto ntop = static_cast<Idx>(plan.top.size());
  DeferredPlan d;
  size_t count = 0;
  for (const Idx k : plan.members) {
    const auto m = sym.below[static_cast<size_t>(k)].size() -
                   static_cast<size_t>(blocks_in_subtree(sym, plan, k));
    count += m * m;
  }
  d.updates.reserve(count);
  for (Idx k = 0; k < nsup; ++k) {  // ascending k, which the stable sorts keep
    if (plan.is_top[static_cast<size_t>(k)]) continue;
    const auto nb = static_cast<Idx>(sym.below[static_cast<size_t>(k)].size());
    const Idx p = blocks_in_subtree(sym, plan, k);
    for (Idx bi = p; bi < nb; ++bi) {
      for (Idx bj = p; bj < nb; ++bj) d.updates.push_back({k, bi, bj});
    }
  }
  // Sort by (flush, row block, column block) as three stable passes.
  const auto tops_before = [&](Idx k) { return plan.tops_before[static_cast<size_t>(k)]; };
  const auto block = [&](Idx k, Idx b) {
    return sym.below[static_cast<size_t>(k)][static_cast<size_t>(b)];
  };
  std::vector<Deferred> tmp;
  sort_by_key(d.updates, tmp, ntop,
              [&](const Deferred& u) { return tops_before(block(u.k, u.bj)); });
  sort_by_key(d.updates, tmp, ntop,
              [&](const Deferred& u) { return tops_before(block(u.k, u.bi)); });
  sort_by_key(d.updates, tmp, ntop, [&](const Deferred& u) { return tops_before(u.k); });

  d.flush_begin.assign(static_cast<size_t>(ntop) + 1, 0);
  d.flush_flops.assign(static_cast<size_t>(ntop), 0.0);
  std::array<Idx, 3> prev{kNoIdx, kNoIdx, kNoIdx};
  for (size_t u = 0; u < d.updates.size(); ++u) {
    const Deferred& x = d.updates[u];
    const std::array<Idx, 3> target{tops_before(x.k), block(x.k, x.bi), block(x.k, x.bj)};
    if (target != prev) {
      d.group_begin.push_back(static_cast<std::int64_t>(u));
      ++d.flush_begin[static_cast<size_t>(target[0]) + 1];
      prev = target;
    }
    d.flush_flops[static_cast<size_t>(target[0])] +=
        2.0 * sym.part.width(target[1]) * sym.part.width(x.k) * sym.part.width(target[2]);
  }
  d.group_begin.push_back(static_cast<std::int64_t>(d.updates.size()));
  std::partial_sum(d.flush_begin.begin(), d.flush_begin.end(), d.flush_begin.begin());
  return d;
}

/// (I, J) -= L(I,K) * U(K,J) for I = below[K][bi] and J = below[K][bj]:
/// the Schur update step K makes to diag[I] (I == J), to rows I of L panel
/// J (I > J) or to columns J of U panel I (I < J). No two pairs (bi, bj)
/// of a step write the same element.
void schur_update(SupernodalLU& f, Idx k, size_t bi, size_t bj) {
  const SymbolicStructure& sym = f.sym;
  const Idx w = sym.part.width(k);
  const Idx r = sym.panel_rows[static_cast<size_t>(k)];
  const auto& blist = sym.below[static_cast<size_t>(k)];
  const auto& boff = sym.below_offset[static_cast<size_t>(k)];
  const Idx I = blist[bi];
  const Idx J = blist[bj];
  const Idx wi = sym.part.width(I);
  const Idx wj = sym.part.width(J);
  const std::span<const Real> lik(
      f.lpanel[static_cast<size_t>(k)].data() + boff[bi],
      static_cast<size_t>(r) * w - boff[bi]);  // wi x w, ld r
  const std::span<const Real> ukj(
      f.upanel[static_cast<size_t>(k)].data() + static_cast<size_t>(boff[bj]) * w,
      static_cast<size_t>(w) * wj);  // w x wj, ld w
  if (I == J) {
    gemm_minus_ld(wi, w, wj, lik, r, ukj, w, f.diag[static_cast<size_t>(I)], wi);
  } else if (I > J) {
    const Idx pos = sym.find_block(J, I);
    assert(pos != kNoIdx);
    const Idx rj = sym.panel_rows[static_cast<size_t>(J)];
    const Idx off = sym.below_offset[static_cast<size_t>(J)][static_cast<size_t>(pos)];
    gemm_minus_ld(wi, w, wj, lik, r, ukj, w,
                  std::span<Real>(f.lpanel[static_cast<size_t>(J)]).subspan(off), rj);
  } else {  // I < J: U panel of I
    const Idx pos = sym.find_block(I, J);
    assert(pos != kNoIdx);
    const Idx off = sym.below_offset[static_cast<size_t>(I)][static_cast<size_t>(pos)];
    gemm_minus_ld(wi, w, wj, lik, r, ukj, w,
                  std::span<Real>(f.upanel[static_cast<size_t>(I)])
                      .subspan(static_cast<size_t>(off) * wi),
                  wi);
  }
}

}  // namespace

SupernodalLU factor_supernodal(const CsrMatrix& a, SymbolicStructure sym0) {
  SupernodalLU f = init_supernodal_storage(a, std::move(sym0));
  const SymbolicStructure& sym = f.sym;
  const auto& part = sym.part;
  const Idx nsup = sym.num_supernodes();

  // Everything the workers touch is allocated here, before any of them
  // starts: the inverted diagonal blocks, the subtree split and the list of
  // deferred updates. Workers never allocate, and the pool's own
  // allocations land after every factor array.
  double inverse_flops = 0;
  for (Idx k = 0; k < nsup; ++k) {
    const size_t w = static_cast<size_t>(part.width(k));
    f.diag_linv[static_cast<size_t>(k)].assign(w * w, 0.0);
    f.diag_uinv[static_cast<size_t>(k)].assign(w * w, 0.0);
    inverse_flops += 2.0 / 3.0 * static_cast<double>(w * w * w);
  }
  StepPool pool;
  const SubtreePlan plan = plan_subtrees(sym, pool);
  const DeferredPlan deferred = plan_deferred(sym, plan);

  // Phase 1: the subtrees, one task each, heaviest first. A task runs its
  // steps in ascending order: the diagonal LU, both panel TRSMs whole, and
  // the Schur updates into blocks its subtree owns. The updates into blocks
  // of top supernodes wait in `deferred`. A zero pivot ends the task; the
  // lowest one is thrown below, once no lower top supernode can fail first.
  const auto nsub = static_cast<std::int64_t>(plan.begin.size()) - 1;
  std::vector<Idx> failed(static_cast<size_t>(nsub), nsup);  // nsup: none
  pool.run(threads_for(pool, plan.flops), nsub, [&](std::int64_t s) {
    const auto s0 = static_cast<size_t>(s);
    for (Idx m = plan.begin[s0]; m < plan.begin[s0 + 1]; ++m) {
      const Idx k = plan.members[static_cast<size_t>(m)];
      const Idx w = part.width(k);
      auto& d = f.diag[static_cast<size_t>(k)];
      if (!lu_unpivoted_inplace(w, d)) {
        failed[s0] = k;
        return;
      }
      const Idx r = sym.panel_rows[static_cast<size_t>(k)];
      if (r == 0) continue;
      trsm_right_upper_ld(r, w, d, f.lpanel[static_cast<size_t>(k)], r);
      trsm_left_unit_lower(w, r, d, f.upanel[static_cast<size_t>(k)]);
      const auto nb = static_cast<Idx>(sym.below[static_cast<size_t>(k)].size());
      const Idx own = blocks_in_subtree(sym, plan, k);
      for (Idx bi = 0; bi < nb; ++bi) {
        for (Idx bj = 0; bj < nb; ++bj) {
          if (std::min(bi, bj) < own) {
            schur_update(f, k, static_cast<size_t>(bi), static_cast<size_t>(bj));
          }
        }
      }
    }
  });
  const Idx first_failed = nsub == 0 ? nsup : *std::min_element(failed.begin(), failed.end());

  // Phase 2: the top supernodes in ascending order, each step as in the
  // serial loop: the diagonal LU here, then the panel TRSMs in row chunks
  // of L and column chunks of U, then the Schur updates one (I, J) pair per
  // task. Before step K, the deferred updates of the subtree steps below K
  // run, one task per target block in ascending step order. So every
  // element gets its updates in ascending step order, as in the serial
  // loop, and the bits do not depend on the number of threads.
  for (const Idx k : plan.top) {
    if (first_failed < k) throw pivot_error(first_failed);
    const auto t = static_cast<size_t>(plan.tops_before[static_cast<size_t>(k)]);
    const std::int64_t g0 = deferred.flush_begin[t];
    pool.run(threads_for(pool, deferred.flush_flops[t]), deferred.flush_begin[t + 1] - g0,
             [&](std::int64_t g) {
               for (std::int64_t u = deferred.group_begin[static_cast<size_t>(g0 + g)];
                    u < deferred.group_begin[static_cast<size_t>(g0 + g) + 1]; ++u) {
                 const Deferred& x = deferred.updates[static_cast<size_t>(u)];
                 schur_update(f, x.k, static_cast<size_t>(x.bi), static_cast<size_t>(x.bj));
               }
             });

    const Idx w = part.width(k);
    auto& d = f.diag[static_cast<size_t>(k)];
    if (!lu_unpivoted_inplace(w, d)) throw pivot_error(k);
    const Idx r = sym.panel_rows[static_cast<size_t>(k)];
    if (r == 0) continue;
    const int threads = threads_for(pool, 2.0 * r * w * (w + r));
    const Idx lrows = ((r + threads - 1) / threads + 7) & ~Idx{7};  // whole 8-row tiles
    const Idx ucols = (r + threads - 1) / threads;
    const int lchunks = static_cast<int>((r + lrows - 1) / lrows);
    const int uchunks = static_cast<int>((r + ucols - 1) / ucols);
    const std::span<Real> lp(f.lpanel[static_cast<size_t>(k)]);
    const std::span<Real> up(f.upanel[static_cast<size_t>(k)]);
    pool.run(threads, lchunks + uchunks, [&](std::int64_t c) {
      if (c < lchunks) {
        const Idx i0 = static_cast<Idx>(c) * lrows;
        trsm_right_upper_ld(std::min(lrows, r - i0), w, d, lp.subspan(i0), r);
      } else {
        const Idx j0 = static_cast<Idx>(c - lchunks) * ucols;
        trsm_left_unit_lower(w, std::min(ucols, r - j0), d,
                             up.subspan(static_cast<size_t>(j0) * w));
      }
    });
    const auto nb = static_cast<std::int64_t>(sym.below[static_cast<size_t>(k)].size());
    pool.run(threads, nb * nb, [&](std::int64_t c) {
      schur_update(f, k, static_cast<size_t>(c / nb), static_cast<size_t>(c % nb));
    });
  }
  if (first_failed < nsup) throw pivot_error(first_failed);

  // Inverted diagonal blocks: diag[K] is final once step K's LU is done.
  pool.run(threads_for(pool, inverse_flops), 2 * std::int64_t{nsup}, [&](std::int64_t t) {
    const size_t k = static_cast<size_t>(t / 2);
    const Idx w = part.width(static_cast<Idx>(k));
    if (t % 2 == 0) {
      invert_unit_lower(w, f.diag[k], f.diag_linv[k]);
    } else {
      invert_upper(w, f.diag[k], f.diag_uinv[k]);
    }
  });
  return f;
}

FactoredSystem analyze_and_factor(const CsrMatrix& a, const AnalyzeOptions& opt) {
  const bool symmetric = a.has_symmetric_pattern();
  const CsrMatrix symmetrized = symmetric ? CsrMatrix() : a.symmetrized_pattern();
  const CsrMatrix& sym_a = symmetric ? a : symmetrized;
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
