#include "core/solver2d.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "factor/dense.hpp"

namespace sptrsv {

namespace {

// Tag layout within a solve's window: tag_base + 4*supernode + kind.
constexpr int kKindYsol = 0;  // L-solve solution broadcast
constexpr int kKindLsum = 1;  // L-solve partial-sum reduction
constexpr int kKindXsol = 2;  // U-solve solution broadcast
constexpr int kKindUsum = 3;  // U-solve partial-sum reduction

}  // namespace

LSolve2dResult solve_l_2d(Comm& grid, const Solve2dPlan& plan, const VecMap& b_local,
                          const VecMap& lsum_in, Idx nrhs, int tag_base,
                          TimeCategory cat) {
  const auto& shape = plan.shape();
  const auto& lu = plan.lu();
  const auto& part = lu.sym.part;
  const int me = grid.rank();
  const int myrow = shape.row_of(me);
  const int mycol = shape.col_of(me);
  const Idx nsup_window = static_cast<Idx>(lu.num_supernodes());
  const TraceSpan solve_span = grid.annotate("solve_l_2d", tag_base);

  // Null handles (no-op add) unless RunOptions::metrics is on — the solver's
  // contribution to the registry taxonomy (docs/OBSERVABILITY.md).
  const MetricsRegistry::Counter m_rows = grid.metric_counter("solver2d.rows_completed");
  const MetricsRegistry::Counter m_diag = grid.metric_counter("solver2d.diag_solves");
  const MetricsRegistry::Counter m_bcast = grid.metric_counter("tree.bcast_sends");
  const MetricsRegistry::Counter m_reduce = grid.metric_counter("tree.reduce_sends");

  LSolve2dResult result;

  // Per-row reduction state (only rows whose reduction tree I belong to).
  // Contributions are *recorded* as they arrive but only *summed* when the
  // row completes, in an order fixed by the plan — never by message arrival
  // — so the FP result is bitwise reproducible (docs/DETERMINISM.md).
  struct RowState {
    std::vector<Real> lsum;
    std::vector<std::pair<int, std::vector<Real>>> child_lsum;  // (src, partial)
    Idx pending = 0;
  };
  std::unordered_map<Idx, RowState> rowstate;  // key: row position
  // y(K) for every column whose broadcast reached this rank; gemms against
  // it are deferred to row completion.
  std::unordered_map<Idx, std::vector<Real>> ycache;  // key: supernode
  int expected = 0;
  Idx my_diag = 0;  // diagonal solves this rank roots (epoch pacing)

  for (Idx rp = 0; rp < plan.num_rows(); ++rp) {
    const TreeView t = plan.l_reduce(rp);
    if (!t.contains(me)) continue;
    const Idx i = plan.rows()[static_cast<size_t>(rp)];
    if (t.root() == me && plan.col_pos(i) != kNoIdx) ++my_diag;
    RowState st;
    st.lsum.assign(static_cast<size_t>(part.width(i)) * nrhs, 0.0);
    if (shape.owner_row(i) == myrow) {
      for (const Idx k : plan.row_pattern(rp)) {
        if (shape.owner_col(k) == mycol) ++st.pending;
      }
    }
    const int children = t.num_children(me);
    st.pending += children;
    expected += children;
    rowstate.emplace(rp, std::move(st));
  }
  for (Idx cp = 0; cp < plan.num_cols(); ++cp) {
    const TreeView t = plan.l_bcast(cp);
    if (t.contains(me) && t.root() != me) ++expected;
  }

  // Handlers communicate through an explicit ready queue instead of
  // recursing: DAG chains can be O(nsup) long (e.g. on a 1x1 grid), which
  // would otherwise overflow the rank's fiber stack.
  std::vector<Idx> ready_rows;

  auto process_y = [&](Idx cp, std::span<const Real> yk) {
    const Idx k = plan.cols()[static_cast<size_t>(cp)];
    const TreeView t = plan.l_bcast(cp);
    {
      // Span arg = my depth in the broadcast tree (relay stage number).
      const TraceSpan bcast_span = grid.annotate("l_bcast", t.depth_of(me));
      t.for_each_child(me, [&](int child) {
        m_bcast.add();
        grid.send(child, tag_base + 4 * static_cast<int>(k) + kKindYsol,
                  std::vector<Real>(yk.begin(), yk.end()), cat);
      });
    }
    if (shape.owner_col(k) != mycol) return;
    // Charge the gemm time for my blocks in this column now (the compute
    // overlaps the remaining traffic), but defer the numeric fold to row
    // completion so the accumulation order is fixed by the plan.
    ycache.emplace(k, std::vector<Real>(yk.begin(), yk.end()));
    for (const Idx i : plan.below(cp)) {
      if (shape.owner_row(i) != myrow) continue;
      const Idx rp = plan.row_pos(i);
      auto& st = rowstate.at(rp);
      grid.compute(plan.block_flops(i, k, nrhs));
      if (--st.pending == 0) ready_rows.push_back(rp);
    }
  };

  auto complete_row = [&](Idx rp) {
    const Idx i = plan.rows()[static_cast<size_t>(rp)];
    const TraceSpan row_span = grid.annotate("l_row", static_cast<std::int64_t>(i));
    m_rows.add();
    const TreeView t = plan.l_reduce(rp);
    auto& st = rowstate.at(rp);
    // Reduce in plan order: carry-in first, then my blocks by ascending
    // column, then child partials by ascending source rank.
    if (t.root() == me) {
      const auto itl = lsum_in.find(i);
      if (itl != lsum_in.end()) {
        if (itl->second.size() != st.lsum.size()) {
          throw std::invalid_argument("solve_l_2d: lsum_in size mismatch");
        }
        for (size_t v = 0; v < st.lsum.size(); ++v) st.lsum[v] += itl->second[v];
      }
    }
    if (shape.owner_row(i) == myrow) {
      const auto pat = plan.row_pattern(rp);
      const auto pidx = plan.row_pattern_index(rp);
      const Idx wi = part.width(i);
      for (size_t pi = 0; pi < pat.size(); ++pi) {
        const Idx k = pat[pi];
        if (shape.owner_col(k) != mycol) continue;
        const Idx wk = part.width(k);
        const Idx ldk = lu.sym.panel_rows[static_cast<size_t>(k)];
        const Idx off =
            lu.sym.below_offset[static_cast<size_t>(k)][static_cast<size_t>(pidx[pi])];
        gemm_plus_ld(wi, wk, nrhs,
                     std::span<const Real>(lu.lpanel[static_cast<size_t>(k)]).subspan(
                         static_cast<size_t>(off)),
                     ldk, ycache.at(k), wk, st.lsum, wi);
      }
    }
    std::sort(st.child_lsum.begin(), st.child_lsum.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [src, partial] : st.child_lsum) {
      for (size_t v = 0; v < st.lsum.size(); ++v) st.lsum[v] += partial[v];
    }
    if (t.root() != me) {
      m_reduce.add();
      grid.send(t.parent_of(me), tag_base + 4 * static_cast<int>(i) + kKindLsum,
                std::move(st.lsum), cat);
      return;
    }
    const Idx cp = plan.col_pos(i);
    if (cp == kNoIdx) {  // external row: hand the accumulated sums back
      result.external_lsum.emplace(i, std::move(st.lsum));
      return;
    }
    // Diagonal solve: y(K) = inv(L_KK) * (b(K) - lsum(K)).
    const Idx w = part.width(i);
    std::vector<Real> rhs(static_cast<size_t>(w) * nrhs, 0.0);
    const auto itb = b_local.find(i);
    if (itb != b_local.end()) {
      if (itb->second.size() != rhs.size()) {
        throw std::invalid_argument("solve_l_2d: b_local size mismatch");
      }
      rhs = itb->second;
    }
    for (size_t v = 0; v < rhs.size(); ++v) rhs[v] -= st.lsum[v];
    std::vector<Real> yk(static_cast<size_t>(w) * nrhs, 0.0);
    gemm_plus(w, w, nrhs, lu.diag_linv[static_cast<size_t>(i)], rhs, yk);
    grid.compute(plan.diag_flops(i, nrhs));
    m_diag.add();
    const auto [it, inserted] = result.y.emplace(i, std::move(yk));
    assert(inserted);
    process_y(cp, it->second);
  };

  // Buddy-checkpoint hook: the solve state worth surviving a crash is the
  // append-only y-fragment map plus the remaining-message cursor. Epochs cut
  // at quarter marks of local diagonal-solve progress (the 2D solve has no
  // level barriers to hang them on). No-op unless a crash model is active.
  // The per-row accumulation order is a pure function of the *partition*
  // (owner rows and their DAG order), not of which physical rank hosts it —
  // so an adopter replaying this partition after an elastic shrink
  // (RunOptions::degrade) reproduces the victim's floating-point results
  // bit for bit.
  const CheckpointScope ckpt = grid.register_checkpoint(
      "solve_l_2d",
      [&] { return checkpoint_pack(result.y, static_cast<double>(expected)); },
      [&](const CheckpointImage& img) {
        checkpoint_verify(img, result.y, "solve_l_2d");
      },
      [&] { return sdc_spans(result.y); });
  Idx next_mark = 1;

  auto drain = [&] {
    while (!ready_rows.empty()) {
      const Idx rp = ready_rows.back();
      ready_rows.pop_back();
      complete_row(rp);
    }
    while (next_mark < 4 && my_diag > 0 &&
           static_cast<Idx>(result.y.size()) * 4 >= next_mark * my_diag) {
      grid.checkpoint_epoch(next_mark);
      ++next_mark;
    }
  };

  // Kick off: rows that are already complete (DAG sources and externals
  // with no local contributions).
  for (auto& [rp, st] : rowstate) {
    if (st.pending == 0) ready_rows.push_back(rp);
  }
  drain();

  // Message-driven loop (Algorithm 3's while-loop).
  const int tag_hi = tag_base + 4 * static_cast<int>(nsup_window) + 4;
  while (expected > 0) {
    Message m;
    try {
      m = grid.recv_range(kAnySource, tag_base, tag_hi, cat);
    } catch (FaultError& fe) {
      rethrow_with_phase(fe, "solve_l_2d");
    }
    --expected;
    const int rel = m.tag - tag_base;
    const Idx k = static_cast<Idx>(rel / 4);
    const int kind = rel % 4;
    if (kind == kKindYsol) {
      process_y(plan.col_pos(k), m.data);
    } else if (kind == kKindLsum) {
      const Idx rp = plan.row_pos(k);
      auto& st = rowstate.at(rp);
      if (m.data.size() != st.lsum.size()) {
        throw std::runtime_error("solve_l_2d: lsum message size mismatch");
      }
      st.child_lsum.emplace_back(m.src, std::move(m.data));
      if (--st.pending == 0) ready_rows.push_back(rp);
    } else {
      throw std::runtime_error("solve_l_2d: unexpected message kind");
    }
    drain();
  }
  return result;
}

USolve2dResult solve_u_2d(Comm& grid, const Solve2dPlan& plan, const VecMap& y_local,
                          const VecMap& x_external, Idx nrhs, int tag_base,
                          TimeCategory cat) {
  const auto& shape = plan.shape();
  const auto& lu = plan.lu();
  const auto& part = lu.sym.part;
  const int me = grid.rank();
  const int myrow = shape.row_of(me);
  const int mycol = shape.col_of(me);
  const Idx nsup_window = static_cast<Idx>(lu.num_supernodes());
  const TraceSpan solve_span = grid.annotate("solve_u_2d", tag_base);

  // Same taxonomy as the L-solve; counters aggregate across both phases.
  const MetricsRegistry::Counter m_cols = grid.metric_counter("solver2d.cols_completed");
  const MetricsRegistry::Counter m_diag = grid.metric_counter("solver2d.diag_solves");
  const MetricsRegistry::Counter m_bcast = grid.metric_counter("tree.bcast_sends");
  const MetricsRegistry::Counter m_reduce = grid.metric_counter("tree.reduce_sends");

  USolve2dResult result;

  // Per-column reduction state (columns whose U-reduction tree I'm in).
  // Same deferred-accumulation scheme as the L-solve: record contributions
  // at arrival, sum in plan order at completion.
  struct ColState {
    std::vector<Real> usum;
    std::vector<std::pair<int, std::vector<Real>>> child_usum;  // (src, partial)
    Idx pending = 0;
  };
  std::unordered_map<Idx, ColState> colstate;  // key: column position
  std::unordered_map<Idx, std::vector<Real>> xcache;  // key: supernode
  int expected = 0;
  Idx my_diag = 0;  // diagonal solves this rank roots (epoch pacing)

  for (Idx cp = 0; cp < plan.num_cols(); ++cp) {
    const TreeView t = plan.u_reduce(cp);
    if (!t.contains(me)) continue;
    const Idx k = plan.cols()[static_cast<size_t>(cp)];
    if (t.root() == me) ++my_diag;
    ColState st;
    st.usum.assign(static_cast<size_t>(part.width(k)) * nrhs, 0.0);
    if (shape.owner_row(k) == myrow) {
      for (const Idx i : plan.below(cp)) {
        if (shape.owner_col(i) == mycol) ++st.pending;
      }
    }
    const int children = t.num_children(me);
    st.pending += children;
    expected += children;
    colstate.emplace(cp, std::move(st));
  }
  for (Idx rp = 0; rp < plan.num_rows(); ++rp) {
    const TreeView t = plan.u_bcast(rp);
    if (t.contains(me) && t.root() != me) ++expected;
  }

  std::vector<Idx> ready_cols;  // explicit queue; see L-solve comment

  auto process_x = [&](Idx rp, std::span<const Real> xi) {
    const Idx i = plan.rows()[static_cast<size_t>(rp)];
    const TreeView t = plan.u_bcast(rp);
    {
      // Span arg = my depth in the broadcast tree (relay stage number).
      const TraceSpan bcast_span = grid.annotate("u_bcast", t.depth_of(me));
      t.for_each_child(me, [&](int child) {
        m_bcast.add();
        grid.send(child, tag_base + 4 * static_cast<int>(i) + kKindXsol,
                  std::vector<Real>(xi.begin(), xi.end()), cat);
      });
    }
    if (shape.owner_col(i) != mycol) return;
    // Charge the gemm time for my blocks in this row now; the numeric
    // usum(K) += U(K,I) * x(I) fold runs at column completion, in plan
    // order (see the L-solve).
    xcache.emplace(i, std::vector<Real>(xi.begin(), xi.end()));
    for (const Idx k : plan.row_pattern(rp)) {
      if (shape.owner_row(k) != myrow) continue;
      const Idx cp = plan.col_pos(k);
      auto& st = colstate.at(cp);
      grid.compute(plan.block_flops(i, k, nrhs));
      if (--st.pending == 0) ready_cols.push_back(cp);
    }
  };

  auto complete_col = [&](Idx cp) {
    const Idx k = plan.cols()[static_cast<size_t>(cp)];
    const TraceSpan col_span = grid.annotate("u_col", static_cast<std::int64_t>(k));
    m_cols.add();
    const TreeView t = plan.u_reduce(cp);
    auto& st = colstate.at(cp);
    // Reduce in plan order: my blocks by ascending row, then child partials
    // by ascending source rank.
    if (shape.owner_row(k) == myrow) {
      const auto blist = plan.below(cp);
      const auto bidx = plan.below_index(cp);
      const Idx wk = part.width(k);
      for (size_t bi = 0; bi < blist.size(); ++bi) {
        const Idx i = blist[bi];
        if (shape.owner_col(i) != mycol) continue;
        const Idx wi = part.width(i);
        const Idx off =
            lu.sym.below_offset[static_cast<size_t>(k)][static_cast<size_t>(bidx[bi])];
        // U(K,I) is a packed wk x wi block at column offset `off` of K's panel.
        gemm_plus_ld(wk, wi, nrhs,
                     std::span<const Real>(lu.upanel[static_cast<size_t>(k)])
                         .subspan(static_cast<size_t>(off) * static_cast<size_t>(wk)),
                     wk, xcache.at(i), wi, st.usum, wk);
      }
    }
    std::sort(st.child_usum.begin(), st.child_usum.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [src, partial] : st.child_usum) {
      for (size_t v = 0; v < st.usum.size(); ++v) st.usum[v] += partial[v];
    }
    if (t.root() != me) {
      m_reduce.add();
      grid.send(t.parent_of(me), tag_base + 4 * static_cast<int>(k) + kKindUsum,
                std::move(st.usum), cat);
      return;
    }
    // x(K) = inv(U_KK) * (y(K) - usum(K)).
    const Idx w = part.width(k);
    std::vector<Real> rhs(static_cast<size_t>(w) * nrhs, 0.0);
    const auto ity = y_local.find(k);
    if (ity != y_local.end()) {
      if (ity->second.size() != rhs.size()) {
        throw std::invalid_argument("solve_u_2d: y_local size mismatch");
      }
      rhs = ity->second;
    }
    for (size_t v = 0; v < rhs.size(); ++v) rhs[v] -= st.usum[v];
    std::vector<Real> xk(static_cast<size_t>(w) * nrhs, 0.0);
    gemm_plus(w, w, nrhs, lu.diag_uinv[static_cast<size_t>(k)], rhs, xk);
    grid.compute(plan.diag_flops(k, nrhs));
    m_diag.add();
    const auto [it, inserted] = result.x.emplace(k, std::move(xk));
    assert(inserted);
    process_x(plan.row_pos(k), it->second);
  };

  // Buddy-checkpoint hook; mirrors the L-solve (append-only x fragments,
  // quarter-mark epochs on local diagonal-solve progress).
  const CheckpointScope ckpt = grid.register_checkpoint(
      "solve_u_2d",
      [&] { return checkpoint_pack(result.x, static_cast<double>(expected)); },
      [&](const CheckpointImage& img) {
        checkpoint_verify(img, result.x, "solve_u_2d");
      },
      [&] { return sdc_spans(result.x); });
  Idx next_mark = 1;

  auto drain = [&] {
    while (!ready_cols.empty()) {
      const Idx cp = ready_cols.back();
      ready_cols.pop_back();
      complete_col(cp);
    }
    while (next_mark < 4 && my_diag > 0 &&
           static_cast<Idx>(result.x.size()) * 4 >= next_mark * my_diag) {
      grid.checkpoint_epoch(next_mark);
      ++next_mark;
    }
  };

  // Kick off. Queue the zero-dependency columns BEFORE processing external
  // rows: external broadcasts decrement pendings and push newly-completed
  // columns themselves, so queueing afterwards would enqueue those twice.
  for (auto& [cp, st] : colstate) {
    if (st.pending == 0) ready_cols.push_back(cp);
  }
  for (const Idx i : plan.external_rows()) {
    const Idx rp = plan.row_pos(i);
    const TreeView t = plan.u_bcast(rp);
    if (t.root() != me) continue;
    const auto it = x_external.find(i);
    if (it == x_external.end()) {
      throw std::invalid_argument("solve_u_2d: missing x_external for row " +
                                  std::to_string(i));
    }
    process_x(rp, it->second);
  }
  drain();

  const int tag_hi = tag_base + 4 * static_cast<int>(nsup_window) + 4;
  while (expected > 0) {
    Message m;
    try {
      m = grid.recv_range(kAnySource, tag_base, tag_hi, cat);
    } catch (FaultError& fe) {
      rethrow_with_phase(fe, "solve_u_2d");
    }
    --expected;
    const int rel = m.tag - tag_base;
    const Idx k = static_cast<Idx>(rel / 4);
    const int kind = rel % 4;
    if (kind == kKindXsol) {
      process_x(plan.row_pos(k), m.data);
    } else if (kind == kKindUsum) {
      const Idx cp = plan.col_pos(k);
      auto& st = colstate.at(cp);
      if (m.data.size() != st.usum.size()) {
        throw std::runtime_error("solve_u_2d: usum message size mismatch");
      }
      st.child_usum.emplace_back(m.src, std::move(m.data));
      if (--st.pending == 0) ready_cols.push_back(cp);
    } else {
      throw std::runtime_error("solve_u_2d: unexpected message kind");
    }
    drain();
  }
  return result;
}

}  // namespace sptrsv
