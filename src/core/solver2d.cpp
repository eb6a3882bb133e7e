#include "core/solver2d.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "factor/dense.hpp"

namespace sptrsv {

namespace {

/// The names and message kinds of one triangle's solve. The rest of the
/// L/U mirror is the plan's role binding (Solve2dPlan::view), where a block
/// is stored (block_of) and which diagonal inverse applies.
struct TriangleNames {
  const char* solve;      ///< solve span, checkpoint hook, fault phase, error prefix
  const char* bcast;      ///< relay-broadcast span
  const char* target;     ///< per-target completion span
  const char* completed;  ///< per-target completion counter
  // Tag layout within a solve's window: tag_base + 4*supernode + kind.
  int kind_solution;  ///< solution broadcast
  int kind_sum;       ///< partial-sum reduction
};

constexpr TriangleNames kNames[] = {  // indexed by Triangle
    {"solve_l_2d", "l_bcast", "l_row", "solver2d.rows_completed", 0, 1},
    {"solve_u_2d", "u_bcast", "u_col", "solver2d.cols_completed", 2, 3},
};

/// Block (target, contributor) of the triangle with its leading dimension.
/// L(I,K) sits in K's column panel at its row offset; U(K,I) is a packed
/// width(K) x width(I) block of K's row panel at that column offset.
std::pair<std::span<const Real>, Idx> block_of(const SupernodalLU& lu, Triangle tri,
                                               Idx target, Idx contributor,
                                               Idx block_index) {
  const bool lower = tri == Triangle::kLower;
  const auto k = static_cast<size_t>(lower ? contributor : target);
  const auto off =
      static_cast<size_t>(lu.sym.below_offset[k][static_cast<size_t>(block_index)]);
  if (lower) {
    return {std::span<const Real>(lu.lpanel[k]).subspan(off), lu.sym.panel_rows[k]};
  }
  const Idx wk = lu.sym.part.width(target);
  return {std::span<const Real>(lu.upanel[k]).subspan(off * static_cast<size_t>(wk)), wk};
}

struct Solve2dOut {
  VecMap solved;       ///< solutions of the sources this rank diag-owns
  VecMap handed_back;  ///< partial sums of the external targets this rank roots
};

/// One message-driven 2D triangular solve (Algorithm 3) over the roles of
/// `plan.view(tri)`: whoever roots a target's reduction tree solves it once
/// every partial sum has arrived, then sends the solution down the source's
/// broadcast tree; owners of the source's blocks fold it into their local
/// partial sums of its dependents and push each up that target's reduction
/// tree. `rhs` holds the right-hand side pieces, `carry_in` partial sums to
/// add before the local blocks, `seeded` the seeded sources' solutions.
Solve2dOut solve_2d(Comm& grid, const Solve2dPlan& plan, Triangle tri, const VecMap& rhs,
                    const VecMap& carry_in, const VecMap& seeded, Idx nrhs, int tag_base,
                    TimeCategory cat) {
  const TriangleNames& names = kNames[static_cast<int>(tri)];
  const auto fail = [&](const char* what) {
    return std::string(names.solve) + ": " + what;
  };
  const Solve2dPlan::View v = plan.view(tri);
  const auto& shape = plan.shape();
  const auto& lu = plan.lu();
  const auto& part = lu.sym.part;
  const int me = grid.rank();
  const int myrow = shape.row_of(me);
  const int mycol = shape.col_of(me);
  const Idx nsup_window = static_cast<Idx>(lu.num_supernodes());
  const TraceSpan solve_span = grid.annotate(names.solve, tag_base);

  // Null handles (no-op add) unless RunOptions::metrics is on — the solver's
  // contribution to the registry taxonomy (docs/OBSERVABILITY.md). All but
  // the completion counter aggregate across both triangles.
  const MetricsRegistry::Counter m_done = grid.metric_counter(names.completed);
  const MetricsRegistry::Counter m_diag = grid.metric_counter("solver2d.diag_solves");
  const MetricsRegistry::Counter m_bcast = grid.metric_counter("tree.bcast_sends");
  const MetricsRegistry::Counter m_reduce = grid.metric_counter("tree.reduce_sends");

  Solve2dOut out;

  // This rank's part in the solve, indexed once per plan: the targets whose
  // reduction tree holds it and the sources whose broadcast tree does. Per
  // target and per source state lives at the item's slot in these lists.
  const Solve2dPlan::Roles& roles = plan.roles(tri);
  const std::span<const Idx> my_targets = roles.targets_of(me);
  const std::span<const Idx> my_sources = roles.sources_of(me);
  // Slot of supernode s in one of the lists: positions ascend with
  // supernode ids, so one binary search over the rank's own list finds it.
  const auto slot_of = [](std::span<const Idx> list, std::span<const Idx> ids, Idx s) {
    const auto it = std::lower_bound(list.begin(), list.end(), s, [&](Idx pos, Idx id) {
      return ids[static_cast<size_t>(pos)] < id;
    });
    if (it == list.end() || ids[static_cast<size_t>(*it)] != s) {
      throw std::logic_error("solve_2d: supernode outside this rank's roles");
    }
    return static_cast<size_t>(it - list.begin());
  };
  const auto target_slot = [&](Idx s) { return slot_of(my_targets, v.targets, s); };
  const auto source_slot = [&](Idx s) { return slot_of(my_sources, v.sources, s); };

  // Per-target reduction state. Contributions are *recorded* as they arrive
  // but only *summed* when the target completes, in an order fixed by the
  // plan — never by message arrival — so the FP result is bitwise
  // reproducible (docs/DETERMINISM.md).
  struct TargetState {
    std::vector<Real> sum;
    std::vector<std::pair<int, std::vector<Real>>> child_sums;  // (src, partial)
    Idx pending = 0;
  };
  std::vector<TargetState> state(my_targets.size());
  // The kick-off below queues the targets complete at start in this map's
  // iteration order, and the modeled clock depends on that order
  // (docs/DETERMINISM.md). So the map gets the same keys in the same order
  // as ever (target positions, ascending), and is never reserved or
  // rehashed by hand.
  std::unordered_map<Idx, size_t> kickoff;  // target position -> slot
  {
    const auto pending = roles.pending_of(me);
    const auto children = roles.children_of(me);
    for (size_t j = 0; j < my_targets.size(); ++j) {
      const Idx tp = my_targets[j];
      const Idx s = v.targets[static_cast<size_t>(tp)];
      TargetState& st = state[j];
      st.sum.assign(static_cast<size_t>(part.width(s)) * nrhs, 0.0);
      st.child_sums.reserve(static_cast<size_t>(children[j]));
      st.pending = pending[j];
      kickoff.emplace(tp, j);
    }
  }
  // Solution of every source whose broadcast reached this rank, by slot:
  // a received one is moved out of its message into `received`, a solved
  // or seeded one stays where it is. Gemms against them are deferred to
  // target completion.
  std::vector<std::vector<Real>> received(my_sources.size());
  std::vector<const Real*> solution(my_sources.size(), nullptr);
  int expected = roles.receives[static_cast<size_t>(me)];
  const Idx my_diag = roles.diag_solves[static_cast<size_t>(me)];  // epoch pacing

  // Handlers communicate through an explicit ready queue instead of
  // recursing: DAG chains can be O(nsup) long (e.g. on a 1x1 grid), which
  // would otherwise overflow the rank's fiber stack.
  std::vector<size_t> ready;  // target slots

  // `xs` must stay valid until the solve returns.
  auto process_source = [&](Idx sp, std::span<const Real> xs) {
    const Idx s = v.sources[static_cast<size_t>(sp)];
    const TreeView t = v.bcast(sp);
    {
      // Span arg = my depth in the broadcast tree (relay stage number).
      const TraceSpan bcast_span = grid.annotate(names.bcast, t.depth_of(me));
      t.for_each_child(me, [&](int child) {
        m_bcast.add();
        grid.send(child, tag_base + 4 * static_cast<int>(s) + names.kind_solution,
                  std::vector<Real>(xs.begin(), xs.end()), cat);
      });
    }
    if (shape.owner_col(s) != mycol) return;
    // Charge the gemm time for my blocks of this source now (the compute
    // overlaps the remaining traffic), but defer the numeric fold to target
    // completion so the accumulation order is fixed by the plan.
    solution[source_slot(s)] = xs.data();
    for (const Idx d : v.dependents[static_cast<size_t>(sp)]) {
      if (shape.owner_row(d) != myrow) continue;
      const size_t j = target_slot(d);
      grid.compute(plan.block_flops(d, s, nrhs), nrhs);
      if (--state[j].pending == 0) ready.push_back(j);
    }
  };

  auto complete_target = [&](size_t j) {
    const Idx tp = my_targets[j];
    const Idx s = v.targets[static_cast<size_t>(tp)];
    const TraceSpan target_span =
        grid.annotate(names.target, static_cast<std::int64_t>(s));
    m_done.add();
    const TreeView t = v.reduce(tp);
    TargetState& st = state[j];
    // Reduce in plan order: carry-in first, then my blocks by ascending
    // contributor, then child partials by ascending source rank.
    if (t.root() == me) {
      const auto itc = carry_in.find(s);
      if (itc != carry_in.end()) {
        if (itc->second.size() != st.sum.size()) {
          throw std::invalid_argument(fail("carried-in partial sum size mismatch"));
        }
        for (size_t e = 0; e < st.sum.size(); ++e) st.sum[e] += itc->second[e];
      }
    }
    if (shape.owner_row(s) == myrow) {
      const auto& contributors = v.contributors[static_cast<size_t>(tp)];
      const auto& block_index = v.block_index[static_cast<size_t>(tp)];
      const Idx ws = part.width(s);
      for (size_t k = 0; k < contributors.size(); ++k) {
        const Idx c = contributors[k];
        if (shape.owner_col(c) != mycol) continue;
        const Idx wc = part.width(c);
        const auto [block, ld] = block_of(lu, tri, s, c, block_index[k]);
        const std::span<const Real> xc(solution[source_slot(c)],
                                       static_cast<size_t>(wc) * nrhs);
        gemm_plus_ld(ws, wc, nrhs, block, ld, xc, wc, st.sum, ws);
      }
    }
    std::sort(st.child_sums.begin(), st.child_sums.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [src, partial] : st.child_sums) {
      for (size_t e = 0; e < st.sum.size(); ++e) st.sum[e] += partial[e];
    }
    if (t.root() != me) {
      m_reduce.add();
      grid.send(t.parent_of(me), tag_base + 4 * static_cast<int>(s) + names.kind_sum,
                std::move(st.sum), cat);
      return;
    }
    const Idx sp = v.source_pos(s);
    if (sp == kNoIdx) {  // external target: hand the accumulated sums back
      out.handed_back.emplace(s, std::move(st.sum));
      return;
    }
    // Diagonal solve: x(S) = inv(T_SS) * (rhs(S) - sum(S)), with the
    // difference formed in place over the sum.
    std::vector<Real>& r = st.sum;
    const auto itr = rhs.find(s);
    if (itr != rhs.end()) {
      if (itr->second.size() != r.size()) {
        throw std::invalid_argument(fail("right-hand side size mismatch"));
      }
      for (size_t e = 0; e < r.size(); ++e) r[e] = itr->second[e] - r[e];
    } else {
      for (size_t e = 0; e < r.size(); ++e) r[e] = 0.0 - r[e];
    }
    const Idx w = part.width(s);
    std::vector<Real> xs(static_cast<size_t>(w) * nrhs, 0.0);
    const auto& diag_inv = tri == Triangle::kLower ? lu.diag_linv : lu.diag_uinv;
    gemm_plus(w, w, nrhs, diag_inv[static_cast<size_t>(s)], r, xs);
    grid.compute(plan.diag_flops(s, nrhs), nrhs);
    m_diag.add();
    const auto [it, inserted] = out.solved.emplace(s, std::move(xs));
    assert(inserted);
    process_source(sp, it->second);
  };

  // Buddy checkpoints: the solve state worth surviving a crash is the
  // append-only solution map. Epochs cut at quarter marks of local
  // diagonal-solve progress (the 2D solve has no level barriers to hang them
  // on). No-op unless a crash model, SDC or ABFT is active.
  // The per-target accumulation order is a pure function of the *partition*
  // (owner rows and their DAG order), not of which physical rank hosts it —
  // so an adopter replaying this partition after an elastic shrink
  // (RunOptions::degrade) reproduces the victim's floating-point results
  // bit for bit.
  const CheckpointScope ckpt = grid.register_checkpoint(
      names.solve, StateKind::kAppendOnly, [&] { return map_state(out.solved); });
  Idx next_mark = 1;

  auto drain = [&] {
    while (!ready.empty()) {
      const size_t j = ready.back();
      ready.pop_back();
      complete_target(j);
    }
    while (next_mark < 4 && my_diag > 0 &&
           static_cast<Idx>(out.solved.size()) * 4 >= next_mark * my_diag) {
      grid.checkpoint_epoch(next_mark);
      ++next_mark;
    }
  };

  // Kick off: queue the targets that are already complete (DAG sources and
  // externals with no local contributions) BEFORE broadcasting the seeded
  // sources. Those broadcasts decrement pendings and queue newly completed
  // targets themselves, so queueing afterwards would enqueue them twice.
  for (const auto& [tp, j] : kickoff) {
    if (state[j].pending == 0) ready.push_back(j);
  }
  for (const Idx s : v.seeded_sources) {
    const Idx sp = v.source_pos(s);
    if (v.bcast(sp).root() != me) continue;
    const auto it = seeded.find(s);
    if (it == seeded.end()) {
      throw std::invalid_argument(std::string(names.solve) +
                                  ": missing x_external for row " + std::to_string(s));
    }
    process_source(sp, it->second);
  }
  drain();

  // Message-driven loop (Algorithm 3's while-loop).
  const int tag_hi = tag_base + 4 * static_cast<int>(nsup_window) + 4;
  while (expected > 0) {
    Message m;
    try {
      m = grid.recv_range(kAnySource, tag_base, tag_hi, cat);
    } catch (FaultError& fe) {
      rethrow_with_phase(fe, names.solve);
    }
    --expected;
    const int rel = m.tag - tag_base;
    const Idx s = static_cast<Idx>(rel / 4);
    const int kind = rel % 4;
    if (kind == names.kind_solution) {
      std::vector<Real>& xs = received[source_slot(s)];
      xs = std::move(m.data);
      process_source(v.source_pos(s), xs);
    } else if (kind == names.kind_sum) {
      const size_t j = target_slot(s);
      TargetState& st = state[j];
      if (m.data.size() != st.sum.size()) {
        throw std::runtime_error(fail("partial-sum message size mismatch"));
      }
      st.child_sums.emplace_back(m.src, std::move(m.data));
      if (--st.pending == 0) ready.push_back(j);
    } else {
      throw std::runtime_error(fail("unexpected message kind"));
    }
    drain();
  }
  return out;
}

}  // namespace

LSolve2dResult solve_l_2d(Comm& grid, const Solve2dPlan& plan, const VecMap& b_local,
                          const VecMap& lsum_in, Idx nrhs, int tag_base,
                          TimeCategory cat) {
  Solve2dOut out =
      solve_2d(grid, plan, Triangle::kLower, b_local, lsum_in, {}, nrhs, tag_base, cat);
  return {std::move(out.solved), std::move(out.handed_back)};
}

USolve2dResult solve_u_2d(Comm& grid, const Solve2dPlan& plan, const VecMap& y_local,
                          const VecMap& x_external, Idx nrhs, int tag_base,
                          TimeCategory cat) {
  return {solve_2d(grid, plan, Triangle::kUpper, y_local, {}, x_external, nrhs, tag_base,
                   cat).solved};
}

}  // namespace sptrsv
