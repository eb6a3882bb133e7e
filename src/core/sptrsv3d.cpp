#include "core/sptrsv3d.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "core/refinement.hpp"
#include "dist/solve_plan.hpp"
#include "factor/sptrsv_seq.hpp"

namespace sptrsv {

namespace {

// Tag windows. Each elimination-tree level of the baseline gets its own
// window so overlapping solves on one grid communicator cannot mix
// messages; the proposed algorithm uses windows 0 (L) and 1 (U).
int tag_window(const SupernodalLU& lu, int window) {
  return window * (4 * static_cast<int>(lu.num_supernodes()) + 4);
}

// z-line exchange tags (separate communicator, separate numbering). The
// baseline exchanges one message per elimination-tree node per level — it
// predates the packed sparse allreduce of §3.2 — so tags carry both the
// level and the node id.
constexpr int kZTagLsum = 1000000;
constexpr int kZTagXsol = 2000000;
int ztag(int base, int level, Idx node) {
  return base + level * 4096 + static_cast<int>(node);
}

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

int log2_exact(int v) {
  int l = 0;
  while ((1 << l) < v) ++l;
  return l;
}

/// Gathers the (width x nrhs) slice of supernode K from an n x nrhs
/// column-major vector.
std::vector<Real> gather_snode(const SupernodalLU& lu, Idx k, std::span<const Real> v,
                               Idx nrhs) {
  const Idx w = lu.sym.part.width(k);
  const Idx base = lu.sym.part.first_col(k);
  const Idx n = lu.n();
  std::vector<Real> out(static_cast<size_t>(w) * nrhs);
  for (Idx j = 0; j < nrhs; ++j) {
    for (Idx i = 0; i < w; ++i) {
      out[static_cast<size_t>(j) * w + i] = v[static_cast<size_t>(j) * n + base + i];
    }
  }
  return out;
}

void scatter_snode(const SupernodalLU& lu, Idx k, std::span<const Real> piece,
                   std::span<Real> v, Idx nrhs) {
  const Idx w = lu.sym.part.width(k);
  const Idx base = lu.sym.part.first_col(k);
  const Idx n = lu.n();
  for (Idx j = 0; j < nrhs; ++j) {
    for (Idx i = 0; i < w; ++i) {
      v[static_cast<size_t>(j) * n + base + i] = piece[static_cast<size_t>(j) * w + i];
    }
  }
}

/// Nodes `path[s..]` = common ancestors at exchange step s, ascending ids.
std::vector<Idx> nodes_from_step(std::span<const Idx> path, int s) {
  std::vector<Idx> out(path.begin() + s, path.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Packs, in deterministic (node asc, supernode asc) order, the pieces this
/// grid rank diag-owns from `store` for the given nodes.
std::vector<Real> pack_pieces(const SupernodalLU& lu, const NdTree& tree,
                              const Grid2dShape& shape, int grid_rank,
                              std::span<const Idx> nodes, const VecMap& store) {
  std::vector<Real> buf;
  for (const Idx node : nodes) {
    const auto [lo, hi] = node_supernode_range(lu.sym, tree, node);
    for (Idx k = lo; k < hi; ++k) {
      if (shape.diag_owner(k) != grid_rank) continue;
      const auto it = store.find(k);
      if (it == store.end()) {
        throw std::logic_error("pack_pieces: missing piece for supernode " +
                               std::to_string(k));
      }
      buf.insert(buf.end(), it->second.begin(), it->second.end());
    }
  }
  return buf;
}

/// Inverse of pack_pieces; `op` combines incoming data with the store
/// (accumulate for lsum, replace for x).
template <class Op>
void unpack_pieces(const SupernodalLU& lu, const NdTree& tree, const Grid2dShape& shape,
                   int grid_rank, std::span<const Idx> nodes, std::span<const Real> buf,
                   VecMap& store, Idx nrhs, Op op) {
  size_t off = 0;
  for (const Idx node : nodes) {
    const auto [lo, hi] = node_supernode_range(lu.sym, tree, node);
    for (Idx k = lo; k < hi; ++k) {
      if (shape.diag_owner(k) != grid_rank) continue;
      const size_t len = static_cast<size_t>(lu.sym.part.width(k)) * nrhs;
      auto& dst = store[k];
      if (dst.empty()) dst.assign(len, 0.0);
      if (off + len > buf.size() || dst.size() != len) {
        throw std::runtime_error("unpack_pieces: layout mismatch");
      }
      op(dst, buf.subspan(off, len));
      off += len;
    }
  }
  if (off != buf.size()) throw std::runtime_error("unpack_pieces: trailing data");
}

void accumulate_op(std::vector<Real>& dst, std::span<const Real> src) {
  for (size_t i = 0; i < src.size(); ++i) dst[i] += src[i];
}
void replace_op(std::vector<Real>& dst, std::span<const Real> src) {
  std::copy(src.begin(), src.end(), dst.begin());
}

/// Shared, read-only context for all ranks of one solve.
struct SolveContext {
  const SupernodalLU* lu = nullptr;
  NdTree coarse;  // tracked tree cut to log2(pz) levels
  SolveConfig cfg;
  std::span<const Real> b;
  // Plans: proposed -> one per leaf; baseline -> one per tree node.
  std::vector<Solve2dPlan> leaf_plans;  // by leaf z
  std::vector<Solve2dPlan> node_plans;  // by node id
  // Output (disjoint writes by design).
  std::vector<Real>* x_out = nullptr;
  std::vector<RankPhaseTimes>* times = nullptr;
};

/// Snapshot helper for phase accounting.
struct CatSnapshot {
  double fp = 0, xy = 0, z = 0;
  static CatSnapshot take(const Comm& c) {
    return {c.category_time(TimeCategory::kFp), c.category_time(TimeCategory::kXyComm),
            c.category_time(TimeCategory::kZComm)};
  }
};

void run_proposed(const SolveContext& ctx, Comm& world, Comm& grid, Comm& zline, int z) {
  const auto& lu = *ctx.lu;
  const auto& tree = ctx.coarse;
  const auto& shape = ctx.cfg.shape.grid2d();
  const Idx nrhs = ctx.cfg.nrhs;
  const Solve2dPlan& plan = ctx.leaf_plans[static_cast<size_t>(z)];
  const int me = grid.rank();

  // RHS masking (Algorithm 1, lines 4-9): keep b(K) only if this grid is
  // the smallest grid id replicating K's tree node.
  VecMap b_local;
  for (const Idx k : plan.cols()) {
    if (shape.diag_owner(k) != me) continue;
    const Idx node = tree.node_of_column(lu.sym.part.first_col(k));
    if (tree.leaf_range(node).first == z) {
      b_local.emplace(k, gather_snode(lu, k, ctx.b, nrhs));
    }
  }

  world.barrier();
  world.reset_clock();

  // Phase-boundary buddy checkpoints: the y-fragment map is the state worth
  // restoring between the three phases (inside a 2D solve the solve's own
  // registration is innermost and takes over). Its keys are fixed once the
  // L-solve returns; the z-phase then overwrites the values in place.
  LSolve2dResult lres;
  const CheckpointScope ckpt = world.register_checkpoint(
      "sptrsv3d proposed", StateKind::kInPlace, [&] { return map_state(lres.y); });

  // 2D L-solve of the whole L^z (replicated computation, no inter-grid
  // communication).
  try {
    const TraceSpan phase = world.annotate("phase:L", z);
    lres = solve_l_2d(grid, plan, b_local, {}, nrhs, tag_window(lu, 0));
  } catch (FaultError& fe) {
    rethrow_with_phase(fe, "sptrsv3d L-solve");
  }
  world.checkpoint_epoch(0);  // L-phase boundary
  const CatSnapshot after_l = CatSnapshot::take(world);

  // The single inter-grid synchronization: sparse allreduce of the partial
  // ancestor solutions (Algorithm 2).
  try {
    const TraceSpan phase = world.annotate("phase:Z", z);
    const MetricsRegistry::Counter m_segs = world.metric_counter("solver3d.zsegments");
    const auto path = tree.path_to_root(tree.leaf_node_id(z));
    std::vector<std::vector<Real>> node_bufs;
    std::vector<std::vector<Idx>> node_sns;
    std::vector<ReduceSegment> segments;
    for (const Idx node : path) {
      if (tree.node(node).depth >= tree.levels()) continue;  // leaf: not replicated
      auto& sns = node_sns.emplace_back();
      auto& buf = node_bufs.emplace_back();
      const auto [lo, hi] = node_supernode_range(lu.sym, tree, node);
      for (Idx k = lo; k < hi; ++k) {
        if (shape.diag_owner(k) != me) continue;
        const auto& piece = lres.y.at(k);
        sns.push_back(k);
        buf.insert(buf.end(), piece.begin(), piece.end());
      }
      segments.push_back({node, buf});
    }
    m_segs.add(static_cast<std::int64_t>(segments.size()));
    if (ctx.cfg.sparse_zreduce) {
      sparse_allreduce(zline, tree, segments);
    } else {
      dense_allreduce_per_node(zline, tree, segments);
    }
    // Scatter the completed sums back into the y map (RHS of the U-solve).
    for (size_t s = 0; s < node_sns.size(); ++s) {
      size_t off = 0;
      for (const Idx k : node_sns[s]) {
        auto& piece = lres.y.at(k);
        std::copy_n(node_bufs[s].begin() + static_cast<std::ptrdiff_t>(off),
                    piece.size(), piece.begin());
        off += piece.size();
      }
    }
  } catch (FaultError& fe) {
    rethrow_with_phase(fe, "sptrsv3d z-reduction");
  }
  world.checkpoint_epoch(1);  // Z-phase boundary
  const CatSnapshot after_z = CatSnapshot::take(world);

  // 2D U-solve of U^z, again with no inter-grid communication.
  USolve2dResult ures;
  try {
    const TraceSpan phase = world.annotate("phase:U", z);
    ures = solve_u_2d(grid, plan, lres.y, {}, nrhs, tag_window(lu, 1));
  } catch (FaultError& fe) {
    rethrow_with_phase(fe, "sptrsv3d U-solve");
  }
  const CatSnapshot after_u = CatSnapshot::take(world);

  // Emit my share of the solution: every grid holds the complete x for its
  // whole index set; the smallest replicating grid writes each node.
  for (const auto& [k, piece] : ures.x) {
    const Idx node = tree.node_of_column(lu.sym.part.first_col(k));
    if (tree.leaf_range(node).first == z) {
      scatter_snode(lu, k, piece, *ctx.x_out, nrhs);
    }
  }

  RankPhaseTimes& t = (*ctx.times)[static_cast<size_t>(world.rank())];
  t.l_fp = after_l.fp;
  t.l_xy = after_l.xy;
  t.l_z = after_l.z;
  t.z_time = after_z.z - after_l.z;
  t.u_fp = after_u.fp - after_z.fp;
  t.u_xy = after_u.xy - after_z.xy;
  t.u_z = after_u.z - after_z.z;
  t.total = world.vtime();
}

void run_baseline(const SolveContext& ctx, Comm& world, Comm& grid, Comm& zline, int z) {
  const auto& lu = *ctx.lu;
  const auto& tree = ctx.coarse;
  const auto& shape = ctx.cfg.shape.grid2d();
  const Idx nrhs = ctx.cfg.nrhs;
  const int me = grid.rank();
  const int levels = tree.levels();

  // Null handles unless RunOptions::metrics is on. The baseline exchanges
  // one message per replicated node per level; the counters make that
  // contrast with the proposed algorithm's packed allreduce measurable.
  const MetricsRegistry::Counter m_levels = world.metric_counter("solver3d.levels");
  const MetricsRegistry::Counter m_zexch = world.metric_counter("solver3d.z_exchanges");

  // path[s] is my ancestor at depth levels-s; path[0] is my leaf.
  const auto path = tree.path_to_root(tree.leaf_node_id(z));

  world.barrier();
  world.reset_clock();

  // ---- Bottom-up L phase: one 2D node solve per level, pairwise
  // inter-grid reduction of the replicated partial sums in between. ----
  VecMap lsum_store;  // partial sums of ancestors (diag positions I hold)
  VecMap y_store;     // solutions of nodes this grid solved

  // Level-boundary buddy checkpoints: y_store is append-only (values never
  // mutate after insertion), so recovery replays from the last completed
  // level rather than the phase start.
  const CheckpointScope ckpt = world.register_checkpoint(
      "sptrsv3d baseline", StateKind::kAppendOnly, [&] { return map_state(y_store); });

  try {
  for (int s = 0; s <= levels; ++s) {
    const TraceSpan level_span = world.annotate("l_level", s);
    m_levels.add();
    if (s > 0) {
      const int bit = 1 << (s - 1);
      const auto nodes = nodes_from_step(path, s);
      if (z % (1 << s) == bit) {
        // Hand my partial sums to the surviving grid and go idle. One
        // message per replicated node (the baseline predates the packed
        // sparse allreduce).
        for (const Idx node : nodes) {
          m_zexch.add();
          zline.send(z - bit, ztag(kZTagLsum, s, node),
                     pack_pieces(lu, tree, shape, me, {&node, 1}, lsum_store),
                     TimeCategory::kZComm);
        }
        break;
      }
      for (const Idx node : nodes) {
        m_zexch.add();
        const Message m =
            zline.recv(z + bit, ztag(kZTagLsum, s, node), TimeCategory::kZComm);
        unpack_pieces(lu, tree, shape, me, {&node, 1}, m.data, lsum_store, nrhs,
                      accumulate_op);
      }
    }
    const Solve2dPlan& plan = ctx.node_plans[static_cast<size_t>(path[static_cast<size_t>(s)])];
    VecMap b_local, lsum_in;
    for (const Idx k : plan.cols()) {
      if (shape.diag_owner(k) != me) continue;
      b_local.emplace(k, gather_snode(lu, k, ctx.b, nrhs));
      const auto it = lsum_store.find(k);
      if (it != lsum_store.end()) {
        lsum_in.emplace(k, it->second);
        lsum_store.erase(it);
      }
    }
    LSolve2dResult res =
        solve_l_2d(grid, plan, b_local, lsum_in, nrhs, tag_window(lu, 2 + 2 * s));
    for (auto& [k, v] : res.y) y_store.emplace(k, std::move(v));
    for (auto& [k, v] : res.external_lsum) {
      auto& dst = lsum_store[k];
      if (dst.empty()) {
        dst = std::move(v);
      } else {
        accumulate_op(dst, v);
      }
    }
    world.checkpoint_epoch(s);  // L-level boundary
  }
  } catch (FaultError& fe) {
    rethrow_with_phase(fe, "sptrsv3d baseline L-phase");
  }
  const CatSnapshot after_l = CatSnapshot::take(world);

  // ---- Top-down U phase: owners solve, then broadcast solutions to the
  // grids that wake at the next level. ----
  VecMap x_store;  // known solutions (mine + received ancestors)
  try {
  for (int s = levels; s >= 0; --s) {
    const TraceSpan level_span = world.annotate("u_level", s);
    const int group = 1 << s;
    if (z % group == 0) {
      const Solve2dPlan& plan =
          ctx.node_plans[static_cast<size_t>(path[static_cast<size_t>(s)])];
      VecMap y_local, x_external;
      for (const Idx k : plan.cols()) {
        if (shape.diag_owner(k) != me) continue;
        y_local.emplace(k, y_store.at(k));
      }
      for (const Idx i : plan.external_rows()) {
        if (shape.diag_owner(i) != me) continue;
        x_external.emplace(i, x_store.at(i));
      }
      USolve2dResult res = solve_u_2d(grid, plan, y_local, x_external, nrhs,
                                      tag_window(lu, 3 + 2 * s));
      for (auto& [k, v] : res.x) {
        scatter_snode(lu, k, v, *ctx.x_out, nrhs);  // unique writer: the owner
        x_store.emplace(k, std::move(v));
      }
      if (s > 0) {
        const int bit = 1 << (s - 1);
        for (const Idx node : nodes_from_step(path, s)) {
          m_zexch.add();
          zline.send(z + bit, ztag(kZTagXsol, s, node),
                     pack_pieces(lu, tree, shape, me, {&node, 1}, x_store),
                     TimeCategory::kZComm);
        }
      }
    } else if (s > 0 && z % group == (1 << (s - 1))) {
      const int bit = 1 << (s - 1);
      for (const Idx node : nodes_from_step(path, s)) {
        m_zexch.add();
        const Message m =
            zline.recv(z - bit, ztag(kZTagXsol, s, node), TimeCategory::kZComm);
        unpack_pieces(lu, tree, shape, me, {&node, 1}, m.data, x_store, nrhs,
                      replace_op);
      }
    }
    world.checkpoint_epoch(levels + (levels - s));  // U-level boundary
  }
  } catch (FaultError& fe) {
    rethrow_with_phase(fe, "sptrsv3d baseline U-phase");
  }
  const CatSnapshot after_u = CatSnapshot::take(world);

  RankPhaseTimes& t = (*ctx.times)[static_cast<size_t>(world.rank())];
  t.l_fp = after_l.fp;
  t.l_xy = after_l.xy;
  t.l_z = after_l.z;
  t.z_time = 0.0;  // inter-grid traffic is interleaved; see l_z / u_z
  t.u_fp = after_u.fp - after_l.fp;
  t.u_xy = after_u.xy - after_l.xy;
  t.u_z = after_u.z - after_l.z;
  t.total = world.vtime();
}

}  // namespace

double DistSolveOutcome::mean(double RankPhaseTimes::* field) const {
  double s = 0;
  for (const auto& r : rank_times) s += r.*field;
  return rank_times.empty() ? 0.0 : s / static_cast<double>(rank_times.size());
}
double DistSolveOutcome::max(double RankPhaseTimes::* field) const {
  double m = 0;
  for (const auto& r : rank_times) m = std::max(m, r.*field);
  return m;
}
double DistSolveOutcome::min(double RankPhaseTimes::* field) const {
  if (rank_times.empty()) return 0.0;
  double m = rank_times.front().*field;
  for (const auto& r : rank_times) m = std::min(m, r.*field);
  return m;
}

DistSolveOutcome solve_sptrsv_3d(const SupernodalLU& lu, const NdTree& tree,
                                 std::span<const Real> b, const SolveConfig& cfg,
                                 const MachineModel& machine) {
  const auto& shape = cfg.shape;
  if (shape.px < 1 || shape.py < 1) {
    throw std::invalid_argument("solve_sptrsv_3d: px and py must be at least 1");
  }
  if (!is_pow2(shape.pz)) {
    throw std::invalid_argument("solve_sptrsv_3d: pz must be a power of two");
  }
  if (cfg.nrhs < 1) {
    throw std::invalid_argument("solve_sptrsv_3d: nrhs must be at least 1");
  }
  const int zlevels = log2_exact(shape.pz);
  if (zlevels > tree.levels()) {
    throw std::invalid_argument(
        "solve_sptrsv_3d: pz exceeds the factor's tracked tree leaves");
  }
  if (b.size() != static_cast<size_t>(lu.n()) * static_cast<size_t>(cfg.nrhs)) {
    throw std::invalid_argument("solve_sptrsv_3d: RHS size mismatch");
  }

  SolveContext ctx;
  ctx.lu = &lu;
  ctx.coarse = coarsen_nd_tree(tree, zlevels);
  ctx.cfg = cfg;
  ctx.b = b;

  // Precompute the plans (the paper's CPU-side setup phase; untimed).
  if (cfg.algorithm == Algorithm3d::kProposed) {
    for (int z = 0; z < shape.pz; ++z) {
      ctx.leaf_plans.push_back(
          make_grid_plan(lu, ctx.coarse, z, shape.grid2d(), cfg.tree));
    }
  } else {
    for (Idx node = 0; node < ctx.coarse.num_nodes(); ++node) {
      ctx.node_plans.push_back(
          make_node_plan(lu, ctx.coarse, node, shape.grid2d(), cfg.tree));
    }
  }

  std::vector<Real> x(b.size(), 0.0);
  std::vector<RankPhaseTimes> times(static_cast<size_t>(shape.size()));
  ctx.x_out = &x;
  ctx.times = &times;

  // try_run instead of run: recoverable crash schedules finish normally
  // (recovery cost on the fault ledger only), while unrecoverable verdicts
  // and transport failures surface as a structured FaultError carrying the
  // rank/peer/tag/phase diagnostics instead of a bare error string.
  const Cluster::Result stats =
      Cluster::try_run(shape.size(), machine, [&](Comm& world) {
        const int z = shape.z_of(world.rank());
        const int grid_rank = shape.grid_rank_of(world.rank());
        Comm grid = world.split(/*color=*/z, /*key=*/grid_rank);
        Comm zline = world.split(/*color=*/shape.pz + grid_rank, /*key=*/z);
        if (cfg.algorithm == Algorithm3d::kProposed) {
          run_proposed(ctx, world, grid, zline, z);
        } else {
          run_baseline(ctx, world, grid, zline, z);
        }
      }, cfg.run);
  if (!stats.ok()) {
    if (stats.fault.kind != FaultKind::kNone) throw FaultError(stats.fault);
    throw std::runtime_error(stats.error);
  }

  DistSolveOutcome out;
  out.x = std::move(x);
  out.rank_times = std::move(times);
  out.run_stats = stats;
  for (const auto& t : out.rank_times) out.makespan = std::max(out.makespan, t.total);
  return out;
}

DistSolveOutcome solve_system_3d(const FactoredSystem& fs, std::span<const Real> b,
                                 const SolveConfig& cfg, const MachineModel& machine) {
  const Idx n = fs.lu.n();
  if (b.size() != static_cast<size_t>(n) * static_cast<size_t>(cfg.nrhs)) {
    throw std::invalid_argument("solve_system_3d: RHS size mismatch");
  }
  std::vector<Real> pb(b.size());
  for (Idx j = 0; j < cfg.nrhs; ++j) {
    for (Idx i = 0; i < n; ++i) {
      pb[static_cast<size_t>(j) * n + i] =
          b[static_cast<size_t>(j) * n + fs.perm[static_cast<size_t>(i)]];
    }
  }
  DistSolveOutcome out = solve_sptrsv_3d(fs.lu, fs.tree, pb, cfg, machine);
  std::vector<Real> x(out.x.size());
  for (Idx j = 0; j < cfg.nrhs; ++j) {
    for (Idx i = 0; i < n; ++i) {
      x[static_cast<size_t>(j) * n + fs.perm[static_cast<size_t>(i)]] =
          out.x[static_cast<size_t>(j) * n + i];
    }
  }
  out.x = std::move(x);
  return out;
}

VerifiedSolveOutcome solve_system_3d_verified(const CsrMatrix& a,
                                              const FactoredSystem& fs,
                                              std::span<const Real> b,
                                              const SolveConfig& cfg,
                                              const MachineModel& machine) {
  VerifiedSolveOutcome out;
  out.solve = solve_system_3d(fs, b, cfg, machine);

  // End-of-solve residual gate, priced onto the fault ledger only: each
  // rank evaluates its 1/P share of the SpMV (2 flops per stored entry per
  // RHS column) and the max norm rides one reduce tree. The clean ledger —
  // and with it Result::fingerprint — never sees the check.
  const int p = cfg.shape.size();
  const double flops =
      2.0 * static_cast<double>(a.nnz()) * static_cast<double>(cfg.nrhs);
  const double cost =
      flops / (static_cast<double>(p) * machine.cpu_flop_rate) +
      static_cast<double>(log2_exact(p)) *
          (machine.net.latency + machine.mpi_overhead);
  for (auto& r : out.solve.run_stats.ranks) {
    r.fault_vtime += cost;
    r.sdc.residual_checks += 1;
    r.sdc.residual_time += cost;
  }
  out.residual = relative_residual(a, out.solve.x, b, cfg.nrhs);
  if (!(out.residual > kSdcResidualTol)) return out;

  if (!cfg.run.sdc_repair) {
    FaultReport r;
    r.kind = FaultKind::kSilentCorruption;
    r.rank = 0;
    r.vt = out.solve.run_stats.makespan();
    // Per-target attribution of the surviving flips: names the corrupted
    // state class (solution / factor values / reduction partials) so the
    // report localizes the fault, not just its symptom.
    std::int64_t inj[3] = {0, 0, 0};
    for (const auto& rs : out.solve.run_stats.ranks) {
      for (int t = 0; t < 3; ++t) inj[t] += rs.sdc.injected_by[t];
    }
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "end-of-solve residual %.3e exceeds gate %.3e; "
                  "corruption survived the solve (injected x=%lld l=%lld "
                  "partial=%lld)",
                  static_cast<double>(out.residual), kSdcResidualTol,
                  static_cast<long long>(inj[0]), static_cast<long long>(inj[1]),
                  static_cast<long long>(inj[2]));
    r.detail = buf;
    throw FaultError(std::move(r));
  }

  // Degraded-mode repair: polish the corrupted solution with iterative
  // refinement. Each refinement solve replays the same deterministic fault
  // schedule, but the injected flips perturb at most 2^-3 of a word, so the
  // correction steps still contract the residual geometrically. Modeled
  // repair time lands on every rank's fault clock (they all re-ran the
  // solves); iteration counts land once, on rank 0's SdcStats.
  RefinementOptions ro;
  ro.max_iterations = 20;
  ro.tolerance = kSdcResidualTol;
  RefinementResult ref = iterative_refinement(a, fs, b, cfg, machine, ro);
  if (!ref.converged) {
    FaultReport r;
    r.kind = FaultKind::kSilentCorruption;
    r.rank = 0;
    r.vt = out.solve.run_stats.makespan();
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "degraded-mode refinement stalled at residual %.3e "
                  "(gate %.3e) after %lld iterations",
                  ref.residual_history.empty()
                      ? static_cast<double>(out.residual)
                      : static_cast<double>(ref.residual_history.back()),
                  kSdcResidualTol,
                  static_cast<long long>(ref.iterations()));
    r.detail = buf;
    throw FaultError(std::move(r));
  }
  out.repaired = true;
  out.repair_iterations = ref.iterations();
  out.residual = ref.residual_history.back();
  out.solve.x = std::move(ref.x);
  for (auto& r : out.solve.run_stats.ranks) r.fault_vtime += ref.modeled_solve_time;
  if (!out.solve.run_stats.ranks.empty()) {
    SdcStats& s0 = out.solve.run_stats.ranks.front().sdc;
    s0.refine_iters += static_cast<std::int64_t>(ref.iterations());
    s0.repair_time += ref.modeled_solve_time;
  }
  return out;
}

}  // namespace sptrsv
