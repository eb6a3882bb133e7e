#include "gpusim/gpu_sptrsv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "dist/solve_plan.hpp"
#include "dist/tree_view.hpp"
#include "trace/trace.hpp"

namespace sptrsv {

namespace {

/// Collects the simulator's events per world GPU. Unlike the runtime's
/// chokepoint recording, tasks here overlap in time (per-SM slots), so the
/// resulting trace is export-only (non-contiguous).
struct TraceSink {
  std::vector<RankTrace> ranks;
  std::vector<std::int64_t> seq;  // per world rank put sequence numbers

  explicit TraceSink(int world)
      : ranks(static_cast<size_t>(world)), seq(static_cast<size_t>(world), 0) {}

  void task(int grank, double start, double end, const char* label, int tag) {
    TraceEvent e;
    e.kind = TraceEventKind::kCompute;
    e.cat = TimeCategory::kFp;
    e.t0 = start;
    e.t1 = end;
    e.tag = tag;
    e.label = label;
    ranks[static_cast<size_t>(grank)].events.push_back(e);
  }

  /// One NVSHMEM put / MPI message: a zero-width send at `send_at` on the
  /// source and a zero-width recv at `arrival` on the destination, matched
  /// through a per-source sequence number like runtime messages.
  void put(int src, int dst, double send_at, double arrival, std::int64_t bytes,
           TimeCategory cat) {
    const std::int64_t s = seq[static_cast<size_t>(src)]++;
    TraceEvent e;
    e.cat = cat;
    e.bytes = bytes;
    e.arrival = arrival;
    e.seq = s;
    e.kind = TraceEventKind::kSend;
    e.t0 = e.t1 = send_at;
    e.peer = dst;
    ranks[static_cast<size_t>(src)].events.push_back(e);
    e.kind = TraceEventKind::kRecv;
    e.t0 = e.t1 = arrival;
    e.peer = src;
    ranks[static_cast<size_t>(dst)].events.push_back(e);
  }

  void span(int grank, const char* label, std::int64_t arg, double t0, double t1) {
    ranks[static_cast<size_t>(grank)].spans.push_back({label, arg, t0, t1});
  }
};

/// Per-world-GPU metric registries (GpuSolveConfig::metrics). Counter names
/// follow the cluster runtime's taxonomy so bench reports aggregate CPU and
/// GPU runs with the same keys (docs/OBSERVABILITY.md).
struct MetricsSink {
  std::vector<std::unique_ptr<MetricsRegistry>> regs;
  struct Handles {
    MetricsRegistry::Counter tasks, puts, put_bytes_xy, put_bytes_z;
  };
  std::vector<Handles> h;

  explicit MetricsSink(int world) {
    regs.reserve(static_cast<size_t>(world));
    h.resize(static_cast<size_t>(world));
    for (int r = 0; r < world; ++r) {
      auto reg = std::make_unique<MetricsRegistry>();
      Handles& hh = h[static_cast<size_t>(r)];
      hh.tasks = reg->counter("gpu.tasks");
      hh.puts = reg->counter("gpu.puts");
      hh.put_bytes_xy = reg->counter("gpu.put_bytes.xy");
      hh.put_bytes_z = reg->counter("gpu.put_bytes.z");
      regs.push_back(std::move(reg));
    }
  }

  void task(int grank) { h[static_cast<size_t>(grank)].tasks.add(); }
  void put(int src, std::int64_t bytes, TimeCategory cat) {
    Handles& hh = h[static_cast<size_t>(src)];
    hh.puts.add();
    (cat == TimeCategory::kZComm ? hh.put_bytes_z : hh.put_bytes_xy).add(bytes);
  }

  std::shared_ptr<const MetricsReport> report() const {
    auto rep = std::make_shared<MetricsReport>();
    rep->ranks.resize(regs.size());
    for (size_t r = 0; r < regs.size(); ++r) {
      rep->ranks[r].values = regs[r]->values();
    }
    return rep;
  }
};

/// Records every task and put into whichever of the two sinks is armed
/// (both null: nothing is recorded).
struct Recorder {
  TraceSink* trace = nullptr;
  MetricsSink* metrics = nullptr;

  void task(int grank, double start, double end, const char* label, int tag) const {
    if (trace) trace->task(grank, start, end, label, tag);
    if (metrics) metrics->task(grank);
  }
  void put(int src, int dst, double send_at, double arrival, double bytes,
           TimeCategory cat) const {
    const auto b = static_cast<std::int64_t>(bytes);
    if (trace) trace->put(src, dst, send_at, arrival, b, cat);
    if (metrics) metrics->put(src, b, cat);
  }
};

/// Min-heap of SM slot free times for one GPU.
class SlotHeap {
 public:
  SlotHeap(int slots, double t0) : heap_(static_cast<size_t>(slots), t0) {
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  /// Starts a task that became ready at `ready` and lasts `dur`; returns
  /// its (start, end).
  std::pair<double, double> schedule(double ready, double dur) {
    const double start = std::max(ready, admit());
    const double end = start + dur;
    release(end);
    return {start, end};
  }
  /// Takes the earliest-free slot out of the heap (caller must release()).
  double admit() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const double t = heap_.back();
    heap_.pop_back();
    return t;
  }
  /// Returns a slot that becomes free at `end`.
  void release(double end) {
    heap_.push_back(end);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

 private:
  std::vector<double> heap_;
};

/// One phase's task graph on one grid: a task is (gpu, supernode position)
/// — the thread block handling that block column (L) or block row (U).
struct PhaseTask {
  int deps = 0;            ///< outstanding local GEMV contributions / y-arrival
  double ready = 0.0;      ///< max contributor finish (valid once deps==0)
  double diag_flops = 0;   ///< inverse-apply work (diagonal tasks only)
  double gemv_flops = 0;   ///< panel update work on this GPU
  bool is_diag = false;
  bool exists = false;
};

/// Simulates one grid's 2D solve of triangle `tri`; returns per-GPU finish
/// times. `t0[g]` is GPU g's start clock. `gpu_base` is the world index of
/// this grid's GPU 0 (node locality for puts).
std::vector<double> run_phase(const Solve2dPlan& plan, Triangle tri, Idx nrhs,
                              const GpuExecModel& exec, const GpuFabric& fabric,
                              int gpu_base, std::span<const double> t0,
                              GpuScheduleMode mode, const Recorder& rec) {
  const char* const task_label = tri == Triangle::kLower ? "l_task" : "u_task";
  const Solve2dPlan::View v = plan.view(tri);
  const auto& part = plan.lu().sym.part;
  const auto& shape = plan.shape();
  const int px = shape.px;
  const Idx nc = plan.num_cols();

  // Task table: tasks[g * nc + p] for the supernode at position p. Grid
  // plans solve every row they track (rows == cols), so a supernode's
  // source and target positions coincide and one p indexes both.
  std::vector<PhaseTask> tasks(static_cast<size_t>(px) * static_cast<size_t>(nc));
  auto task_at = [&](int g, Idx p) -> PhaseTask& {
    return tasks[static_cast<size_t>(g) * static_cast<size_t>(nc) +
                 static_cast<size_t>(p)];
  };

  // Build tasks. A supernode's tasks sit on its broadcast tree: the
  // diagonal owner and every GPU holding a block its solution multiplies.
  for (Idx p = 0; p < nc; ++p) {
    const Idx k = v.sources[static_cast<size_t>(p)];
    const double wk = part.width(k);
    // With py == 1, tree member grid-ranks coincide with process rows.
    const int diag_gpu = shape.row_of(shape.diag_owner(k));
    // Dependencies of the diagonal task: one per contributor (each is a
    // GEMV executed by another task on the same GPU).
    PhaseTask& dt = task_at(diag_gpu, p);
    dt.exists = true;
    dt.is_diag = true;
    dt.diag_flops = 2.0 * wk * wk * nrhs;
    dt.deps = static_cast<int>(v.contributors[static_cast<size_t>(p)].size());
    dt.ready = t0[static_cast<size_t>(diag_gpu)];
    // GEMV work of every member GPU for this supernode's panel.
    for (const Idx i : v.dependents[static_cast<size_t>(p)]) {
      const int g = shape.owner_row(i);
      PhaseTask& t = task_at(g, p);
      if (!t.exists) {
        t.exists = true;
        t.deps = (g == diag_gpu) ? t.deps : 1;  // off-diag waits for the solution
      }
      t.gemv_flops += 2.0 * part.width(i) * wk * nrhs;
    }
  }

  std::vector<SlotHeap> slots;
  slots.reserve(static_cast<size_t>(px));
  for (int g = 0; g < px; ++g) slots.emplace_back(exec.sms, t0[static_cast<size_t>(g)]);

  std::vector<double> finish(static_cast<size_t>(px), 0.0);
  for (int g = 0; g < px; ++g) finish[static_cast<size_t>(g)] = t0[static_cast<size_t>(g)];

  if (mode == GpuScheduleMode::kResidentSpin) {
    // Naive single-kernel model: every GPU launches its blocks in the
    // phase's elimination order; a block occupies an SM slot from its
    // admission until completion, spinning while its dependency (fmod or
    // the y/x put) is outstanding. Processing the columns in launch order
    // keeps every producer's completion computed before its consumers.
    for (Idx step = 0; step < nc; ++step) {
      const Idx p = tri == Triangle::kLower ? step : nc - 1 - step;
      const Idx k = v.sources[static_cast<size_t>(p)];
      const double wk = part.width(k);
      const TreeView bcast = v.bcast(p);
      const double bytes = wk * nrhs * sizeof(Real);

      // BFS over the broadcast tree from the diagonal owner so a relay's
      // forward time is known before its children are admitted.
      std::vector<int> order{bcast.empty() ? 0 : bcast.root()};
      std::vector<double> fwd(static_cast<size_t>(px), 0.0);
      for (size_t q = 0; q < order.size(); ++q) {
        bcast.for_each_child(order[q], [&](int child) { order.push_back(child); });
      }
      for (const int g : order) {
        PhaseTask& t = task_at(g, p);
        if (!t.exists) continue;
        const bool is_diag = t.is_diag;
        const double arrival =
            is_diag ? t.ready : std::max(t.ready, fwd[static_cast<size_t>(g)]);
        const double dur = exec.task_time(t.diag_flops + t.gemv_flops);
        // The block holds its slot from admission: spin until `arrival`,
        // compute, release only at completion.
        const double admit = slots[static_cast<size_t>(g)].admit();
        const double start = std::max(admit, arrival);
        const double end = start + dur;
        slots[static_cast<size_t>(g)].release(end);
        finish[static_cast<size_t>(g)] = std::max(finish[static_cast<size_t>(g)], end);
        rec.task(gpu_base + g, start, end, task_label, static_cast<int>(k));
        const double send_at =
            is_diag ? start + exec.task_time(t.diag_flops) : start;
        bcast.for_each_child(g, [&](int child) {
          const double arrive =
              send_at + fabric.put_time(gpu_base + g, gpu_base + child, bytes);
          fwd[static_cast<size_t>(child)] = arrive;
          rec.put(gpu_base + g, gpu_base + child, send_at, arrive, bytes,
                  TimeCategory::kXyComm);
        });
        // Feed my local targets' diagonal readiness.
        for (const Idx i : v.dependents[static_cast<size_t>(p)]) {
          if (shape.owner_row(i) != g) continue;
          PhaseTask& t2 = task_at(g, v.target_pos(i));
          t2.ready = std::max(t2.ready, end);
        }
      }
    }
    return finish;
  }

  // Event queue over ready tasks (the two-kernel design: a block only
  // occupies a slot while it has work).
  using QEntry = std::pair<double, std::pair<int, Idx>>;  // (ready, (gpu, p))
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;

  for (Idx p = 0; p < nc; ++p) {
    const Idx k = v.sources[static_cast<size_t>(p)];
    const int diag_gpu = shape.row_of(shape.diag_owner(k));
    PhaseTask& dt = task_at(diag_gpu, p);
    if (dt.exists && dt.deps == 0) queue.push({dt.ready, {diag_gpu, p}});
  }

  auto on_contribution = [&](int g, Idx p, double t) {
    PhaseTask& t2 = task_at(g, p);
    t2.ready = std::max(t2.ready, t);
    if (--t2.deps == 0) queue.push({t2.ready, {g, p}});
  };

  while (!queue.empty()) {
    const auto [ready, id] = queue.top();
    queue.pop();
    const auto [g, p] = id;
    PhaseTask& t = task_at(g, p);
    const Idx k = v.sources[static_cast<size_t>(p)];
    const double wk = part.width(k);
    const TreeView bcast = v.bcast(p);
    const double bytes = wk * nrhs * sizeof(Real);

    const double dur = exec.task_time(t.diag_flops + t.gemv_flops);
    const auto [start, end] = slots[static_cast<size_t>(g)].schedule(ready, dur);
    finish[static_cast<size_t>(g)] = std::max(finish[static_cast<size_t>(g)], end);
    rec.task(gpu_base + g, start, end, task_label, static_cast<int>(k));

    // Forward the solution down the broadcast tree. The diagonal task has
    // the value only after its inverse-apply; a relay forwards as soon as
    // its thread block runs (Algorithm 5 line 13).
    const double send_at = t.is_diag ? start + exec.task_time(t.diag_flops) : start;
    bcast.for_each_child(g, [&](int child) {
      const double arrival =
          send_at + fabric.put_time(gpu_base + g, gpu_base + child, bytes);
      rec.put(gpu_base + g, gpu_base + child, send_at, arrival, bytes,
              TimeCategory::kXyComm);
      on_contribution(child, p, arrival);
    });

    // The GEMVs completed here feed the diagonal tasks of my local targets.
    for (const Idx i : v.dependents[static_cast<size_t>(p)]) {
      if (shape.owner_row(i) != g) continue;
      on_contribution(g, v.target_pos(i), end);
    }
  }
  return finish;
}

}  // namespace

GpuSolveTimes simulate_solve_3d_gpu(const SupernodalLU& lu, const NdTree& tree,
                                    const GpuSolveConfig& cfg,
                                    const MachineModel& machine) {
  const auto& shape = cfg.shape;
  if (shape.px < 1) {
    throw std::invalid_argument("simulate_solve_3d_gpu: px must be at least 1");
  }
  if (shape.py != 1) {
    throw std::invalid_argument("simulate_solve_3d_gpu: py must be 1 (paper §4.2)");
  }
  if (shape.pz <= 0 || (shape.pz & (shape.pz - 1)) != 0) {
    throw std::invalid_argument("simulate_solve_3d_gpu: pz must be a power of two");
  }
  if (cfg.nrhs < 1) {
    throw std::invalid_argument("simulate_solve_3d_gpu: nrhs must be at least 1");
  }
  if (machine.gpus_per_node < 1) {
    throw std::invalid_argument("simulate_solve_3d_gpu: " + machine.name +
                                " has no GPUs; the model needs gpus_per_node >= 1");
  }
  if (!machine.shmem_subcomm_support && shape.px > 1) {
    throw std::invalid_argument(
        "simulate_solve_3d_gpu: ROC-SHMEM has no subcommunicators; px must be 1 on " +
        machine.name);
  }
  int zlevels = 0;
  while ((1 << zlevels) < shape.pz) ++zlevels;
  if (zlevels > tree.levels()) {
    throw std::invalid_argument("simulate_solve_3d_gpu: pz exceeds tracked tree");
  }
  const NdTree coarse = coarsen_nd_tree(tree, zlevels);

  const GpuExecModel exec = GpuExecModel::from_machine(machine, cfg.nrhs);
  const GpuFabric fabric = GpuFabric::from_machine(machine);

  const Grid2dShape grid2d{shape.px, 1};
  std::vector<Solve2dPlan> plans;
  plans.reserve(static_cast<size_t>(shape.pz));
  for (int z = 0; z < shape.pz; ++z) {
    plans.push_back(
        make_grid_plan(lu, coarse, z, grid2d, cfg.tree, /*index_ranks=*/false));
  }

  GpuSolveTimes out;
  const int world = shape.px * shape.pz;
  out.l_finish.assign(static_cast<size_t>(world), 0.0);
  out.u_finish.assign(static_cast<size_t>(world), 0.0);
  std::unique_ptr<TraceSink> sink;
  if (cfg.trace) sink = std::make_unique<TraceSink>(world);
  std::unique_ptr<MetricsSink> msink;
  if (cfg.metrics) msink = std::make_unique<MetricsSink>(world);
  const Recorder rec{sink.get(), msink.get()};

  // ---- L phase: independent per grid. ----
  std::vector<std::vector<double>> clock(static_cast<size_t>(shape.pz));
  for (int z = 0; z < shape.pz; ++z) {
    const std::vector<double> t0(static_cast<size_t>(shape.px), 0.0);
    clock[static_cast<size_t>(z)] =
        run_phase(plans[static_cast<size_t>(z)], Triangle::kLower, cfg.nrhs, exec, fabric,
                  /*gpu_base=*/z * shape.px, t0, cfg.schedule, rec);
    for (int g = 0; g < shape.px; ++g) {
      out.l_finish[static_cast<size_t>(z * shape.px + g)] =
          clock[static_cast<size_t>(z)][static_cast<size_t>(g)];
    }
  }
  out.l_solve = *std::max_element(out.l_finish.begin(), out.l_finish.end());

  // ---- Sparse allreduce (Algorithm 2) over MPI, per GPU line. ----
  // Pairwise exchange cost per level; bytes are the shared ancestors'
  // diag-owned pieces of the line's GPU.
  auto level_bytes = [&](int g, int l) {
    double bytes = 0;
    for (Idx node = 0; node < coarse.num_nodes(); ++node) {
      if (coarse.node(node).depth > coarse.levels() - l - 1) continue;
      const auto [lo, hi] = node_supernode_range(lu.sym, coarse, node);
      for (Idx k = lo; k < hi; ++k) {
        if (grid2d.owner_row(k) == g) {
          bytes += static_cast<double>(lu.sym.part.width(k)) * cfg.nrhs * sizeof(Real);
        }
      }
    }
    return bytes;
  };
  for (int g = 0; g < shape.px; ++g) {
    for (int l = 0; l < zlevels; ++l) {  // reduce toward the lower grid
      const double lvl_bytes = level_bytes(g, l);
      const double cost = 2 * machine.mpi_overhead + machine.net.latency +
                          lvl_bytes / machine.net.bandwidth;
      for (int z = 0; z + (1 << l) < shape.pz; z += 1 << (l + 1)) {
        const int hi = z + (1 << l);
        auto& lo_c = clock[static_cast<size_t>(z)][static_cast<size_t>(g)];
        const double hi_c = clock[static_cast<size_t>(hi)][static_cast<size_t>(g)];
        rec.put(hi * shape.px + g, z * shape.px + g, hi_c, hi_c + cost, lvl_bytes,
                TimeCategory::kZComm);
        lo_c = std::max(lo_c, hi_c + cost);
      }
    }
    for (int l = zlevels - 1; l >= 0; --l) {  // broadcast back
      const double lvl_bytes = level_bytes(g, l);
      const double cost = 2 * machine.mpi_overhead + machine.net.latency +
                          lvl_bytes / machine.net.bandwidth;
      for (int z = 0; z + (1 << l) < shape.pz; z += 1 << (l + 1)) {
        const int hi = z + (1 << l);
        auto& hi_c = clock[static_cast<size_t>(hi)][static_cast<size_t>(g)];
        const double lo_c = clock[static_cast<size_t>(z)][static_cast<size_t>(g)];
        rec.put(z * shape.px + g, hi * shape.px + g, lo_c, lo_c + cost, lvl_bytes,
                TimeCategory::kZComm);
        hi_c = std::max(hi_c, lo_c + cost);
      }
    }
  }
  double after_z = 0;
  for (const auto& grid_clock : clock) {
    for (const double c : grid_clock) after_z = std::max(after_z, c);
  }
  out.z_comm = after_z - out.l_solve;

  // ---- U phase: independent per grid again, starting at the post-
  // allreduce clocks. ----
  for (int z = 0; z < shape.pz; ++z) {
    const auto fin = run_phase(plans[static_cast<size_t>(z)], Triangle::kUpper, cfg.nrhs,
                               exec, fabric, z * shape.px, clock[static_cast<size_t>(z)],
                               cfg.schedule, rec);
    for (int g = 0; g < shape.px; ++g) {
      out.u_finish[static_cast<size_t>(z * shape.px + g)] =
          fin[static_cast<size_t>(g)];
    }
  }
  out.total = *std::max_element(out.u_finish.begin(), out.u_finish.end());
  out.u_solve = out.total - after_z;

  if (sink) {
    for (int z = 0; z < shape.pz; ++z) {
      for (int g = 0; g < shape.px; ++g) {
        const int wr = z * shape.px + g;
        const double l_end = out.l_finish[static_cast<size_t>(wr)];
        const double z_end = clock[static_cast<size_t>(z)][static_cast<size_t>(g)];
        sink->span(wr, "phase:L", z, 0.0, l_end);
        sink->span(wr, "phase:Z", z, l_end, z_end);
        sink->span(wr, "phase:U", z, z_end, out.u_finish[static_cast<size_t>(wr)]);
      }
    }
    // Overlapping SM slices arrive out of order; sort for a stable export
    // (stable: equal-t0 events keep their generation order).
    for (auto& rt : sink->ranks) {
      std::stable_sort(rt.events.begin(), rt.events.end(),
                       [](const TraceEvent& a, const TraceEvent& b) { return a.t0 < b.t0; });
    }
    out.trace = std::make_shared<const Trace>(Trace::build(std::move(sink->ranks)));
  }

  if (msink) out.metrics = msink->report();
  return out;
}

}  // namespace sptrsv
