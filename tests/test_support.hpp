#pragma once
/// \file test_support.hpp
/// \brief Shared fixtures for the test suite: the canonical test machine,
/// seeded random matrix / grid-shape / RHS generators, a synthetic NdTree
/// builder, and bitwise outcome-comparison helpers for the determinism
/// suite. Every generator takes an explicit seed so a failing case replays
/// exactly (see docs/DETERMINISM.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/solver2d.hpp"
#include "core/sptrsv3d.hpp"
#include "dist/solve_plan.hpp"
#include "factor/supernodal_lu.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"

namespace sptrsv::test {

/// The machine every unit test models unless it needs something else.
inline MachineModel test_machine() { return MachineModel::cori_haswell(); }

/// Test machine with every perturbation knob enabled; `seed` goes into
/// RunOptions, not here (one machine, many seeds).
inline MachineModel perturbed_machine(double latency_jitter = 0.5,
                                      double delivery_delay = 2e-6,
                                      double compute_skew = 0.3) {
  MachineModel m = test_machine();
  m.perturb.latency_jitter = latency_jitter;
  m.perturb.delivery_delay = delivery_delay;
  m.perturb.compute_skew = compute_skew;
  return m;
}

/// Test machine with a lossy network: drop / duplicate / corrupt / reorder
/// delivery faults at recoverable rates (the default TransportOptions retry
/// budget absorbs them), driving the reliable transport of
/// docs/ROBUSTNESS.md. The clean ledger must be untouched by any of this.
inline MachineModel faulty_machine(double drop = 0.1, double dup = 0.05,
                                   double corrupt = 0.02, double reorder = 0.05) {
  MachineModel m = test_machine();
  m.perturb.drop_prob = drop;
  m.perturb.dup_prob = dup;
  m.perturb.corrupt_prob = corrupt;
  m.perturb.reorder_prob = reorder;
  m.perturb.reorder_window = 5e-6;
  return m;
}

/// Seeded dense RHS, n x nrhs column-major in [-1, 1).
inline std::vector<Real> random_rhs(Idx n, Idx nrhs, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  std::vector<Real> b(static_cast<size_t>(n) * static_cast<size_t>(nrhs));
  for (auto& v : b) v = uni(rng);
  return b;
}

/// 4x4 tridiagonal matrix (4 on the diagonal, -1 beside it) with `v` in
/// place of entry (r, c), e.g. a NaN for the non-finite-input tests.
inline CsrMatrix tridiagonal_with(Idx r, Idx c, Real v) {
  CooMatrix coo;
  coo.rows = coo.cols = 4;
  for (Idx i = 0; i < 4; ++i) {
    for (Idx j = std::max<Idx>(i - 1, 0); j <= std::min<Idx>(i + 1, 3); ++j) {
      coo.add(i, j, i == r && j == c ? v : (i == j ? 4.0 : -1.0));
    }
  }
  return CsrMatrix::from_coo(coo);
}

inline Real max_abs_diff(std::span<const Real> a, std::span<const Real> b) {
  Real worst = 0;
  for (size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Units-in-the-last-place distance between two doubles: 0 iff bitwise
/// equal, 1 for adjacent representables, huge across a sign flip. The
/// differential oracle compares solver paths this way — a fixed absolute
/// tolerance would be meaninglessly loose for well-scaled entries and
/// meaninglessly tight near zero.
inline std::uint64_t ulp_distance(Real a, Real b) {
  if (std::isnan(a) || std::isnan(b)) return ~std::uint64_t{0};
  auto mono = [](Real v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    // Map the IEEE bit pattern to a monotone unsigned key (negative range
    // reversed and placed below the positive range).
    return (u & (std::uint64_t{1} << 63)) ? ~u : u | (std::uint64_t{1} << 63);
  };
  const std::uint64_t ka = mono(a), kb = mono(b);
  return ka > kb ? ka - kb : kb - ka;
}

/// Worst elementwise ULP distance over two equal-length spans.
inline std::uint64_t max_ulp_distance(std::span<const Real> a,
                                      std::span<const Real> b) {
  std::uint64_t worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, ulp_distance(a[i], b[i]));
  }
  return worst;
}

/// Reference model for the CSR-builder property fuzz: the (row, col) ->
/// summed-value relation an arbitrary triplet stream must compress to.
struct CooModel {
  Idx rows = 0, cols = 0;
  std::map<std::pair<Idx, Idx>, Real> entries;
};

/// Draws a random triplet stream (duplicates, any order) into `coo` and
/// returns the matching CooModel.
inline CooModel random_coo_model(std::mt19937_64& rng, CooMatrix& coo) {
  std::uniform_int_distribution<Idx> dim(1, 30);
  CooModel m;
  m.rows = dim(rng);
  m.cols = dim(rng);
  coo.rows = m.rows;
  coo.cols = m.cols;
  std::uniform_int_distribution<Idx> ri(0, m.rows - 1), ci(0, m.cols - 1);
  std::uniform_real_distribution<Real> val(-2.0, 2.0);
  std::uniform_int_distribution<int> count(0, 120);
  const int n = count(rng);
  for (int e = 0; e < n; ++e) {
    const Idx r = ri(rng), c = ci(rng);
    const Real v = val(rng);
    coo.add(r, c, v);
    m.entries[{r, c}] += v;
  }
  return m;
}

/// Scatters diag-owned supernode pieces out of an n x nrhs column-major
/// vector (the 2D solvers' input layout).
inline VecMap local_pieces(const SupernodalLU& lu, const Solve2dPlan& plan, int me,
                           std::span<const Idx> snodes, std::span<const Real> v,
                           Idx nrhs) {
  VecMap out;
  for (const Idx k : snodes) {
    if (plan.shape().diag_owner(k) != me) continue;
    const Idx w = lu.sym.part.width(k);
    const Idx base = lu.sym.part.first_col(k);
    std::vector<Real> piece(static_cast<size_t>(w) * nrhs);
    for (Idx j = 0; j < nrhs; ++j) {
      for (Idx i = 0; i < w; ++i) {
        piece[static_cast<size_t>(j) * w + i] =
            v[static_cast<size_t>(j) * lu.n() + base + i];
      }
    }
    out.emplace(k, std::move(piece));
  }
  return out;
}

/// Gathers solved pieces from all ranks back into an n x nrhs vector
/// (shared-memory merge; call under a mutex from rank_fn).
inline void merge_pieces(const SupernodalLU& lu, const VecMap& pieces,
                         std::span<Real> out, Idx nrhs) {
  for (const auto& [k, piece] : pieces) {
    const Idx w = lu.sym.part.width(k);
    const Idx base = lu.sym.part.first_col(k);
    for (Idx j = 0; j < nrhs; ++j) {
      for (Idx i = 0; i < w; ++i) {
        out[static_cast<size_t>(j) * lu.n() + base + i] =
            piece[static_cast<size_t>(j) * w + i];
      }
    }
  }
}

/// Whole-matrix A x = b through the message-driven 2D solver on a px*py
/// grid: permutes b into factor order, runs L-then-U, permutes x back.
/// `fs` must track the whole matrix as one node (analyze_and_factor(a, 0)).
struct Dist2dOutcome {
  std::vector<Real> x;
  Cluster::Result run;
};
inline Dist2dOutcome solve_system_2d(const FactoredSystem& fs, Grid2dShape shape,
                                     std::span<const Real> b, Idx nrhs,
                                     const MachineModel& m,
                                     const RunOptions& opts = {}) {
  const Solve2dPlan plan = make_grid_plan(fs.lu, fs.tree, 0, shape, TreeKind::kBinary);
  const Idx n = fs.lu.n();
  std::vector<Real> pb(b.size());
  for (Idx j = 0; j < nrhs; ++j) {
    for (Idx i = 0; i < n; ++i) {
      pb[static_cast<size_t>(j) * n + i] =
          b[static_cast<size_t>(j) * n + fs.perm[static_cast<size_t>(i)]];
    }
  }
  std::vector<Real> px(b.size(), 0.0);
  std::mutex mu;
  Dist2dOutcome out;
  out.run = Cluster::run(
      shape.size(), m,
      [&](Comm& c) {
        const VecMap b_local = local_pieces(fs.lu, plan, c.rank(), plan.cols(), pb, nrhs);
        auto lres = solve_l_2d(c, plan, b_local, {}, nrhs, 0);
        auto ures = solve_u_2d(c, plan, lres.y, {}, nrhs, 40000);
        std::lock_guard<std::mutex> lk(mu);
        merge_pieces(fs.lu, ures.x, px, nrhs);
      },
      opts);
  out.x.resize(b.size());
  for (Idx j = 0; j < nrhs; ++j) {
    for (Idx i = 0; i < n; ++i) {
      out.x[static_cast<size_t>(j) * n + fs.perm[static_cast<size_t>(i)]] =
          px[static_cast<size_t>(j) * n + i];
    }
  }
  return out;
}

/// One point of the schedule-exploration sweep: a named RunOptions.
struct SchedulePoint {
  RunOptions opts;
  std::string name;
};

/// The standard exploration grid (docs/TESTING.md): FIFO, PCT random
/// priorities with d in {0, 2, 5}, and delay-bounded with budgets {4, 16},
/// each over `seeds_per_policy` schedule seeds — 1 + 5 * seeds points.
/// `fault_seed` goes into RunOptions::seed (the perturbation/fault stream),
/// deliberately held fixed while schedules vary.
inline std::vector<SchedulePoint> schedule_sweep(int seeds_per_policy,
                                                 std::uint64_t fault_seed = 0) {
  std::vector<SchedulePoint> pts;
  RunOptions base;
  base.seed = fault_seed;
  pts.push_back({base, "fifo"});
  for (const int d : {0, 2, 5}) {
    for (int s = 0; s < seeds_per_policy; ++s) {
      RunOptions o = base;
      o.schedule = SchedulePolicy::kRandomPriority;
      o.schedule_seed = 0xACE1ull + 1000 * static_cast<std::uint64_t>(d) + static_cast<std::uint64_t>(s);
      o.priority_points = d;
      pts.push_back({o, "pct_d" + std::to_string(d) + "_s" + std::to_string(s)});
    }
  }
  for (const int budget : {4, 16}) {
    for (int s = 0; s < seeds_per_policy; ++s) {
      RunOptions o = base;
      o.schedule = SchedulePolicy::kDelayBounded;
      o.schedule_seed = 0xD31Aull + 1000 * static_cast<std::uint64_t>(budget) + static_cast<std::uint64_t>(s);
      o.delay_budget = budget;
      pts.push_back({o, "delay_b" + std::to_string(budget) + "_s" + std::to_string(s)});
    }
  }
  return pts;
}

/// Exact (bitwise) equality of two Real spans — the determinism tests
/// compare solutions this way, not with a tolerance.
inline ::testing::AssertionResult bitwise_equal(std::span<const Real> a,
                                                std::span<const Real> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(Real)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << " differs: " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Complete binary NdTree with `levels` levels of separators (2^levels
/// leaves) and no rows attached — enough shape for tree/allreduce tests.
inline NdTree shape_tree(int levels) {
  const Idx n_nodes = (Idx{1} << (levels + 1)) - 1;
  std::vector<NdNode> nodes(static_cast<size_t>(n_nodes));
  for (Idx id = 0; id < n_nodes; ++id) {
    auto& nd = nodes[static_cast<size_t>(id)];
    if (id > 0) nd.parent = (id - 1) / 2;
    int d = 0;
    for (Idx v = id; v > 0; v = (v - 1) / 2) ++d;
    nd.depth = d;
    if (d < levels) {
      nd.left = 2 * id + 1;
      nd.right = 2 * id + 2;
    }
  }
  return NdTree(levels, std::move(nodes));
}

/// One randomly drawn solve problem: matrix, factorization, 3D layout and
/// RHS width, all a pure function of `seed`.
struct RandomSystem {
  CsrMatrix a;
  FactoredSystem fs;
  Grid3dShape shape;
  Idx nrhs = 1;
  std::string name;
};

inline RandomSystem random_system(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {  // inclusive
    return static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1)) + lo;
  };
  RandomSystem s;
  switch (pick(0, 2)) {
    case 0: {
      const Idx nx = pick(8, 18), ny = pick(8, 18);
      s.a = make_grid2d(nx, ny, Stencil2d::kNinePoint);
      s.name = "grid2d_" + std::to_string(nx) + "x" + std::to_string(ny);
      break;
    }
    case 1: {
      const Idx n = pick(40, 120);
      s.a = make_random_symmetric(n, 3.0, rng());
      s.name = "randsym_" + std::to_string(n);
      break;
    }
    default: {
      const Idx n = pick(20, 40);
      const Idx bw = pick(2, 6);
      s.a = make_banded(n, bw, rng());
      s.name = "banded_" + std::to_string(n) + "_bw" + std::to_string(bw);
      break;
    }
  }
  const int nd_levels = pick(2, 3);
  s.fs = analyze_and_factor(s.a, nd_levels);
  const int pz_pow = pick(0, std::min(2, nd_levels));
  s.shape.pz = 1 << pz_pow;
  s.shape.px = pick(1, 3);
  s.shape.py = pick(1, 3);
  s.nrhs = pick(1, 3);
  s.name += "_p" + std::to_string(s.shape.px) + "x" + std::to_string(s.shape.py) +
            "x" + std::to_string(s.shape.pz) + "_r" + std::to_string(s.nrhs) +
            "_seed" + std::to_string(seed);
  return s;
}

/// Bitwise comparison of two runtime result sets (clocks, category times,
/// message/byte counts). This is what "deterministic" means here.
inline ::testing::AssertionResult stats_identical(const Cluster::Result& a,
                                                  const Cluster::Result& b) {
  if (a.ranks.size() != b.ranks.size()) {
    return ::testing::AssertionFailure() << "rank counts differ";
  }
  for (size_t r = 0; r < a.ranks.size(); ++r) {
    if (std::memcmp(&a.ranks[r], &b.ranks[r], sizeof(RankStats)) != 0) {
      return ::testing::AssertionFailure()
             << "rank " << r << " stats differ (vtime " << a.ranks[r].vtime << " vs "
             << b.ranks[r].vtime << ", fingerprints " << a.fingerprint() << " vs "
             << b.fingerprint() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Message/byte counters only (the perturbation-invariance check: counts
/// must match even when every timing moved).
inline ::testing::AssertionResult message_counts_identical(const Cluster::Result& a,
                                                           const Cluster::Result& b) {
  if (a.ranks.size() != b.ranks.size()) {
    return ::testing::AssertionFailure() << "rank counts differ";
  }
  for (size_t r = 0; r < a.ranks.size(); ++r) {
    for (int c = 0; c < kNumTimeCategories; ++c) {
      if (a.ranks[r].messages[c] != b.ranks[r].messages[c] ||
          a.ranks[r].bytes[c] != b.ranks[r].bytes[c]) {
        return ::testing::AssertionFailure()
               << "rank " << r << " category " << c << " counts differ: "
               << a.ranks[r].messages[c] << "/" << a.ranks[r].bytes[c] << " vs "
               << b.ranks[r].messages[c] << "/" << b.ranks[r].bytes[c];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Full bitwise comparison of two distributed-solve outcomes: solution,
/// per-rank phase times and raw runtime statistics.
inline ::testing::AssertionResult outcomes_identical(const DistSolveOutcome& a,
                                                     const DistSolveOutcome& b) {
  if (auto r = bitwise_equal(a.x, b.x); !r) {
    return ::testing::AssertionFailure() << "solutions differ: " << r.message();
  }
  if (a.rank_times.size() != b.rank_times.size()) {
    return ::testing::AssertionFailure() << "rank_times sizes differ";
  }
  for (size_t r = 0; r < a.rank_times.size(); ++r) {
    if (std::memcmp(&a.rank_times[r], &b.rank_times[r], sizeof(RankPhaseTimes)) != 0) {
      return ::testing::AssertionFailure() << "rank " << r << " phase times differ";
    }
  }
  return stats_identical(a.run_stats, b.run_stats);
}

}  // namespace sptrsv::test
