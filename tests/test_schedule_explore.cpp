#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "comm/sparse_allreduce.hpp"
#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "sparse/generators.hpp"
#include "test_support.hpp"
#include "trace/trace.hpp"

namespace sptrsv {
namespace {

/// Systematic schedule exploration (docs/TESTING.md): every RunOptions
/// point of test::schedule_sweep runs the same program under a different
/// legal grant order of the deterministic scheduler. The commit fence
/// makes all of them semantically equivalent, so the whole clean ledger —
/// solution bits, Result::fingerprint, message/byte counts — must be
/// bitwise identical across the sweep, while the recorded
/// ScheduleCertificates prove the interleavings genuinely differed. Any
/// divergence is a schedule-dependence bug in the runtime or the program
/// under test; the failing point's certificate replays it exactly.

constexpr int kSeedsPerPolicy = 12;  // 1 + 5*12 = 61 sweep points
constexpr std::size_t kMinDistinctSchedules = 50;

/// Runs `make_rank_fn(&data)` over the whole sweep and checks ledger and
/// data invariance against the FIFO baseline. `data` must be written
/// rank-indexed (never appended in execution order). Returns the number of
/// distinct grant sequences seen.
template <typename MakeRankFn>
std::size_t sweep_and_check(int nranks, const MachineModel& m, MakeRankFn make_rank_fn) {
  const auto points = test::schedule_sweep(kSeedsPerPolicy);
  std::set<std::vector<std::int32_t>> distinct;
  Cluster::Result baseline;
  std::vector<Real> baseline_data;
  for (const auto& pt : points) {
    std::vector<Real> data;
    const Cluster::Result res = Cluster::run(nranks, m, make_rank_fn(&data), pt.opts);
    EXPECT_EQ(res.schedule.policy, pt.opts.schedule) << pt.name;
    distinct.insert(res.schedule.grants);
    if (pt.name == "fifo") {
      baseline = res;
      baseline_data = std::move(data);
      continue;
    }
    EXPECT_TRUE(test::stats_identical(baseline, res)) << pt.name;
    EXPECT_TRUE(test::message_counts_identical(baseline, res)) << pt.name;
    EXPECT_EQ(baseline.fingerprint(), res.fingerprint()) << pt.name;
    EXPECT_TRUE(test::bitwise_equal(baseline_data, data)) << pt.name;
  }
  return distinct.size();
}

/// Raw wildcard all-to-all: every rank sends its stamped payload to every
/// other rank, then drains P-1 MPI_ANY_SOURCE receives — the access
/// pattern that actually breaks MPI SpTRSV codes. The commit fence pins
/// which queued message every wildcard receive takes, so the fold below is
/// schedule-invariant even though doubles do not commute.
TEST(ScheduleExplore, WildcardAllToAllLedgerIsScheduleInvariant) {
  constexpr int kP = 8;
  const std::size_t distinct = sweep_and_check(
      kP, test::test_machine(), [](std::vector<Real>* out) {
        out->assign(kP, 0.0);
        return [out](Comm& c) {
          for (int dst = 0; dst < c.size(); ++dst) {
            if (dst == c.rank()) continue;
            c.compute(1e4 * (1 + (c.rank() * 7 + dst) % 5));
            c.send(dst, /*tag=*/7, {Real(c.rank()) + 0.25, Real(dst)});
          }
          Real sum = 0.0;
          for (int i = 0; i + 1 < c.size(); ++i) {
            const Message msg = c.recv(kAnySource, kAnyTag);
            sum += msg.data[0] / (1.0 + msg.data[1]);
          }
          (*out)[static_cast<std::size_t>(c.rank())] = sum;
        };
      });
  EXPECT_GE(distinct, kMinDistinctSchedules);
}

/// Sparse allreduce over the Pz tree (paper Algorithm 2) — the collective
/// the 3D solver's correctness hinges on.
TEST(ScheduleExplore, SparseAllreduceLedgerIsScheduleInvariant) {
  const NdTree tree = test::shape_tree(3);  // 8 leaves, 3 ancestors per leaf
  constexpr int kP = 8;
  const int levels = tree.levels();
  const std::size_t width = 3;  // values per segment
  const std::size_t per_rank = static_cast<std::size_t>(levels) * width;
  const std::size_t distinct = sweep_and_check(
      kP, test::test_machine(), [&](std::vector<Real>* out) {
        out->assign(kP * per_rank, 0.0);
        return [&, out](Comm& c) {
          const Idx z = c.rank();
          const std::span<Real> mine(
              out->data() + static_cast<std::size_t>(z) * per_rank, per_rank);
          std::vector<ReduceSegment> segs;
          std::size_t off = 0;
          for (const Idx node : tree.path_to_root(tree.leaf_node_id(z))) {
            if (tree.node(node).depth >= levels) continue;  // skip the leaf itself
            const std::span<Real> slice = mine.subspan(off, width);
            slice[0] = Real(z) + 0.5;
            slice[1] = Real(node);
            slice[2] = Real(z) * 0.25;
            segs.push_back({node, slice});
            off += width;
          }
          sparse_allreduce(c, tree, segs);
        };
      });
  EXPECT_GE(distinct, kMinDistinctSchedules);
}

/// Full message-driven 2D L+U solve on a 3x2 grid.
TEST(ScheduleExplore, Solver2dLedgerIsScheduleInvariant) {
  const CsrMatrix a = make_grid2d(12, 12, Stencil2d::kNinePoint, {.seed = 11});
  const FactoredSystem fs = analyze_and_factor(a, 0);
  const std::vector<Real> b = test::random_rhs(a.rows(), 1, 3);

  const auto points = test::schedule_sweep(kSeedsPerPolicy);
  std::set<std::vector<std::int32_t>> distinct;
  test::Dist2dOutcome baseline;
  for (const auto& pt : points) {
    test::Dist2dOutcome out =
        test::solve_system_2d(fs, {3, 2}, b, 1, test::test_machine(), pt.opts);
    distinct.insert(out.run.schedule.grants);
    if (pt.name == "fifo") {
      baseline = std::move(out);
      continue;
    }
    EXPECT_TRUE(test::bitwise_equal(baseline.x, out.x)) << pt.name;
    EXPECT_TRUE(test::stats_identical(baseline.run, out.run)) << pt.name;
    EXPECT_EQ(baseline.run.fingerprint(), out.run.fingerprint()) << pt.name;
  }
  EXPECT_GE(distinct.size(), kMinDistinctSchedules);
}

/// Both 3D algorithms on a 2x2x2 grid (the full pipeline: per-grid 2D
/// solves plus the inter-grid sparse reduction).
class ScheduleExplore3d : public ::testing::TestWithParam<Algorithm3d> {};

TEST_P(ScheduleExplore3d, LedgerIsScheduleInvariant) {
  const CsrMatrix a = make_grid2d(12, 12, Stencil2d::kNinePoint, {.seed = 5});
  const FactoredSystem fs = analyze_and_factor(a, 3);
  const std::vector<Real> b = test::random_rhs(a.rows(), 2, 4);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.algorithm = GetParam();
  cfg.nrhs = 2;

  const auto points = test::schedule_sweep(kSeedsPerPolicy);
  std::set<std::vector<std::int32_t>> distinct;
  DistSolveOutcome baseline;
  for (const auto& pt : points) {
    cfg.run = pt.opts;
    DistSolveOutcome out = solve_system_3d(fs, b, cfg, test::test_machine());
    distinct.insert(out.run_stats.schedule.grants);
    if (pt.name == "fifo") {
      baseline = std::move(out);
      continue;
    }
    EXPECT_TRUE(test::outcomes_identical(baseline, out)) << pt.name;
  }
  EXPECT_GE(distinct.size(), kMinDistinctSchedules);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ScheduleExplore3d,
                         ::testing::Values(Algorithm3d::kProposed,
                                           Algorithm3d::kBaseline),
                         [](const auto& info) {
                           return info.param == Algorithm3d::kProposed ? "Proposed"
                                                                       : "Baseline";
                         });

/// Trace conservation invariants hold at every sweep point: the trace is
/// contiguous, the critical-path breakdown telescopes to the makespan, and
/// (for a split-free program, where collective context ids cannot be
/// renumbered) the Chrome JSON export is byte-identical across schedules.
TEST(ScheduleExplore, TraceConservationIsScheduleInvariant) {
  constexpr int kP = 6;
  auto rank_fn = [](Comm& c) {
    c.compute(5e4 * (c.rank() + 1));
    if (c.rank() != 0) {
      c.send(0, 3, {Real(c.rank())});
    } else {
      for (int i = 0; i + 1 < c.size(); ++i) c.recv(kAnySource, 3);
    }
    c.barrier();
  };
  std::string baseline_json;
  for (const auto& pt : test::schedule_sweep(3)) {
    RunOptions opts = pt.opts;
    opts.trace = true;
    const Cluster::Result res = Cluster::run(kP, test::test_machine(), rank_fn, opts);
    ASSERT_NE(res.trace, nullptr) << pt.name;
    EXPECT_TRUE(res.trace->contiguous()) << pt.name;
    EXPECT_DOUBLE_EQ(res.trace->makespan(), res.makespan()) << pt.name;
    const auto cp = res.trace->critical_path();
    EXPECT_DOUBLE_EQ(cp.breakdown.total(), res.makespan()) << pt.name;
    const std::string json = res.trace->chrome_json();
    if (baseline_json.empty()) {
      baseline_json = json;
    } else {
      EXPECT_EQ(baseline_json, json) << pt.name;
    }
  }
}

/// The bug-finding power demonstration: a deliberately planted
/// order-dependent reduction. The program is virtual-time-correct (every
/// ledger quantity is schedule-invariant), but it folds rank contributions
/// into *shared process memory* in execution order with a non-associative
/// update — the classic harness bug of merging distributed results through
/// an unordered shared accumulator. Grant-order exploration must expose
/// it: some sweep point produces a different fold than FIFO, and that
/// point's certificate replays the deviant fold exactly.
TEST(ScheduleExplore, CatchesPlantedOrderDependentReduction) {
  constexpr int kP = 6;
  std::mutex mu;
  auto make_rank_fn = [&mu](Real* acc) {
    return [&mu, acc](Comm& c) {
      c.compute(1e5);  // identical modeled work on every rank
      {
        // BUG (planted): non-associative fold in grant order.
        std::lock_guard<std::mutex> lk(mu);
        *acc = *acc * 1.0000001 + Real(c.rank() + 1);
      }
      c.barrier();
    };
  };

  Real fifo_acc = 0.0;
  const RunOptions fifo{};
  const Cluster::Result fifo_res =
      Cluster::run(kP, test::test_machine(), make_rank_fn(&fifo_acc), fifo);

  bool caught = false;
  ScheduleCertificate deviant_cert;
  Real deviant_acc = 0.0;
  for (const auto& pt : test::schedule_sweep(kSeedsPerPolicy)) {
    Real acc = 0.0;
    const Cluster::Result res =
        Cluster::run(kP, test::test_machine(), make_rank_fn(&acc), pt.opts);
    // The *ledger* stays invariant — the bug lives outside virtual time.
    EXPECT_EQ(fifo_res.fingerprint(), res.fingerprint()) << pt.name;
    if (std::memcmp(&acc, &fifo_acc, sizeof(Real)) != 0 && !caught) {
      caught = true;
      deviant_cert = res.schedule;
      deviant_acc = acc;
    }
  }
  ASSERT_TRUE(caught) << "no sweep point permuted the planted fold; "
                         "exploration has lost its bug-finding power";

  // The failing schedule replays exactly from its certificate — same
  // deviant fold, same grant record — including through the text
  // round-trip of the docs/TESTING.md bug-report workflow.
  const ScheduleCertificate parsed =
      ScheduleCertificate::parse(deviant_cert.to_string());
  RunOptions replay{};
  replay.replay_schedule = &parsed;
  Real acc = 0.0;
  const Cluster::Result res =
      Cluster::run(kP, test::test_machine(), make_rank_fn(&acc), replay);
  EXPECT_EQ(std::memcmp(&acc, &deviant_acc, sizeof(Real)), 0)
      << "replayed fold " << acc << " != recorded deviant " << deviant_acc;
  EXPECT_EQ(res.schedule.grants, deviant_cert.grants);
  EXPECT_EQ(fifo_res.fingerprint(), res.fingerprint());
}

/// Certificates replay bit-exactly for a real solver too: the replayed
/// run's entire grant record equals the original's.
TEST(ScheduleExplore, CertificateReplayReproducesSolverRun) {
  const CsrMatrix a = make_grid2d(10, 10, Stencil2d::kNinePoint, {.seed = 2});
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const std::vector<Real> b = test::random_rhs(a.rows(), 1, 9);
  SolveConfig cfg;
  cfg.shape = {2, 1, 2};
  cfg.run = RunOptions{.seed = 7};
  cfg.run.schedule = SchedulePolicy::kRandomPriority;
  cfg.run.schedule_seed = 0xBEEF;
  cfg.run.priority_points = 4;
  const DistSolveOutcome first = solve_system_3d(fs, b, cfg, test::test_machine());
  EXPECT_FALSE(first.run_stats.schedule.grants.empty());

  SolveConfig replay_cfg = cfg;
  replay_cfg.run = RunOptions{.seed = 7};
  replay_cfg.run.replay_schedule = &first.run_stats.schedule;
  const DistSolveOutcome second = solve_system_3d(fs, b, replay_cfg, test::test_machine());
  EXPECT_TRUE(test::outcomes_identical(first, second));
  EXPECT_EQ(second.run_stats.schedule.grants, first.run_stats.schedule.grants);
  EXPECT_EQ(second.run_stats.schedule.policy, SchedulePolicy::kRandomPriority);
  EXPECT_EQ(second.run_stats.schedule.seed, 0xBEEFu);
}

/// Deadlock detection still works under exploration policies: a cyclic
/// wait is diagnosed as FaultKind::kDeadlock, not a hang or a misreport.
TEST(ScheduleExplore, DeadlockDetectedUnderEveryPolicy) {
  for (const auto& pt : test::schedule_sweep(2)) {
    const Cluster::Result res = Cluster::try_run(
        3, test::test_machine(),
        [](Comm& c) { c.recv((c.rank() + 1) % c.size(), 99); }, pt.opts);
    EXPECT_FALSE(res.ok()) << pt.name;
    EXPECT_EQ(res.fault.kind, FaultKind::kDeadlock) << pt.name;
  }
}

}  // namespace
}  // namespace sptrsv
