/// \file test_elastic.cpp
/// \brief Elastic re-expansion (docs/ROBUSTNESS.md, elasticity lifecycle):
/// spare-return events grow a degraded world back, and load-aware
/// rebalancing bounds the post-shrink overload.
///
/// The contract under test, in order of importance:
///  1. The acceptance scenario: a solve on 8 ranks shrinks to 7 under
///     RunOptions::degrade, a spare-return event re-expands it to 8
///     mid-solve, and the solution, fingerprint, clean clocks, message
///     counts and clean trace export are bitwise identical to the
///     fault-free run. Every re-agree/expand/transfer/replay cost rides the
///     fault ledger only (ElasticityStats, recovery.elastic.* metrics,
///     full-fidelity-only expand/transfer trace markers).
///  2. Load-aware degradation (RecoveryModel::rebalance_fanout) splits a
///     victim's hosted set across the least-loaded survivors, bounding the
///     worst overload multiplier below whole-set ring adoption on the same
///     crash schedule — with the clean ledger still bitwise invariant.
///  3. Armed-but-inert repair schedules (repair_mtbf set, no terminal
///     crashes) are bitwise invisible on BOTH ledgers.
///  4. build_repair_plan / load-aware build_degrade_plan are pure functions
///     of their inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "runtime/checkpoint.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"
#include "trace/trace.hpp"

namespace sptrsv {
namespace {

using test::bitwise_equal;
using test::message_counts_identical;
using test::random_rhs;
using test::test_machine;

constexpr RunOptions kDet{.seed = 0};
constexpr RunOptions kDegradeOpts{.seed = 0,
                                  .degrade = true};

/// Machine with an explicit crash schedule and an empty spare pool — every
/// crash verdict is terminal unless degrade absorbs it.
MachineModel dry_machine(std::vector<PerturbationModel::Crash> crashes,
                         int spares = 0) {
  MachineModel m = test_machine();
  m.perturb.crashes = std::move(crashes);
  m.recovery.spare_ranks = spares;
  return m;
}

// ---------------------------------------------------------------------------
// build_repair_plan: pure, seeded spare-return arithmetic.
// ---------------------------------------------------------------------------

TEST(RepairPlan, ExplicitReturnsAreValidatedAndSortedPerRank) {
  PerturbationModel pm;
  pm.returns = {{2, 3e-4}, {2, 1e-4}, {-1, 1e-5}, {9, 1e-5}, {0, 2e-4}};
  const auto plan = build_repair_plan(pm, /*seed=*/0, /*nranks=*/4);
  ASSERT_EQ(plan.size(), 4u);
  ASSERT_EQ(plan[2].size(), 2u);  // out-of-range ranks dropped
  EXPECT_DOUBLE_EQ(plan[2][0], 1e-4);  // sorted ascending
  EXPECT_DOUBLE_EQ(plan[2][1], 3e-4);
  ASSERT_EQ(plan[0].size(), 1u);
  EXPECT_TRUE(plan[1].empty());
  EXPECT_TRUE(plan[3].empty());
}

TEST(RepairPlan, PoissonDrawsArePureFunctionsOfSeedAndRank) {
  PerturbationModel pm;
  pm.repair_mtbf = 1e-3;
  pm.repair_max_per_rank = 3;
  const auto a = build_repair_plan(pm, 7, 4);
  const auto b = build_repair_plan(pm, 7, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), 3u);
    EXPECT_TRUE(bitwise_equal(a[r], b[r])) << "rank " << r;
    EXPECT_TRUE(std::is_sorted(a[r].begin(), a[r].end()));
    for (const double t : a[r]) EXPECT_GT(t, 0.0);
  }
  const auto c = build_repair_plan(pm, 8, 4);
  bool any_differs = false;
  for (size_t r = 0; r < a.size(); ++r) any_differs |= !bitwise_equal(a[r], c[r]);
  EXPECT_TRUE(any_differs) << "different seeds must draw different repairs";
}

TEST(RepairPlan, DisarmedModelYieldsEmptyPlan) {
  const auto plan = build_repair_plan(PerturbationModel{}, 0, 4);
  for (const auto& v : plan) EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------------
// Load-aware build_degrade_plan: LPT split across least-loaded survivors.
// ---------------------------------------------------------------------------

TEST(LoadAwarePlan, FanoutZeroKeepsClassicRingAndNoMoves) {
  const RecoveryModel rm;
  const DegradePlan p = build_degrade_plan(rm, 8, {2});
  EXPECT_EQ(p.adopter, 3);
  EXPECT_TRUE(p.moved_partitions.empty());
  EXPECT_TRUE(p.adopters.empty());
}

TEST(LoadAwarePlan, UniformWorkGoesToLeastLoadedLowestRank) {
  RecoveryModel rm;
  rm.rebalance_fanout = 2;
  const DegradePlan p = build_degrade_plan(rm, 8, {2});
  ASSERT_EQ(p.moved_partitions.size(), 1u);
  EXPECT_EQ(p.moved_partitions[0], 2);
  EXPECT_EQ(p.adopters[0], 0);  // all loads equal: lowest alive rank wins
  EXPECT_EQ(p.adopter, 0);      // headline adopter follows the victim's own
}

TEST(LoadAwarePlan, ChainedDeathsSplitAcrossTheFanout) {
  RecoveryModel rm;
  rm.rebalance_fanout = 2;
  // Rank 2 died earlier and its partition moved to 3; now 3 dies hosting
  // both. The two partitions must split across the two least-loaded
  // survivors instead of piling onto one adopter.
  const std::vector<int> host = {0, 1, 3, 3, 4, 5, 6, 7};
  const DegradePlan p = build_degrade_plan(rm, 8, {2, 3}, host);
  ASSERT_EQ(p.moved_partitions.size(), 2u);
  EXPECT_EQ(p.adopters[0], 0);
  EXPECT_EQ(p.adopters[1], 1);
}

TEST(LoadAwarePlan, WorkEstimatesSteerTheAssignment) {
  RecoveryModel rm;
  rm.rebalance_fanout = 1;
  rm.rank_work = {1.0, 1.0, 1.0, 1.0, 1.0, 0.125, 1.0, 1.0};
  const DegradePlan p = build_degrade_plan(rm, 8, {2});
  ASSERT_EQ(p.moved_partitions.size(), 1u);
  EXPECT_EQ(p.adopters[0], 5);  // the lightest survivor, not the ring next
}

TEST(LoadAwarePlan, PureFunctionOfInputs) {
  RecoveryModel rm;
  rm.rebalance_fanout = 3;
  rm.rank_work = {2.0, 1.0, 4.0, 1.0, 1.0, 1.0, 3.0, 1.0};
  const std::vector<int> host = {0, 1, 2, 2, 4, 5, 6, 7};
  const DegradePlan a = build_degrade_plan(rm, 8, {5, 2}, host);
  const DegradePlan b = build_degrade_plan(rm, 8, {5, 2}, host);
  EXPECT_EQ(a.moved_partitions, b.moved_partitions);
  EXPECT_EQ(a.adopters, b.adopters);
  EXPECT_EQ(a.adopter, b.adopter);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: shrink to 7 ranks, re-expand to 8 mid-solve.
// ---------------------------------------------------------------------------

TEST(ElasticReExpansion, SpareReturnRegrowsTheWorldBitwiseClean) {
  const CsrMatrix a =
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);

  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = kDet;
  cfg.run.trace = true;
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());

  // Rank 2 dies at 30% of the shortest clean finish (empty spare pool, so
  // degrade shrinks 8 -> 7); its repaired node returns at 60%, well inside
  // the solve, so the world re-expands to 8 and the adopted partition's
  // image travels back.
  double minvt = clean.run_stats.ranks[0].vtime;
  for (const auto& r : clean.run_stats.ranks) minvt = std::min(minvt, r.vtime);
  MachineModel m = dry_machine({{2, 0.3 * minvt}});
  m.perturb.returns = {{2, 0.6 * minvt}};

  SolveConfig ecfg = cfg;
  ecfg.run = kDegradeOpts;
  ecfg.run.trace = true;
  ecfg.run.metrics = true;
  const DistSolveOutcome elastic = solve_system_3d(fs, b, ecfg, m);

  const ElasticityStats el = elastic.run_stats.elasticity_stats();
  ASSERT_EQ(el.returns, 1);
  EXPECT_EQ(el.expansions, 1);
  EXPECT_EQ(el.transfers, 1);  // the partition's checkpoint image came back
  EXPECT_GT(el.transfer_bytes, 0);
  EXPECT_GT(el.agree_time, 0.0);
  EXPECT_GT(el.expand_time, 0.0);
  EXPECT_GT(el.transfer_time, 0.0);
  EXPECT_GT(el.replay_time, 0.0);
  const DegradationStats deg = elastic.run_stats.degradation_stats();
  EXPECT_EQ(deg.degrades, 1);
  EXPECT_DOUBLE_EQ(deg.overload_mult, 2.0);  // adopter peaked at 2 partitions

  // Clean ledger: bitwise indistinguishable from the fault-free run at
  // restored parallelism.
  EXPECT_TRUE(bitwise_equal(elastic.x, clean.x));
  EXPECT_EQ(elastic.run_stats.fingerprint(), clean.run_stats.fingerprint());
  EXPECT_DOUBLE_EQ(elastic.run_stats.makespan(), clean.run_stats.makespan());
  EXPECT_TRUE(message_counts_identical(elastic.run_stats, clean.run_stats));
  for (size_t r = 0; r < clean.run_stats.ranks.size(); ++r) {
    EXPECT_TRUE(bitwise_equal({&elastic.run_stats.ranks[r].vtime, 1},
                              {&clean.run_stats.ranks[r].vtime, 1}));
    EXPECT_GE(elastic.run_stats.ranks[r].fault_vtime,
              elastic.run_stats.ranks[r].vtime);
  }
  EXPECT_GT(elastic.run_stats.fault_makespan(), elastic.run_stats.makespan());

  // Trace: the clean export is byte-identical; only the full-fidelity
  // export carries the expand/transfer markers.
  ASSERT_NE(clean.run_stats.trace, nullptr);
  ASSERT_NE(elastic.run_stats.trace, nullptr);
  EXPECT_EQ(elastic.run_stats.trace->chrome_json(/*fault_ledger=*/false),
            clean.run_stats.trace->chrome_json(/*fault_ledger=*/false));
  const std::string full = elastic.run_stats.trace->chrome_json();
  EXPECT_NE(full.find("expand"), std::string::npos);
  EXPECT_NE(full.find("transfer"), std::string::npos);
  EXPECT_EQ(elastic.run_stats.trace->chrome_json(/*fault_ledger=*/false)
                .find("expand"),
            std::string::npos);

  // Metrics: the re-expansion ledger is mirrored into recovery.elastic.*.
  ASSERT_NE(elastic.run_stats.metrics, nullptr);
  EXPECT_DOUBLE_EQ(elastic.run_stats.metrics->total("recovery.elastic.returns"),
                   1.0);
  EXPECT_DOUBLE_EQ(
      elastic.run_stats.metrics->total("recovery.elastic.expansions"), 1.0);
  EXPECT_GT(elastic.run_stats.metrics->total("recovery.elastic.bytes"), 0.0);
  // The overload gauge is live (not peak): after re-expansion every rank
  // is back to x1, while the stats field above kept the x2 peak.
  EXPECT_DOUBLE_EQ(
      elastic.run_stats.metrics->max("recovery.degrade.overload"), 1.0);

  // Replay determinism: the same schedule reproduces both ledgers.
  const DistSolveOutcome replay = solve_system_3d(fs, b, ecfg, m);
  EXPECT_TRUE(test::stats_identical(replay.run_stats, elastic.run_stats));
  EXPECT_EQ(replay.run_stats.fault_fingerprint(),
            elastic.run_stats.fault_fingerprint());
}

TEST(ElasticReExpansion, ReturnBeforeAnyDegradeIsInert) {
  const CsrMatrix a =
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = kDet;
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());
  // The return fires before the crash: the rank is alive, so the event must
  // be dropped from the plan entirely, leaving the later degrade unchanged.
  double minvt = clean.run_stats.ranks[0].vtime;
  for (const auto& r : clean.run_stats.ranks) minvt = std::min(minvt, r.vtime);
  MachineModel with_ret = dry_machine({{2, 0.5 * minvt}});
  with_ret.perturb.returns = {{2, 0.1 * minvt}};
  const MachineModel without_ret = dry_machine({{2, 0.5 * minvt}});
  SolveConfig dcfg = cfg;
  dcfg.run = kDegradeOpts;
  const DistSolveOutcome x = solve_system_3d(fs, b, dcfg, with_ret);
  const DistSolveOutcome y = solve_system_3d(fs, b, dcfg, without_ret);
  EXPECT_FALSE(x.run_stats.elasticity_stats().any());
  EXPECT_TRUE(test::stats_identical(x.run_stats, y.run_stats));
  EXPECT_EQ(x.run_stats.fault_fingerprint(), y.run_stats.fault_fingerprint());
}

TEST(ElasticReExpansion, CorruptImageEscalatesToReplayFromStart) {
  auto scenario = [](bool poison) {
    MachineModel m = dry_machine({{1, 5e-5}});
    m.perturb.returns = {{1, 4e-4}};
    if (poison) {
      for (std::int64_t e = 0; e < 64; ++e) {
        m.perturb.ckpt_faults.push_back({1, e});
      }
    }
    return Cluster::run(4, m, [](Comm& c) {
      std::vector<Real> state{1.0, 2.0, 3.0};
      const CheckpointScope scope = c.register_checkpoint(
          "t", StateKind::kAppendOnly,
          [&]() -> std::vector<StateEntry> { return {{0, state}}; });
      for (int e = 0; e < 8; ++e) {
        c.advance(1e-4, TimeCategory::kFp);
        c.checkpoint_epoch(e);
      }
      c.barrier();
    }, kDegradeOpts);
  };
  const auto good = scenario(false);
  ASSERT_EQ(good.elasticity_stats().returns, 1);
  EXPECT_EQ(good.elasticity_stats().transfers, 1);
  const auto bad = scenario(true);
  ASSERT_EQ(bad.elasticity_stats().returns, 1);
  EXPECT_EQ(bad.elasticity_stats().transfers, 0);  // image rejected
  EXPECT_GE(bad.recovery_stats().image_rejects, 1);
  EXPECT_GT(bad.elasticity_stats().replay_time,
            good.elasticity_stats().replay_time);
  EXPECT_EQ(bad.fingerprint(), good.fingerprint());
  EXPECT_NE(bad.fault_fingerprint(), good.fault_fingerprint());
}

TEST(ElasticReExpansion, EventsCrossedByOneAdvanceFireInTimeOrder) {
  // Rank 1 dies at 1e-5, returns at 2e-5 and dies again at 3e-5, all inside
  // one 1e-4 s compute call. The three events must fire in clean-time
  // order — never all crashes first and the return after them.
  MachineModel m = dry_machine({{1, 1e-5}, {1, 3e-5}});
  m.perturb.returns = {{1, 2e-5}};
  RunOptions opts = kDegradeOpts;
  opts.trace = true;
  const Cluster::Result res = Cluster::run(
      4, m,
      [](Comm& c) {
        if (c.rank() == 1) c.compute(1e-4 * c.machine().cpu_flop_rate);
      },
      opts);
  ASSERT_EQ(res.degradation_stats().degrades, 2);
  ASSERT_EQ(res.elasticity_stats().returns, 1);
  ASSERT_NE(res.trace, nullptr);
  std::vector<std::string> labels;
  std::vector<double> onsets;  // clean time of each shrink / expand event
  for (const TraceMarker& mk : res.trace->rank(1).marks) {
    labels.emplace_back(mk.label);
    if (labels.back() == "shrink" || labels.back() == "expand") {
      onsets.push_back(mk.t);
    }
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"shrink", "redistribute", "expand",
                                              "transfer", "shrink", "redistribute"}));
  EXPECT_TRUE(std::is_sorted(onsets.begin(), onsets.end()));
}

TEST(ElasticReExpansion, NoSurvivorsStaysTerminalEvenWithRepairArmed) {
  MachineModel m = dry_machine({{0, 1e-5}});
  m.perturb.returns = {{0, 5e-5}};  // too late: the world already died
  const auto r = Cluster::try_run(
      1, m, [](Comm& c) { c.advance(1e-3, TimeCategory::kFp); }, kDegradeOpts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault.kind, FaultKind::kNoSurvivors);
}

// ---------------------------------------------------------------------------
// Load-aware rebalancing bounds the overload multiplier.
// ---------------------------------------------------------------------------

TEST(LoadAwareRebalance, FanoutBoundsOverloadBelowRingAdoption) {
  // Two chained deaths, no spares. Classic ring adoption piles three
  // partitions onto one survivor (x3); a fanout of 2 splits them across
  // the two least-loaded survivors (x2 worst case) on the same schedule.
  auto run_with = [](int fanout) {
    MachineModel m = dry_machine({{2, 1e-4}, {3, 3e-4}});
    m.recovery.rebalance_fanout = fanout;
    return Cluster::run(
        8, m, [](Comm& c) { c.advance(1e-3, TimeCategory::kFp); }, kDegradeOpts);
  };
  const auto classic = run_with(0);
  const auto split = run_with(2);
  EXPECT_DOUBLE_EQ(classic.degradation_stats().overload_mult, 3.0);
  EXPECT_DOUBLE_EQ(split.degradation_stats().overload_mult, 2.0);
  EXPECT_LT(split.degradation_stats().overload_mult,
            classic.degradation_stats().overload_mult);
  EXPECT_EQ(classic.degradation_stats().degrades,
            split.degradation_stats().degrades);
  // The split is a fault-ledger policy: the clean ledger cannot see it.
  EXPECT_EQ(classic.fingerprint(), split.fingerprint());
}

TEST(LoadAwareRebalance, SolverPopulatesWorkEstimatesAndStaysBitwiseClean) {
  const CsrMatrix a =
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = kDet;
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());
  double minvt = clean.run_stats.ranks[0].vtime;
  for (const auto& r : clean.run_stats.ranks) minvt = std::min(minvt, r.vtime);

  MachineModel m = dry_machine({{2, 0.4 * minvt}});
  m.recovery.rebalance_fanout = 2;  // rank_work auto-derived from the plans
  SolveConfig dcfg = cfg;
  dcfg.run = kDegradeOpts;
  const DistSolveOutcome split = solve_system_3d(fs, b, dcfg, m);
  EXPECT_EQ(split.run_stats.degradation_stats().degrades, 1);
  EXPECT_GT(split.run_stats.degradation_stats().overload_mult, 1.0);
  EXPECT_TRUE(bitwise_equal(split.x, clean.x));
  EXPECT_EQ(split.run_stats.fingerprint(), clean.run_stats.fingerprint());
  EXPECT_TRUE(message_counts_identical(split.run_stats, clean.run_stats));
}

TEST(LoadAwareRebalance, OverloadMultiplierIsTheCleanFpRatio) {
  // The derived work estimates price each partition at the flops its 2D
  // solves charge. With no spares and fanout 2, one crash moves the
  // victim's partition v onto the least-loaded survivor a, which then runs
  // at (fp[a] + fp[v]) / fp[a] of its clean FP time.
  const CsrMatrix a =
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  for (const Grid3dShape shape :
       {Grid3dShape{2, 2, 2}, Grid3dShape{4, 4, 2}, Grid3dShape{2, 4, 4}}) {
    for (const Algorithm3d alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
      SolveConfig cfg;
      cfg.shape = shape;
      cfg.algorithm = alg;
      cfg.run = kDet;
      const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());
      const auto& ranks = clean.run_stats.ranks;
      const auto fp = [&](int r) {
        const RankStats& rs = ranks[static_cast<size_t>(r)];
        return rs.category[static_cast<int>(TimeCategory::kFp)];
      };
      for (const int victim : {1, 3}) {
        int adopter = victim == 0 ? 1 : 0;
        for (int r = 0; r < shape.size(); ++r) {
          if (r != victim && fp(r) < fp(adopter)) adopter = r;
        }
        const double expected = (fp(adopter) + fp(victim)) / fp(adopter);
        MachineModel m =
            dry_machine({{victim, 0.3 * ranks[static_cast<size_t>(victim)].vtime}});
        m.recovery.rebalance_fanout = 2;
        SolveConfig dcfg = cfg;
        dcfg.run = kDegradeOpts;
        const DistSolveOutcome degraded = solve_system_3d(fs, b, dcfg, m);
        const DegradationStats deg = degraded.run_stats.degradation_stats();
        const std::string where =
            std::to_string(shape.px) + "x" + std::to_string(shape.py) + "x" +
            std::to_string(shape.pz) + " victim " + std::to_string(victim) +
            (alg == Algorithm3d::kProposed ? " new" : " baseline");
        ASSERT_EQ(deg.degrades, 1) << where;
        EXPECT_NEAR(deg.overload_mult, expected, 1e-12 * expected) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Armed-but-inert repair schedules are invisible on both ledgers.
// ---------------------------------------------------------------------------

TEST(ArmedInert, RepairMtbfWithoutCrashesIsBitwiseInvisible) {
  const CsrMatrix a =
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = kDegradeOpts;
  const DistSolveOutcome plain = solve_system_3d(fs, b, cfg, test_machine());
  MachineModel armed = test_machine();
  armed.perturb.repair_mtbf = 1e-4;
  armed.recovery.rebalance_fanout = 2;
  const DistSolveOutcome idle = solve_system_3d(fs, b, cfg, armed);
  EXPECT_FALSE(idle.run_stats.elasticity_stats().any());
  EXPECT_TRUE(bitwise_equal(idle.x, plain.x));
  EXPECT_TRUE(test::stats_identical(idle.run_stats, plain.run_stats));
  EXPECT_EQ(idle.run_stats.fault_fingerprint(),
            plain.run_stats.fault_fingerprint());
}

TEST(ArmedInert, ReturnsAreInertWhenSparesAbsorbTheCrash) {
  // With a spare available the crash never degrades, so the scheduled
  // return has nothing to re-expand and must not shift a single draw.
  MachineModel with_ret = dry_machine({{2, 5e-5}}, /*spares=*/2);
  with_ret.perturb.returns = {{2, 2e-4}};
  const MachineModel without_ret = dry_machine({{2, 5e-5}}, /*spares=*/2);
  auto work = [](Comm& c) {
    std::vector<Real> state{1.0};
    const CheckpointScope scope = c.register_checkpoint(
        "t", StateKind::kAppendOnly,
        [&]() -> std::vector<StateEntry> { return {{0, state}}; });
    for (int e = 0; e < 4; ++e) {
      c.advance(1e-4, TimeCategory::kFp);
      c.checkpoint_epoch(e);
    }
    c.barrier();
  };
  const auto x = Cluster::run(4, with_ret, work, kDegradeOpts);
  const auto y = Cluster::run(4, without_ret, work, kDegradeOpts);
  EXPECT_EQ(x.recovery_stats().spares_used, 1);
  EXPECT_FALSE(x.elasticity_stats().any());
  EXPECT_TRUE(test::stats_identical(x, y));
  EXPECT_EQ(x.fault_fingerprint(), y.fault_fingerprint());
}

}  // namespace
}  // namespace sptrsv
