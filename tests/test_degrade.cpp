/// \file test_degrade.cpp
/// \brief Graceful degradation (docs/ROBUSTNESS.md, graceful degradation):
/// elastic shrink-and-redistribute recovery when the spare pool runs dry.
///
/// The contract under test, in order of importance:
///  1. The acceptance scenario: a solve on 8 ranks with an empty spare pool
///     survives two staggered crashes under RunOptions::degrade, finishes on
///     6 ranks, and its solution, fingerprint, clean clocks, message counts
///     and clean trace export are bitwise identical to the fault-free run.
///     The same scenario without degrade still reports kSparesExhausted.
///  2. Every shrink/agree/redistribute/replay/overload cost rides the fault
///     ledger only (DegradationStats, recovery.degrade.* metrics, and
///     full-fidelity-only shrink/redistribute trace markers).
///  3. Terminal conditions: no surviving adopter surfaces kNoSurvivors; a
///     corrupt checkpoint image is rejected (RecoveryStats::image_rejects)
///     and escalates to replay-from-start instead of resurrecting bad state.
///  4. The ring rule: chained deaths pile every partition onto the next
///     survivor, a retired rank never dies again, and the events one advance
///     crosses fire in clean-time order.
///  5. build_degrade_plan is a pure function of (world, dead set): dedup,
///     ring-adopter selection, buddy-image survival.

#include <gtest/gtest.h>

#include <algorithm>
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

/// Machine with an explicit crash schedule and an empty spare pool — the
/// regime where every crash verdict is terminal unless degrade is armed.
MachineModel dry_machine(std::vector<PerturbationModel::Crash> crashes,
                         int spares = 0) {
  MachineModel m = test_machine();
  m.perturb.crashes = std::move(crashes);
  m.recovery.spare_ranks = spares;
  return m;
}

// ---------------------------------------------------------------------------
// build_degrade_plan: pure, deterministic shrink arithmetic.
// ---------------------------------------------------------------------------

TEST(DegradePlan, RingAdopterAndBuddySurvival) {
  const DegradePlan p = build_degrade_plan(8, {2});
  EXPECT_EQ(p.victim, 2);
  EXPECT_EQ(p.adopter, 3);  // next surviving rank on the ring
  EXPECT_EQ(p.survivors_after, 7);
  EXPECT_EQ(p.image_survives, 1);  // buddy 3 is alive
}

TEST(DegradePlan, DeadBuddyLosesTheImageAndAdopterSkipsDead) {
  // 3 died earlier; now 2 dies. Its buddy (3) is dead -> no image, and the
  // adopter scan must skip 3 and land on 4.
  const DegradePlan p = build_degrade_plan(8, {3, 2});
  EXPECT_EQ(p.victim, 2);
  EXPECT_EQ(p.adopter, 4);
  EXPECT_EQ(p.survivors_after, 6);
  EXPECT_EQ(p.image_survives, 0);
}

TEST(DegradePlan, DedupsRepeatedDeadEntriesAndWrapsTheRing) {
  const DegradePlan dup = build_degrade_plan(8, {2, 2});
  EXPECT_EQ(dup.survivors_after, 7);  // one death, listed twice
  const DegradePlan wrap = build_degrade_plan(4, {3});
  EXPECT_EQ(wrap.adopter, 0);  // ring wraps past the last rank
}

TEST(DegradePlan, NoSurvivorsYieldsNoAdopter) {
  const DegradePlan p = build_degrade_plan(2, {0, 1});
  EXPECT_EQ(p.survivors_after, 0);
  EXPECT_EQ(p.adopter, -1);
}

TEST(DegradePlan, PureFunctionOfInputs) {
  const DegradePlan a = build_degrade_plan(8, {1, 5});
  const DegradePlan b = build_degrade_plan(8, {1, 5});
  EXPECT_EQ(a.victim, b.victim);
  EXPECT_EQ(a.adopter, b.adopter);
  EXPECT_EQ(a.survivors_after, b.survivors_after);
  EXPECT_EQ(a.image_survives, b.image_survives);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: 8 ranks, no spares, two staggered crashes.
// ---------------------------------------------------------------------------

TEST(GracefulDegradation, TwoCrashesShrinkToSixRanksBitwiseClean) {
  const CsrMatrix a =
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);

  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = kDet;
  cfg.run.trace = true;
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());

  // Two staggered mid-solve deaths on non-buddy ranks (buddy_of(2)=3,
  // buddy_of(5)=6, all survivors), with an empty spare pool: both verdicts
  // are terminal, and degrade must shrink 8 -> 7 -> 6. Crash times sit
  // below every rank's finish time so each adopter's clock provably
  // crosses its overload event.
  double minvt = clean.run_stats.ranks[0].vtime;
  for (const auto& r : clean.run_stats.ranks) minvt = std::min(minvt, r.vtime);
  const double t2 = 0.3 * minvt;
  const double t5 = 0.6 * minvt;
  const MachineModel m = dry_machine({{2, t2}, {5, t5}});

  SolveConfig dcfg = cfg;
  dcfg.run = kDegradeOpts;
  dcfg.run.trace = true;
  dcfg.run.metrics = true;
  const DistSolveOutcome degraded = solve_system_3d(fs, b, dcfg, m);

  const DegradationStats deg = degraded.run_stats.degradation_stats();
  ASSERT_EQ(deg.degrades, 2);
  EXPECT_EQ(deg.ranks_lost, 2);  // finished on 6 of 8 ranks
  EXPECT_EQ(deg.partitions_adopted, 2);
  EXPECT_GT(deg.redistributed_bytes, 0);  // both buddy images survived
  EXPECT_GT(deg.agree_time, 0.0);
  EXPECT_GT(deg.shrink_time, 0.0);
  EXPECT_GT(deg.redistribute_time, 0.0);
  EXPECT_GT(deg.replay_time, 0.0);
  EXPECT_GT(deg.overload_time, 0.0);  // adopters host two partitions each
  EXPECT_EQ(degraded.run_stats.recovery_stats().crashes, 2);
  EXPECT_EQ(degraded.run_stats.recovery_stats().spares_used, 0);

  // Clean ledger: bitwise indistinguishable from the fault-free run.
  EXPECT_TRUE(bitwise_equal(degraded.x, clean.x));
  EXPECT_EQ(degraded.run_stats.fingerprint(), clean.run_stats.fingerprint());
  EXPECT_DOUBLE_EQ(degraded.run_stats.makespan(), clean.run_stats.makespan());
  EXPECT_TRUE(message_counts_identical(degraded.run_stats, clean.run_stats));
  for (size_t r = 0; r < clean.run_stats.ranks.size(); ++r) {
    EXPECT_TRUE(bitwise_equal({&degraded.run_stats.ranks[r].vtime, 1},
                              {&clean.run_stats.ranks[r].vtime, 1}));
    EXPECT_GE(degraded.run_stats.ranks[r].fault_vtime,
              degraded.run_stats.ranks[r].vtime);
  }
  EXPECT_GT(degraded.run_stats.fault_makespan(),
            degraded.run_stats.makespan());

  // Trace: the clean export is byte-identical; the full-fidelity export
  // carries the shrink/redistribute markers (kept off the clean export).
  ASSERT_NE(clean.run_stats.trace, nullptr);
  ASSERT_NE(degraded.run_stats.trace, nullptr);
  EXPECT_EQ(degraded.run_stats.trace->chrome_json(/*fault_ledger=*/false),
            clean.run_stats.trace->chrome_json(/*fault_ledger=*/false));
  const std::string full = degraded.run_stats.trace->chrome_json();
  EXPECT_NE(full.find("shrink"), std::string::npos);
  EXPECT_NE(full.find("redistribute"), std::string::npos);
  EXPECT_EQ(degraded.run_stats.trace->chrome_json(/*fault_ledger=*/false)
                .find("redistribute"),
            std::string::npos);

  // Metrics: the shrink ledger is mirrored into recovery.degrade.* series.
  ASSERT_NE(degraded.run_stats.metrics, nullptr);
  EXPECT_DOUBLE_EQ(degraded.run_stats.metrics->total("recovery.degrade.events"),
                   2.0);
  EXPECT_DOUBLE_EQ(
      degraded.run_stats.metrics->total("recovery.degrade.ranks_lost"), 2.0);
  EXPECT_DOUBLE_EQ(
      degraded.run_stats.metrics->total("recovery.degrade.adopted"), 2.0);
  EXPECT_GT(degraded.run_stats.metrics->total("recovery.degrade.bytes"), 0.0);

  // Replay determinism: the same schedule reproduces both ledgers.
  const DistSolveOutcome replay = solve_system_3d(fs, b, dcfg, m);
  EXPECT_TRUE(test::stats_identical(replay.run_stats, degraded.run_stats));
  EXPECT_EQ(replay.run_stats.fault_fingerprint(),
            degraded.run_stats.fault_fingerprint());
}

TEST(GracefulDegradation, SameScenarioWithoutDegradeStillSparesExhausted) {
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
  const MachineModel m = dry_machine({{2, 0.3 * minvt}, {5, 0.6 * minvt}});
  try {
    solve_system_3d(fs, b, cfg, m);
    FAIL() << "dry spare pool without degrade must be terminal";
  } catch (const FaultError& fe) {
    EXPECT_EQ(fe.report.kind, FaultKind::kSparesExhausted);
    EXPECT_EQ(fe.report.rank, 2);  // the first terminal crash
  }
}

// ---------------------------------------------------------------------------
// Degrade absorbs what the spare path cannot: buddy-pair loss.
// ---------------------------------------------------------------------------

TEST(GracefulDegradation, BuddyPairLossDegradesIntoReplayFromStart) {
  // Same schedule test_recovery pins as kBuddyLoss: ranks 1 and 2 die
  // inside one detection window, and 2 holds 1's checkpoint. With degrade,
  // rank 1's partition is re-solved from scratch (no image) and rank 2's
  // from its surviving image; the run completes on 2 of 4 ranks.
  const MachineModel m = dry_machine({{1, 1e-4}, {2, 1.2e-4}},
                                     /*spares=*/0);
  const auto clean = Cluster::run(
      4, test_machine(), [](Comm& c) { c.advance(1e-3, TimeCategory::kFp); },
      kDet);
  const auto r = Cluster::run(
      4, m, [](Comm& c) { c.advance(1e-3, TimeCategory::kFp); }, kDegradeOpts);
  const DegradationStats deg = r.degradation_stats();
  EXPECT_EQ(deg.degrades, 2);
  EXPECT_EQ(deg.ranks_lost, 2);
  // No checkpoint hooks registered here, so every replay is from scratch.
  EXPECT_EQ(deg.redistributed_bytes, 0);
  EXPECT_GT(deg.replay_time, 0.0);
  EXPECT_EQ(r.fingerprint(), clean.fingerprint());
  EXPECT_GT(r.fault_makespan(), r.makespan());
}

TEST(GracefulDegradation, NoSurvivorsIsTerminalWithPreciseReport) {
  // A single self-buddied rank dying leaves nobody to adopt its partition:
  // even degrade mode must refuse, with its own structured verdict.
  const auto r = Cluster::try_run(
      1, dry_machine({{0, 1e-5}}),
      [](Comm& c) { c.advance(1e-3, TimeCategory::kFp); }, kDegradeOpts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault.kind, FaultKind::kNoSurvivors);
  EXPECT_EQ(r.fault.rank, 0);
  EXPECT_DOUBLE_EQ(r.fault.vt, 1e-5);
}

// ---------------------------------------------------------------------------
// The ring rule over several crashes.
// ---------------------------------------------------------------------------

TEST(GracefulDegradation, ChainedDeathsPileOntoTheRingSuccessor) {
  // Rank 2 dies and rank 3 adopts its partition; then rank 3 dies hosting
  // both, and rank 4 ends up running three partitions (x3).
  const auto r = Cluster::run(
      8, dry_machine({{2, 1e-4}, {3, 3e-4}}),
      [](Comm& c) { c.advance(1e-3, TimeCategory::kFp); }, kDegradeOpts);
  const DegradationStats deg = r.degradation_stats();
  EXPECT_DOUBLE_EQ(deg.overload_mult, 3.0);
  EXPECT_EQ(deg.ranks_lost, 2);
  EXPECT_DOUBLE_EQ(r.ranks[4].degradation.overload_mult, 3.0);
  EXPECT_EQ(r.ranks[4].degradation.partitions_adopted, 2);
}

TEST(GracefulDegradation, RetiredRankCannotDieAgain) {
  // Without spares rank 1's first crash retires it: rank 2 runs its
  // partition from then on. A second crash of rank 1 names a node that is
  // already gone, so it must leave both ledgers as the first crash alone
  // left them.
  auto run = [](std::vector<PerturbationModel::Crash> crashes) {
    return Cluster::run(4, dry_machine(std::move(crashes)), [](Comm& c) {
      c.advance(2e-4, TimeCategory::kFp);
      c.barrier();
    }, kDegradeOpts);
  };
  const auto once = run({{1, 1e-5}});
  const auto twice = run({{1, 1e-5}, {1, 3e-5}});
  EXPECT_EQ(twice.recovery_stats().crashes, 1);
  EXPECT_EQ(twice.degradation_stats().ranks_lost, 1);
  EXPECT_EQ(twice.fault_fingerprint(), once.fault_fingerprint());
}

TEST(GracefulDegradation, SpareCannotRestoreFromADegradedBuddy) {
  // Rank 1 dies inside rank 2's detection window (kBuddyLoss) and degrades
  // away; rank 2's crash takes spare 0. Rank 0's later crash takes spare
  // 1, but its image sat on rank 1, whose node is gone: the spare must
  // replay from solve start instead of restoring that image.
  const auto r = Cluster::run(
      4, dry_machine({{1, 1e-4}, {2, 1.2e-4}, {0, 8e-4}}, /*spares=*/2),
      [](Comm& c) {
        std::vector<Real> state{1.0, 2.0, 3.0};
        const CheckpointScope scope = c.register_checkpoint(
            "t", StateKind::kAppendOnly,
            [&]() -> std::vector<StateEntry> { return {{0, state}}; });
        c.advance(7e-4, TimeCategory::kFp);
        c.checkpoint_epoch();
        c.advance(3e-4, TimeCategory::kFp);  // rank 0's crash fires in here
        c.barrier();
      },
      kDegradeOpts);
  EXPECT_EQ(r.degradation_stats().ranks_lost, 1);
  const RecoveryStats& zero = r.ranks[0].recovery;
  EXPECT_EQ(zero.crashes, 1);
  EXPECT_EQ(zero.spares_used, 1);
  EXPECT_EQ(zero.restores, 0);
  EXPECT_DOUBLE_EQ(zero.restore_time, 0.0);
  EXPECT_DOUBLE_EQ(zero.replay_time, 8e-4);  // from solve start
}

TEST(GracefulDegradation, EventsCrossedByOneAdvanceFireInTimeOrder) {
  // One spare: rank 1's crash at 1e-5 takes it, and its crash at 3e-5
  // finds the pool dry and degrades. Both fall inside one 1e-4 s compute
  // call and must fire in clean-time order, each with its own recovery.
  MachineModel m = dry_machine({{1, 1e-5}, {1, 3e-5}}, /*spares=*/1);
  RunOptions opts = kDegradeOpts;
  opts.trace = true;
  const Cluster::Result res = Cluster::run(
      4, m,
      [](Comm& c) {
        if (c.rank() == 1) c.compute(1e-4 * c.machine().cpu_flop_rate);
      },
      opts);
  EXPECT_EQ(res.recovery_stats().crashes, 2);
  EXPECT_EQ(res.recovery_stats().spares_used, 1);
  ASSERT_EQ(res.degradation_stats().degrades, 1);
  ASSERT_NE(res.trace, nullptr);
  std::vector<std::string> labels;
  std::vector<double> onsets;  // clean time of each crash / shrink event
  for (const TraceMarker& mk : res.trace->rank(1).marks) {
    labels.emplace_back(mk.label);
    if (labels.back() == "crash" || labels.back() == "shrink") onsets.push_back(mk.t);
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"crash", "restore", "shrink",
                                              "redistribute"}));
  EXPECT_TRUE(std::is_sorted(onsets.begin(), onsets.end()));
}

// ---------------------------------------------------------------------------
// Checkpoint-image integrity: corrupt images are rejected, not restored.
// ---------------------------------------------------------------------------

TEST(ImageIntegrity, CorruptImageIsRejectedOnSpareRestore) {
  auto scenario = [](const MachineModel& m) {
    return Cluster::run(2, m, [](Comm& c) {
      std::vector<Real> state{1.0, 2.0, 3.0};
      const CheckpointScope scope = c.register_checkpoint(
          "t", StateKind::kAppendOnly,
          [&]() -> std::vector<StateEntry> { return {{0, state}}; });
      c.advance(1e-6, TimeCategory::kFp);
      c.checkpoint_epoch();
      c.advance(1e-4, TimeCategory::kFp);  // rank 0's crash fires in here
      c.barrier();
    }, kDet);
  };
  MachineModel intact = test_machine();
  intact.perturb.crashes = {{0, 5e-5}};
  const auto good = scenario(intact);
  EXPECT_EQ(good.recovery_stats().image_rejects, 0);
  EXPECT_EQ(good.recovery_stats().restores, 1);

  MachineModel corrupt = intact;
  corrupt.perturb.ckpt_faults = {{0, 0}};  // flip a bit in rank 0's epoch 0
  const auto bad = scenario(corrupt);
  EXPECT_EQ(bad.recovery_stats().image_rejects, 1);
  EXPECT_EQ(bad.recovery_stats().restores, 0);  // escalated: no hook restore
  EXPECT_EQ(bad.recovery_stats().crashes, 1);
  // The escalation changes fault accounting only — the clean ledger and the
  // run's outcome are untouched.
  EXPECT_EQ(bad.fingerprint(), good.fingerprint());
  EXPECT_NE(bad.fault_fingerprint(), good.fault_fingerprint());
}

TEST(ImageIntegrity, CorruptImageEscalatesDegradeToReplayFromStart) {
  const CsrMatrix a =
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = kDet;
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());

  MachineModel m = dry_machine({{2, 0.6 * clean.run_stats.ranks[2].vtime}});
  // Poison every image rank 2 could have captured: the degrade fetch must
  // reject whichever epoch is latest and re-solve the partition from
  // scratch instead of resurrecting corrupt state.
  for (std::int64_t e = 0; e < 64; ++e) m.perturb.ckpt_faults.push_back({2, e});

  SolveConfig dcfg = cfg;
  dcfg.run = kDegradeOpts;
  const DistSolveOutcome degraded = solve_system_3d(fs, b, dcfg, m);
  const DegradationStats deg = degraded.run_stats.degradation_stats();
  ASSERT_EQ(deg.degrades, 1);
  EXPECT_EQ(deg.redistributed_bytes, 0);  // no usable image
  EXPECT_GT(deg.replay_time, 0.0);
  EXPECT_GE(degraded.run_stats.recovery_stats().image_rejects, 1);
  EXPECT_TRUE(bitwise_equal(degraded.x, clean.x));
  EXPECT_EQ(degraded.run_stats.fingerprint(), clean.run_stats.fingerprint());
}

// ---------------------------------------------------------------------------
// Arming degrade without terminal crashes changes nothing at all.
// ---------------------------------------------------------------------------

TEST(GracefulDegradation, ArmedWithoutTerminalCrashesIsInert) {
  const CsrMatrix a =
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = kDet;
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());

  // Spares available: the crash takes the ordinary spare-adoption path and
  // the armed degrade machinery must not fire or shift a single fault draw.
  MachineModel m = test_machine();
  m.perturb.crashes = {{2, 0.5 * clean.run_stats.ranks[2].vtime}};
  SolveConfig scfg = cfg;
  const DistSolveOutcome spared = solve_system_3d(fs, b, scfg, m);
  SolveConfig dcfg = cfg;
  dcfg.run = kDegradeOpts;
  const DistSolveOutcome armed = solve_system_3d(fs, b, dcfg, m);

  EXPECT_FALSE(armed.run_stats.degradation_stats().any());
  EXPECT_EQ(armed.run_stats.recovery_stats().spares_used, 1);
  EXPECT_TRUE(test::stats_identical(armed.run_stats, spared.run_stats));
  EXPECT_EQ(armed.run_stats.fault_fingerprint(),
            spared.run_stats.fault_fingerprint());
}

}  // namespace
}  // namespace sptrsv
