#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "test_support.hpp"
#include "trace/trace.hpp"

namespace sptrsv {
namespace {

using test::bitwise_equal;
using test::random_rhs;
using test::test_machine;

constexpr RunOptions kDet{.seed = 0};

/// Test machine with an explicit crash schedule (rank, vt interpreted on the
/// post-reset_clock solve clock).
MachineModel crashy_machine(std::vector<PerturbationModel::Crash> crashes) {
  MachineModel m = test_machine();
  m.perturb.crashes = std::move(crashes);
  return m;
}

DistSolveOutcome solve(const test::RandomSystem& s, std::span<const Real> b,
                       Algorithm3d alg, const MachineModel& m,
                       RunOptions run = kDet) {
  SolveConfig cfg;
  cfg.shape = s.shape;
  cfg.algorithm = alg;
  cfg.nrhs = s.nrhs;
  cfg.run = run;
  return solve_system_3d(s.fs, b, cfg, m);
}

/// The tentpole invariant, asserted everywhere below: a recovered run is
/// bitwise indistinguishable from its fault-free twin on the clean ledger —
/// solution, clean fingerprint, per-category message counts — while every
/// recovery cost sits on the fault ledger.
void expect_clean_ledger_invariant(const DistSolveOutcome& clean,
                                   const DistSolveOutcome& crashed) {
  EXPECT_TRUE(bitwise_equal(clean.x, crashed.x));
  EXPECT_EQ(clean.run_stats.fingerprint(), crashed.run_stats.fingerprint());
  EXPECT_DOUBLE_EQ(clean.run_stats.makespan(), crashed.run_stats.makespan());
  EXPECT_TRUE(test::message_counts_identical(clean.run_stats, crashed.run_stats));
}

// ---------------------------------------------------------------------------
// Checkpoint layer: bypass when off, fault-ledger-only cost when on.
// ---------------------------------------------------------------------------

TEST(Checkpointing, BypassedWithoutCrashModel) {
  const auto r = Cluster::run(2, test_machine(), [](Comm& c) {
    std::vector<Real> state{1.0, 2.0};
    const CheckpointScope scope = c.register_checkpoint(
        "t", StateKind::kAppendOnly,
        [&]() -> std::vector<StateEntry> { return {{0, state}}; });
    c.checkpoint_epoch();
    c.advance(1e-6, TimeCategory::kFp);
  }, kDet);
  EXPECT_EQ(r.recovery_stats().checkpoints, 0);
  EXPECT_FALSE(r.recovery_stats().any());
  EXPECT_DOUBLE_EQ(r.fault_makespan(), r.makespan());
}

TEST(Checkpointing, TrafficLandsOnFaultLedgerOnly) {
  // A crash scheduled far past the run's end activates the crash model
  // (hooks capture, images ship) without ever firing.
  const auto clean = Cluster::run(2, test_machine(), [](Comm& c) {
    std::vector<Real> state{1.0, 2.0, 3.0};
    const CheckpointScope scope = c.register_checkpoint(
        "t", StateKind::kAppendOnly,
        [&]() -> std::vector<StateEntry> { return {{0, state}}; });
    c.advance(1e-6, TimeCategory::kFp);
    c.checkpoint_epoch(7);
    c.barrier();
  }, kDet);
  const auto ckpt = Cluster::run(2, crashy_machine({{0, 1e3}}), [](Comm& c) {
    std::vector<Real> state{1.0, 2.0, 3.0};
    const CheckpointScope scope = c.register_checkpoint(
        "t", StateKind::kAppendOnly,
        [&]() -> std::vector<StateEntry> { return {{0, state}}; });
    c.advance(1e-6, TimeCategory::kFp);
    c.checkpoint_epoch(7);
    c.barrier();
  }, kDet);
  EXPECT_EQ(clean.fingerprint(), ckpt.fingerprint());   // clean ledger untouched
  EXPECT_EQ(ckpt.recovery_stats().checkpoints, 2);      // one epoch per rank
  EXPECT_GT(ckpt.recovery_stats().checkpoint_bytes, 0);
  EXPECT_GT(ckpt.fault_makespan(), ckpt.makespan());
  EXPECT_NE(clean.fault_fingerprint(), ckpt.fault_fingerprint());
}

// ---------------------------------------------------------------------------
// Restore check: an image that disagrees with the live state is a bug.
// ---------------------------------------------------------------------------

/// Two ranks register a two-entry state under `kind` and cut an epoch;
/// `change` then edits the live state before rank 0 crashes, so the spare's
/// restore checks that epoch's image against the edited state.
template <class Change>
Cluster::Result crash_after_epoch(StateKind kind, Change change) {
  return Cluster::run(2, crashy_machine({{0, 5e-5}}), [&](Comm& c) {
    VecMap state{{1, {1.0, 2.0}}, {4, {3.0}}};
    const CheckpointScope scope = c.register_checkpoint(
        "restore-test", kind, [&] { return map_state(state); });
    c.advance(1e-5, TimeCategory::kFp);
    c.checkpoint_epoch();
    change(state);
    c.advance(1e-4, TimeCategory::kFp);  // rank 0's crash fires in here
  }, kDet);
}

/// The message of the std::logic_error `run` throws ("" if it throws none).
template <class Run>
std::string logic_error_of(Run run) {
  try {
    run();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kDisagrees =
    "restore-test: checkpoint image disagrees with live solve state";

TEST(RestoreCheck, AppendOnlyValueChangedAfterItsEpochThrows) {
  EXPECT_EQ(logic_error_of([] {
              crash_after_epoch(StateKind::kAppendOnly,
                                [](VecMap& s) { s.at(4)[0] = 5.0; });
            }),
            kDisagrees);
}

TEST(RestoreCheck, InPlaceStateThatGainsAnEntryThrows) {
  EXPECT_EQ(logic_error_of([] {
              crash_after_epoch(StateKind::kInPlace,
                                [](VecMap& s) { s.emplace(7, std::vector<Real>{1.0}); });
            }),
            kDisagrees);
}

TEST(RestoreCheck, InPlaceValueChangedInPlaceRestores) {
  const auto r =
      crash_after_epoch(StateKind::kInPlace, [](VecMap& s) { s.at(4)[0] = 5.0; });
  EXPECT_EQ(r.recovery_stats().crashes, 1);
  EXPECT_EQ(r.recovery_stats().restores, 1);
}

// ---------------------------------------------------------------------------
// End-to-end solver recovery: bit-identical solutions under crash schedules.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, Solver2dBitIdenticalUnderCrash) {
  const test::RandomSystem s = test::random_system(41);
  const auto b = random_rhs(s.a.rows(), s.nrhs, 14);
  const auto clean = solve(s, b, Algorithm3d::kProposed, test_machine());
  // Kill a non-root rank halfway through its own solve.
  const int victim = s.shape.size() > 1 ? 1 : 0;
  const double t =
      0.5 * clean.run_stats.ranks[static_cast<size_t>(victim)].vtime;
  const auto crashed =
      solve(s, b, Algorithm3d::kProposed, crashy_machine({{victim, t}}));
  ASSERT_GE(crashed.run_stats.recovery_stats().crashes, 1);
  expect_clean_ledger_invariant(clean, crashed);
  EXPECT_GT(crashed.run_stats.fault_makespan(), crashed.run_stats.makespan());
}

TEST(CrashRecovery, Proposed3dBitIdenticalUnderCrash) {
  const test::RandomSystem s = test::random_system(7);  // draws pz >= 1
  const auto b = random_rhs(s.a.rows(), s.nrhs, 3);
  const auto clean = solve(s, b, Algorithm3d::kProposed, test_machine());
  const int victim = 1 % s.shape.size();
  const double t =
      0.5 * clean.run_stats.ranks[static_cast<size_t>(victim)].vtime;
  const auto crashed =
      solve(s, b, Algorithm3d::kProposed, crashy_machine({{victim, t}}));
  ASSERT_GE(crashed.run_stats.recovery_stats().crashes, 1);
  expect_clean_ledger_invariant(clean, crashed);
}

TEST(CrashRecovery, Baseline3dBitIdenticalUnderCrash) {
  const test::RandomSystem s = test::random_system(7);
  const auto b = random_rhs(s.a.rows(), s.nrhs, 3);
  const auto clean = solve(s, b, Algorithm3d::kBaseline, test_machine());
  const int victim = 1 % s.shape.size();
  const double t =
      0.5 * clean.run_stats.ranks[static_cast<size_t>(victim)].vtime;
  const auto crashed =
      solve(s, b, Algorithm3d::kBaseline, crashy_machine({{victim, t}}));
  ASSERT_GE(crashed.run_stats.recovery_stats().crashes, 1);
  expect_clean_ledger_invariant(clean, crashed);
}

TEST(CrashRecovery, KillingMakespanCriticalRankStillRecovers) {
  const test::RandomSystem s = test::random_system(23);
  const auto b = random_rhs(s.a.rows(), s.nrhs, 5);
  const auto clean = solve(s, b, Algorithm3d::kProposed, test_machine());
  int critical = 0;
  for (size_t r = 0; r < clean.run_stats.ranks.size(); ++r) {
    if (clean.run_stats.ranks[r].vtime >
        clean.run_stats.ranks[static_cast<size_t>(critical)].vtime) {
      critical = static_cast<int>(r);
    }
  }
  const double t =
      0.5 * clean.run_stats.ranks[static_cast<size_t>(critical)].vtime;
  const auto crashed =
      solve(s, b, Algorithm3d::kProposed, crashy_machine({{critical, t}}));
  ASSERT_GE(crashed.run_stats.recovery_stats().crashes, 1);
  expect_clean_ledger_invariant(clean, crashed);
}

TEST(CrashRecovery, DoubleFailureDuringRecoveryWindow) {
  // Two non-buddy victims whose detection windows overlap: both recoveries
  // are in flight at once, both must complete, and the run still matches
  // the fault-free twin bit for bit.
  // First seed from 100 whose drawn layout has at least four ranks.
  std::uint64_t seed = 100;
  test::RandomSystem s = test::random_system(seed);
  while (s.shape.size() < 4) s = test::random_system(++seed);
  const auto b = random_rhs(s.a.rows(), s.nrhs, 9);
  const auto clean = solve(s, b, Algorithm3d::kProposed, test_machine());
  const int v1 = 0;
  const int v2 = 2;  // not v1's buddy (v1+1) and v1 is not v2's buddy
  const double t1 = 0.4 * clean.run_stats.ranks[0].vtime;
  const auto crashed = solve(
      s, b, Algorithm3d::kProposed,
      crashy_machine({{v1, t1}, {v2, t1 + 1e-6}}));
  ASSERT_EQ(crashed.run_stats.recovery_stats().crashes, 2);
  EXPECT_EQ(crashed.run_stats.recovery_stats().spares_used, 2);
  expect_clean_ledger_invariant(clean, crashed);
}

// ---------------------------------------------------------------------------
// Unrecoverable verdicts: precise structured reports, never wrong answers.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, BuddyPairLossIsUnrecoverableWithPreciseReport) {
  // Ranks 1 and 2 die inside one detection window; 2 holds 1's checkpoint,
  // so rank 1's crash must surface as a buddy-loss FaultReport naming both.
  const auto r = Cluster::try_run(4, crashy_machine({{1, 1e-4}, {2, 1.2e-4}}),
                                  [](Comm& c) { c.advance(1e-3, TimeCategory::kFp); }, kDet);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault.kind, FaultKind::kBuddyLoss);
  EXPECT_EQ(r.fault.rank, 1);
  EXPECT_EQ(r.fault.peer, 2);
  EXPECT_DOUBLE_EQ(r.fault.vt, 1e-4);
}

TEST(CrashRecovery, SingleRankSelfBuddyIsAlwaysLost) {
  const auto r = Cluster::try_run(1, crashy_machine({{0, 1e-5}}),
                                  [](Comm& c) { c.advance(1e-3, TimeCategory::kFp); }, kDet);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault.kind, FaultKind::kBuddyLoss);
  EXPECT_EQ(r.fault.rank, 0);
  EXPECT_EQ(r.fault.peer, 0);
}

TEST(CrashRecovery, SparePoolExhaustionIsReported) {
  MachineModel m = crashy_machine({{0, 1e-4}, {2, 5e-3}});
  m.recovery.spare_ranks = 1;  // second crash outlives the pool
  const auto r = Cluster::try_run(4, m, [](Comm& c) { c.advance(1e-2, TimeCategory::kFp); }, kDet);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault.kind, FaultKind::kSparesExhausted);
  EXPECT_EQ(r.fault.rank, 2);
}

// ---------------------------------------------------------------------------
// Stream isolation and trace byte-identity.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, MtbfStreamNeverShiftsTimingOrDeliveryDraws) {
  // Enabling an MTBF crash model on top of full timing perturbation and
  // delivery faults must not move a single pre-existing draw: the crash
  // stream is salted and counted separately.
  const test::RandomSystem s = test::random_system(11);
  const auto b = random_rhs(s.a.rows(), s.nrhs, 2);
  MachineModel base = test::perturbed_machine();
  const auto without = solve(s, b, Algorithm3d::kProposed, base,
                             RunOptions{.seed = 5});
  MachineModel with = base;
  with.perturb.crash_mtbf = 10.0;  // active model, crashes far past the solve
  const auto withm = solve(s, b, Algorithm3d::kProposed, with,
                           RunOptions{.seed = 5});
  EXPECT_TRUE(bitwise_equal(without.x, withm.x));
  EXPECT_EQ(without.run_stats.fingerprint(), withm.run_stats.fingerprint());
}

TEST(CrashRecovery, CleanTraceJsonByteIdenticalUnderCrash) {
  const test::RandomSystem s = test::random_system(7);
  const auto b = random_rhs(s.a.rows(), s.nrhs, 3);
  const RunOptions traced{.seed = 0, .trace = true};
  const auto clean =
      solve(s, b, Algorithm3d::kProposed, test_machine(), traced);
  const int victim = 1 % s.shape.size();
  const double t =
      0.5 * clean.run_stats.ranks[static_cast<size_t>(victim)].vtime;
  const auto crashed = solve(s, b, Algorithm3d::kProposed,
                             crashy_machine({{victim, t}}), traced);
  ASSERT_GE(crashed.run_stats.recovery_stats().crashes, 1);
  ASSERT_NE(clean.run_stats.trace, nullptr);
  ASSERT_NE(crashed.run_stats.trace, nullptr);
  // Clean-ledger export: byte-identical to the fault-free twin.
  EXPECT_EQ(clean.run_stats.trace->chrome_json(/*fault_ledger=*/false),
            crashed.run_stats.trace->chrome_json(/*fault_ledger=*/false));
  // Full-fidelity export: the crashed run carries crash/restore/checkpoint
  // markers the clean run does not.
  EXPECT_NE(clean.run_stats.trace->chrome_json(),
            crashed.run_stats.trace->chrome_json());
  EXPECT_NE(crashed.run_stats.trace->chrome_json(),
            crashed.run_stats.trace->chrome_json(/*fault_ledger=*/false));
}

}  // namespace
}  // namespace sptrsv
