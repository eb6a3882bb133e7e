/// \file test_sdc.cpp
/// \brief Silent-data-corruption resilience (docs/ROBUSTNESS.md, SDC
/// section): memory-fault injection, ABFT detection/correction, and the
/// residual-verified repair path.
///
/// The contract under test, in order of importance:
///  1. Two-ledger invariant under ABFT: every injected bit flip is detected
///     and corrected with solution, fingerprint, clean clocks, message/byte
///     counts and the clean trace export bitwise identical to a fault-free
///     run — across the 2D solver, both 3D algorithms and the sparse
///     allreduce.
///  2. Verification backstop: with ABFT off the same schedules trip the
///     end-of-solve residual gate into a structured kSilentCorruption
///     report, or — with RunOptions::sdc_repair — degrade gracefully into
///     converged iterative refinement.
///  3. Bypass-free arming: ABFT with no faults injected changes no
///     clean-ledger bit; its verification cost is fault-ledger-only.
///  4. Stream isolation: SDC draws live on their own salted stream
///     (kMemStreamSalt) — arming them shifts no timing, delivery or crash
///     draw (the PR-4 MTBF salting pin, extended).

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "comm/sparse_allreduce.hpp"
#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "runtime/abft.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"
#include "trace/trace.hpp"

namespace sptrsv {
namespace {

using test::bitwise_equal;
using test::max_abs_diff;
using test::message_counts_identical;
using test::perturbed_machine;
using test::random_rhs;
using test::shape_tree;
using test::stats_identical;
using test::test_machine;

using MemFault = PerturbationModel::MemFault;

RunOptions det_opts(std::uint64_t seed, bool trace = false) {
  RunOptions o;
  o.seed = seed;
  o.trace = trace;
  return o;
}

MachineModel sdc_machine(std::vector<MemFault> faults,
                         MachineModel base = test_machine()) {
  base.perturb.mem_faults = std::move(faults);
  return base;
}

// ---------------------------------------------------------------------------
// The fault plan itself: a pure function of (model, seed, world).
// ---------------------------------------------------------------------------

TEST(SdcPlan, PureFunctionOfSeedAndSchedule) {
  PerturbationModel pm;
  pm.sdc_rate = 1e4;
  pm.mem_faults.push_back({1, 2e-4, PerturbationModel::MemFaultTarget::kPartial});
  pm.mem_faults.push_back({-1, 1e-4, {}});  // invalid rank: dropped
  pm.mem_faults.push_back({9, 1e-4, {}});   // out of range: dropped
  const SdcPlan p1 = build_sdc_plan(pm, /*seed=*/3, /*nranks=*/4);
  const SdcPlan p2 = build_sdc_plan(pm, 3, 4);
  ASSERT_EQ(p1.by_rank.size(), 4u);
  ASSERT_EQ(p2.by_rank.size(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    ASSERT_EQ(p1.by_rank[r].size(), p2.by_rank[r].size());
    for (size_t e = 0; e < p1.by_rank[r].size(); ++e) {
      const SdcEvent &a = p1.by_rank[r][e], &b = p2.by_rank[r][e];
      EXPECT_EQ(a.vt, b.vt);
      EXPECT_EQ(a.word_draw, b.word_draw);
      EXPECT_EQ(a.bit, b.bit);
      EXPECT_EQ(a.refail_draw, b.refail_draw);
    }
    // Per-rank events come sorted by firing time; bits stay in the
    // mantissa window the fault model promises (46..49).
    for (size_t e = 0; e + 1 < p1.by_rank[r].size(); ++e) {
      EXPECT_LE(p1.by_rank[r][e].vt, p1.by_rank[r][e + 1].vt);
    }
    for (const SdcEvent& ev : p1.by_rank[r]) {
      EXPECT_GE(ev.bit, 46);
      EXPECT_LE(ev.bit, 49);
    }
  }
  // The explicit fault landed on its rank; the invalid entries did not.
  bool found = false;
  for (const SdcEvent& ev : p1.by_rank[1]) found |= (ev.vt == 2e-4);
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// (a) ABFT corrects every flip with a bitwise-clean ledger — all paths.
// ---------------------------------------------------------------------------

struct SdcCase {
  Algorithm3d alg;
  bool sparse_zreduce;
  const char* name;
};

class SolverSdcTest : public ::testing::TestWithParam<SdcCase> {};

TEST_P(SolverSdcTest, AbftCorrectsEveryFlipBitwise) {
  const SdcCase& sc = GetParam();
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);

  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.algorithm = sc.alg;
  cfg.sparse_zreduce = sc.sparse_zreduce;
  cfg.run = det_opts(0, /*trace=*/true);
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());
  ASSERT_FALSE(clean.run_stats.sdc_stats().any());

  // One flip at the very first epoch on rank 0, one mid-solve on another
  // rank — exercising both L-phase and later-phase state.
  const double mid = 0.5 * clean.run_stats.ranks[3].vtime;
  const MachineModel m = sdc_machine({{0, 0.0, {}}, {3, mid, {}}});
  cfg.run.abft = true;
  const DistSolveOutcome faulty = solve_system_3d(fs, b, cfg, m);

  const SdcStats s = faulty.run_stats.sdc_stats();
  ASSERT_GE(s.injected, 1) << sc.name;
  EXPECT_EQ(s.detected, s.injected) << sc.name;
  EXPECT_EQ(s.corrected, s.injected) << sc.name;
  EXPECT_GT(s.checks, 0);
  EXPECT_GT(s.verify_time, 0.0);
  EXPECT_GT(s.repair_time, 0.0);

  // Clean ledger: solution, fingerprint, clocks, counters — bit-identical.
  EXPECT_TRUE(bitwise_equal(faulty.x, clean.x)) << sc.name;
  EXPECT_EQ(faulty.run_stats.fingerprint(), clean.run_stats.fingerprint()) << sc.name;
  EXPECT_DOUBLE_EQ(faulty.run_stats.makespan(), clean.run_stats.makespan());
  EXPECT_TRUE(message_counts_identical(faulty.run_stats, clean.run_stats));
  for (size_t r = 0; r < clean.run_stats.ranks.size(); ++r) {
    EXPECT_TRUE(bitwise_equal({&faulty.run_stats.ranks[r].vtime, 1},
                              {&clean.run_stats.ranks[r].vtime, 1}));
    // Every ABFT cost sits on the fault clock only.
    EXPECT_GE(faulty.run_stats.ranks[r].fault_vtime,
              faulty.run_stats.ranks[r].vtime);
  }
  EXPECT_GT(faulty.run_stats.fault_makespan(), faulty.run_stats.makespan());

  // Trace: the clean export is byte-identical; the full-fidelity export
  // carries the inject/detect/correct markers (kept off the clean export).
  ASSERT_NE(clean.run_stats.trace, nullptr);
  ASSERT_NE(faulty.run_stats.trace, nullptr);
  EXPECT_EQ(faulty.run_stats.trace->chrome_json(/*fault_ledger=*/false),
            clean.run_stats.trace->chrome_json(/*fault_ledger=*/false));
  const std::string full = faulty.run_stats.trace->chrome_json();
  EXPECT_NE(full.find("sdc-inject"), std::string::npos);
  EXPECT_NE(full.find("sdc-detect"), std::string::npos);
  EXPECT_NE(full.find("sdc-correct"), std::string::npos);
  EXPECT_EQ(clean.run_stats.trace->chrome_json().find("sdc-"), std::string::npos);

  // Replaying the same schedule reproduces both ledgers bit for bit.
  const DistSolveOutcome replay = solve_system_3d(fs, b, cfg, m);
  EXPECT_TRUE(stats_identical(replay.run_stats, faulty.run_stats));
  EXPECT_EQ(replay.run_stats.fault_fingerprint(),
            faulty.run_stats.fault_fingerprint());
}

INSTANTIATE_TEST_SUITE_P(
    Paths, SolverSdcTest,
    ::testing::Values(SdcCase{Algorithm3d::kProposed, true, "proposed_sparse"},
                      SdcCase{Algorithm3d::kProposed, false, "proposed_dense"},
                      SdcCase{Algorithm3d::kBaseline, true, "baseline"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Sdc2d, AbftCorrectsFlipsInThe2dSolvers) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/0);
  const auto b = random_rhs(a.rows(), 2, 7);
  const Grid2dShape shape{2, 2};

  const auto clean = test::solve_system_2d(fs, shape, b, 2, test_machine(), det_opts(0));
  RunOptions opts = det_opts(0);
  opts.abft = true;
  const auto faulty = test::solve_system_2d(
      fs, shape, b, 2, sdc_machine({{0, 0.0, {}}, {3, 0.0, {}}}), opts);

  const SdcStats s = faulty.run.sdc_stats();
  ASSERT_GE(s.injected, 1);
  EXPECT_EQ(s.detected, s.injected);
  EXPECT_EQ(s.corrected, s.injected);
  EXPECT_TRUE(bitwise_equal(faulty.x, clean.x));
  EXPECT_EQ(faulty.run.fingerprint(), clean.run.fingerprint());
  EXPECT_TRUE(message_counts_identical(faulty.run, clean.run));
}

TEST(SdcAllreduce, AbftCorrectsFlipsInReductionPartials) {
  const NdTree tree = shape_tree(3);
  const int pz = tree.num_leaves();
  std::mutex mu;

  auto run = [&](const MachineModel& m, const RunOptions& opts,
                 std::vector<std::vector<Real>>& results) {
    results.assign(static_cast<size_t>(pz), {});
    return Cluster::run(
        pz, m,
        [&](Comm& c) {
          const int z = c.rank();
          std::vector<std::vector<Real>> storage;
          std::vector<ReduceSegment> segs;
          std::vector<Idx> my_nodes;
          for (Idx id : tree.path_to_root(tree.leaf_node_id(z))) {
            if (tree.node(id).depth >= tree.levels()) continue;
            my_nodes.push_back(id);
            auto& buf = storage.emplace_back(static_cast<size_t>(id % 3 + 1));
            for (size_t i = 0; i < buf.size(); ++i) {
              buf[i] = static_cast<Real>(z * 100 + id * 10) + static_cast<Real>(i);
            }
          }
          for (size_t k = 0; k < my_nodes.size(); ++k) {
            segs.push_back({my_nodes[k], storage[k]});
          }
          sparse_allreduce(c, tree, segs);
          std::vector<Real> flat;
          for (const auto& buf : storage) flat.insert(flat.end(), buf.begin(), buf.end());
          std::lock_guard<std::mutex> lk(mu);
          results[static_cast<size_t>(z)] = std::move(flat);
        },
        opts);
  };

  std::vector<std::vector<Real>> clean_vals, faulty_vals;
  const Cluster::Result clean = run(test_machine(), det_opts(0), clean_vals);
  RunOptions opts = det_opts(0);
  opts.abft = true;
  const Cluster::Result faulty =
      run(sdc_machine({{0, 0.0, PerturbationModel::MemFaultTarget::kPartial},
                       {5, 0.0, PerturbationModel::MemFaultTarget::kPartial}}),
          opts, faulty_vals);

  const SdcStats s = faulty.sdc_stats();
  ASSERT_GE(s.injected, 1);
  EXPECT_EQ(s.detected, s.injected);
  EXPECT_EQ(s.corrected, s.injected);
  EXPECT_EQ(faulty.fingerprint(), clean.fingerprint());
  for (int z = 0; z < pz; ++z) {
    EXPECT_TRUE(bitwise_equal(faulty_vals[static_cast<size_t>(z)],
                              clean_vals[static_cast<size_t>(z)]))
        << "grid " << z;
  }
}

TEST(SdcAttribution, PerTargetLedgersSplitInjectionAndCorrection) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = det_opts(0);
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());

  // One fault per declared target class. The target is the plan's fault
  // attribution (placement inside the exposed state is target-independent),
  // so the per-target ledgers must split exactly along these labels.
  using Target = PerturbationModel::MemFaultTarget;
  const double vt3 = clean.run_stats.ranks[3].vtime;
  const MachineModel m = sdc_machine({{0, 0.0, Target::kX},
                                      {3, 0.4 * vt3, Target::kPartial},
                                      {3, 0.7 * vt3, Target::kLValues}});
  cfg.run.abft = true;
  cfg.run.metrics = true;
  const DistSolveOutcome faulty = solve_system_3d(fs, b, cfg, m);

  const SdcStats s = faulty.run_stats.sdc_stats();
  ASSERT_GE(s.injected, 3);
  EXPECT_EQ(s.injected_by[0] + s.injected_by[1] + s.injected_by[2], s.injected);
  EXPECT_GE(s.injected_by[0], 1);  // x
  EXPECT_GE(s.injected_by[1], 1);  // L values
  EXPECT_GE(s.injected_by[2], 1);  // reduction partial
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(s.corrected_by[t], s.injected_by[t]) << "target " << t;
  }
  // The metric registry mirrors the same split.
  ASSERT_NE(faulty.run_stats.metrics, nullptr);
  const MetricsReport& rep = *faulty.run_stats.metrics;
  EXPECT_DOUBLE_EQ(rep.total("abft.injected.x"),
                   static_cast<double>(s.injected_by[0]));
  EXPECT_DOUBLE_EQ(rep.total("abft.injected.l"),
                   static_cast<double>(s.injected_by[1]));
  EXPECT_DOUBLE_EQ(rep.total("abft.injected.partial"),
                   static_cast<double>(s.injected_by[2]));
  EXPECT_DOUBLE_EQ(rep.total("abft.corrected.x") + rep.total("abft.corrected.l") +
                       rep.total("abft.corrected.partial"),
                   static_cast<double>(s.corrected));
  // Attribution is bookkeeping only: the clean ledger is still untouched.
  EXPECT_TRUE(bitwise_equal(faulty.x, clean.x));
  EXPECT_EQ(faulty.run_stats.fingerprint(), clean.run_stats.fingerprint());
}

TEST(SdcAbft, RecomputeRefailEscalatesToRestoreCost) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = det_opts(0);
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());

  MachineModel m = sdc_machine({{0, 0.0, {}}});
  m.abft.recompute_refail_prob = 1.0;  // every recomputation re-fails
  cfg.run.abft = true;
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, m);
  const SdcStats s = out.run_stats.sdc_stats();
  ASSERT_GE(s.corrected, 1);
  EXPECT_EQ(s.escalated, s.corrected);
  // The escalation chain's restore leg is priced on top of recomputation.
  EXPECT_GE(s.repair_time,
            static_cast<double>(s.corrected) *
                (kAbftRecomputeOverhead + kRestoreOverhead) - 1e-15);
  // Escalation is still invisible on the clean ledger.
  EXPECT_TRUE(bitwise_equal(out.x, clean.x));
  EXPECT_EQ(out.run_stats.fingerprint(), clean.run_stats.fingerprint());
}

// ---------------------------------------------------------------------------
// (b) ABFT off: the residual gate catches what sailed through.
// ---------------------------------------------------------------------------

TEST(SdcVerification, ResidualGateTripsWithoutAbft) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  for (const Algorithm3d alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
    SolveConfig cfg;
    cfg.shape = {2, 2, 2};
    cfg.algorithm = alg;
    cfg.run = det_opts(0);  // ABFT off: corruption survives the solve
    const MachineModel m = sdc_machine({{0, 0.0, {}}, {3, 0.0, {}}});
    try {
      solve_system_3d_verified(a, fs, b, cfg, m);
      FAIL() << "corrupted solve passed the residual gate";
    } catch (const FaultError& fe) {
      EXPECT_EQ(fe.report.kind, FaultKind::kSilentCorruption);
      EXPECT_NE(fe.report.detail.find("residual"), std::string::npos)
          << "detail: " << fe.report.detail;
    }
  }
}

TEST(SdcVerification, SdcRepairDegradesIntoConvergedRefinement) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = det_opts(0);
  cfg.run.sdc_repair = true;
  const MachineModel m = sdc_machine({{0, 0.0, {}}, {3, 0.0, {}}});
  const VerifiedSolveOutcome v = solve_system_3d_verified(a, fs, b, cfg, m);
  EXPECT_TRUE(v.repaired);
  EXPECT_GE(v.repair_iterations, 1);
  EXPECT_LE(v.residual, kSdcResidualTol);
  const SdcStats s = v.solve.run_stats.sdc_stats();
  EXPECT_GE(s.injected, 1);
  EXPECT_EQ(s.detected, 0);  // ABFT was off: nothing caught in-flight
  EXPECT_GE(s.refine_iters, 1);
  EXPECT_GT(s.repair_time, 0.0);
  // The repaired solution matches the sequential reference.
  const auto ref = solve_system_seq(fs, b, 1);
  EXPECT_LT(max_abs_diff(v.solve.x, ref), 1e-6);
}

TEST(SdcVerification, CleanSolvePaysOnlyTheResidualCheck) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = det_opts(0);
  const DistSolveOutcome plain = solve_system_3d(fs, b, cfg, test_machine());
  const VerifiedSolveOutcome v = solve_system_3d_verified(a, fs, b, cfg, test_machine());
  EXPECT_FALSE(v.repaired);
  EXPECT_LE(v.residual, kSdcResidualTol);
  EXPECT_TRUE(bitwise_equal(v.solve.x, plain.x));
  EXPECT_EQ(v.solve.run_stats.fingerprint(), plain.run_stats.fingerprint());
  for (const auto& r : v.solve.run_stats.ranks) {
    EXPECT_EQ(r.sdc.residual_checks, 1);
    EXPECT_GT(r.sdc.residual_time, 0.0);
    EXPECT_GT(r.fault_vtime, r.vtime);  // the check is fault-ledger-priced
  }
}

// Regression: at a heavy rate several events fire in one epoch and can land
// on the same word (exercised here at nd_levels=1, where the exposed pieces
// are small). The flip journal must unwind in reverse (LIFO) order — forward
// restoration writes the later entry's stale "original" (which already
// contains the earlier flip) back over the first restore, leaving the word
// corrupted even though every flip counts as corrected.
TEST(SdcAbft, SameEpochFlipCollisionsUnwindCleanly) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/1);
  const auto b = random_rhs(a.rows(), 1, 3);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = det_opts(0);
  const MachineModel base = MachineModel::cori_haswell();
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, base);
  cfg.run.abft = true;
  MachineModel machine = base;
  machine.perturb.sdc_rate = 5e4;
  const DistSolveOutcome faulty = solve_system_3d(fs, b, cfg, machine);
  const SdcStats s = faulty.run_stats.sdc_stats();
  EXPECT_GT(s.injected, 8);  // heavy rate: multiple flips per epoch
  EXPECT_EQ(s.corrected, s.injected);
  EXPECT_TRUE(bitwise_equal(faulty.x, clean.x));
  EXPECT_EQ(faulty.run_stats.fingerprint(), clean.run_stats.fingerprint());
  EXPECT_LT(relative_residual(a, faulty.x, b), 1e-12);
}

// ---------------------------------------------------------------------------
// (c) Arming ABFT with no faults changes no clean-ledger bit.
// ---------------------------------------------------------------------------

TEST(SdcAbft, ArmedWithoutFaultsIsCleanLedgerInvisible) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = det_opts(0, /*trace=*/true);
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());
  cfg.run.abft = true;
  const DistSolveOutcome armed = solve_system_3d(fs, b, cfg, test_machine());

  const SdcStats s = armed.run_stats.sdc_stats();
  EXPECT_EQ(s.injected, 0);
  EXPECT_GT(s.checks, 0);  // verification ran and was priced
  EXPECT_GT(s.verify_time, 0.0);
  EXPECT_TRUE(bitwise_equal(armed.x, clean.x));
  EXPECT_EQ(armed.run_stats.fingerprint(), clean.run_stats.fingerprint());
  EXPECT_TRUE(message_counts_identical(armed.run_stats, clean.run_stats));
  for (size_t r = 0; r < clean.run_stats.ranks.size(); ++r) {
    EXPECT_TRUE(bitwise_equal({&armed.run_stats.ranks[r].vtime, 1},
                              {&clean.run_stats.ranks[r].vtime, 1}));
  }
  // No flips -> no markers: even the full-fidelity trace is byte-identical.
  ASSERT_NE(armed.run_stats.trace, nullptr);
  EXPECT_EQ(armed.run_stats.trace->chrome_json(),
            clean.run_stats.trace->chrome_json());
  EXPECT_GT(armed.run_stats.fault_makespan(), armed.run_stats.makespan());
}

// ---------------------------------------------------------------------------
// (d) Salt isolation: SDC draws shift no other stream.
// ---------------------------------------------------------------------------

TEST(SdcSaltIsolation, ArmingSdcShiftsNoTimingDeliveryOrCrashDraw) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = det_opts(5);

  // Every other stream live at once: timing jitter + compute skew, delivery
  // faults, and an armed (never-firing) MTBF crash model.
  MachineModel base = perturbed_machine();
  base.perturb.drop_prob = 0.05;
  base.perturb.dup_prob = 0.02;
  base.perturb.corrupt_prob = 0.01;
  base.perturb.reorder_prob = 0.02;
  base.perturb.reorder_window = 5e-6;
  base.perturb.crash_mtbf = 10.0;
  const DistSolveOutcome without = solve_system_3d(fs, b, cfg, base);

  MachineModel with = base;
  with.perturb.sdc_rate = 5e4;
  cfg.run.abft = true;
  const DistSolveOutcome armed = solve_system_3d(fs, b, cfg, with);
  ASSERT_GE(armed.run_stats.sdc_stats().injected, 1)
      << "rate produced no fault; the isolation check would be vacuous";

  // Clean ledger identical, and — the actual pin — every *other* fault
  // stream's accounting is bit-for-bit unmoved.
  EXPECT_TRUE(bitwise_equal(armed.x, without.x));
  EXPECT_EQ(armed.run_stats.fingerprint(), without.run_stats.fingerprint());
  const TransportStats ta = armed.run_stats.transport_totals();
  const TransportStats tb = without.run_stats.transport_totals();
  EXPECT_EQ(ta.data_frames, tb.data_frames);
  EXPECT_EQ(ta.retransmits, tb.retransmits);
  EXPECT_EQ(ta.retrans_bytes, tb.retrans_bytes);
  EXPECT_EQ(ta.timeouts, tb.timeouts);
  EXPECT_EQ(ta.frames_dropped, tb.frames_dropped);
  EXPECT_EQ(ta.acks, tb.acks);
  EXPECT_EQ(ta.corrupt_detected, tb.corrupt_detected);
  EXPECT_EQ(ta.duplicates, tb.duplicates);
  EXPECT_EQ(ta.reordered, tb.reordered);
  const RecoveryStats ra = armed.run_stats.recovery_stats();
  const RecoveryStats rb = without.run_stats.recovery_stats();
  EXPECT_EQ(ra.crashes, rb.crashes);
  EXPECT_EQ(ra.checkpoints, rb.checkpoints);
  EXPECT_EQ(ra.checkpoint_bytes, rb.checkpoint_bytes);
  EXPECT_EQ(ra.restores, rb.restores);
}

}  // namespace
}  // namespace sptrsv
