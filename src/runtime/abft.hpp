#pragma once
/// \file abft.hpp
/// \brief Silent-data-corruption model: memory-fault plans and the
/// algorithm-based fault tolerance (ABFT) cost/ledger model
/// (docs/ROBUSTNESS.md).
///
/// PR 3 made the runtime survive a lossy network, PR 4 a lossy membership;
/// this layer makes it survive lossy *memory*. A memory-fault schedule
/// (explicit rank/vt/target triples or a Poisson sdc_rate stream) flips one
/// mantissa bit of live solver state at level/epoch boundaries. With
/// RunOptions::abft the runtime verifies a running checksum of that state at
/// every epoch: a mismatch localizes the corrupted word, which is recomputed
/// from retained inputs (escalating to the buddy-checkpoint restore path if
/// the recomputation re-fails), so the clean clock, counters, trace bytes
/// and Result::fingerprint stay bitwise identical to a fault-free run.
/// Without ABFT the corruption persists into the solution and is caught (if
/// at all) by the end-of-solve residual check, which surfaces
/// FaultKind::kSilentCorruption or — with RunOptions::sdc_repair — falls
/// back to iterative refinement as degraded-mode repair.
///
/// Like every other fault source, SDC draws come from a dedicated salted
/// counter-RNG stream (kMemStreamSalt) with its own per-rank counter, so
/// arming SDC injection never shifts a timing, delivery or crash draw.

#include <cstdint>
#include <vector>

#include "runtime/perturbation.hpp"

namespace sptrsv {

/// ABFT recompute model (attached to MachineModel::abft; consulted while
/// RunOptions::abft or PerturbationModel::sdc_active()). The cost constants
/// and the residual gate follow the struct.
struct AbftModel {
  /// Probability a localized recomputation re-fails and correction
  /// escalates to the buddy-checkpoint restore path (costed at
  /// kRestoreOverhead; the escalated restore always succeeds in the model).
  double recompute_refail_prob = 0.0;
};

/// Flat software cost of one epoch checksum verification, on top of the
/// per-word arithmetic (one multiply-add per checked word at the machine's
/// flop rate).
inline constexpr double kAbftCheckOverhead = 200e-9;
/// Cost of recomputing one localized corrupt block from retained inputs.
inline constexpr double kAbftRecomputeOverhead = 2e-6;
/// End-of-solve residual gate: relative max-norm residuals above this trip
/// FaultKind::kSilentCorruption (or the sdc_repair fallback). The injected
/// flips perturb 2^-6..2^-3 of a word, far above this.
inline constexpr double kSdcResidualTol = 1e-6;

/// Per-rank SDC/ABFT ledger — the memory-fault third of the fault ledger.
/// All fields are 8-byte scalars so RankStats stays padding-free (tests
/// memcmp it). All zero when neither SDC injection nor ABFT is configured.
struct SdcStats {
  std::int64_t injected = 0;         ///< bit flips landed in solver state
  std::int64_t detected = 0;         ///< flips caught by an epoch checksum
  std::int64_t corrected = 0;        ///< flips repaired by recomputation
  std::int64_t escalated = 0;        ///< corrections that re-failed into a
                                     ///< buddy-checkpoint restore
  std::int64_t checks = 0;           ///< epoch checksum verifications run
  std::int64_t residual_checks = 0;  ///< end-of-solve residual evaluations
  std::int64_t refine_iters = 0;     ///< degraded-mode refinement iterations
  /// Per-target attribution of injected/corrected flips, indexed by
  /// PerturbationModel::MemFaultTarget (kX / kLValues / kPartial). The
  /// target is the plan's declared fault class — placement inside the
  /// exposed state is target-independent (word_draw spans all live words).
  std::int64_t injected_by[3] = {0, 0, 0};
  std::int64_t corrected_by[3] = {0, 0, 0};
  double verify_time = 0.0;          ///< checksum verification time absorbed
  double repair_time = 0.0;          ///< recompute + escalation time
  double residual_time = 0.0;        ///< end-of-solve residual check time

  SdcStats& operator+=(const SdcStats& o) {
    injected += o.injected;
    detected += o.detected;
    corrected += o.corrected;
    escalated += o.escalated;
    checks += o.checks;
    residual_checks += o.residual_checks;
    refine_iters += o.refine_iters;
    for (int t = 0; t < 3; ++t) {
      injected_by[t] += o.injected_by[t];
      corrected_by[t] += o.corrected_by[t];
    }
    verify_time += o.verify_time;
    repair_time += o.repair_time;
    residual_time += o.residual_time;
    return *this;
  }
  bool any() const {
    return injected != 0 || detected != 0 || checks != 0 || residual_checks != 0;
  }
};

/// One planned memory fault at a rank, with every random choice predrawn so
/// every grant order (and the ABFT-on / ABFT-off twins of one schedule)
/// flip the exact same bit of the exact same word.
struct SdcEvent {
  double vt = 0.0;  ///< clean virtual time the fault arms at; it fires at
                    ///< the first epoch boundary whose clock reaches it
  PerturbationModel::MemFaultTarget target =
      PerturbationModel::MemFaultTarget::kX;
  std::uint64_t word_draw = 0;  ///< raw draw; word index = draw % live words
  int bit = 46;                 ///< mantissa bit to flip (46..49)
  double refail_draw = 0.0;     ///< vs AbftModel::recompute_refail_prob
};

/// The full schedule: per-rank memory faults sorted by virtual time. A pure
/// function of (PerturbationModel, seed, nranks) — no wall-clock state — so
/// a failing schedule replays exactly.
struct SdcPlan {
  std::vector<std::vector<SdcEvent>> by_rank;
};

/// Builds the memory-fault plan: explicit PerturbationModel::mem_faults
/// entries plus, when sdc_rate > 0, per-rank Poisson arrivals (exponential
/// inter-fault times drawn from the salted kMemStreamSalt stream, capped at
/// kSdcMaxPerRank). Word/bit/refail draws are consumed here, once, on the
/// same stream.
SdcPlan build_sdc_plan(const PerturbationModel& pm, std::uint64_t seed,
                       int nranks);

}  // namespace sptrsv
