#pragma once
/// \file perturbation.hpp
/// \brief Time-breakdown categories and the seeded fault/perturbation model.
///
/// The PerturbationModel injects seeded faults into the runtime. The
/// *timing* knobs (latency jitter, scheduled link degradation, per-rank
/// compute skew, delivery-delay windows) perturb the virtual clock only:
/// payloads, message counts and numerical results are never touched, so a
/// solver that is correct must produce bit-identical solutions and message
/// counts under every seed — the invariant tests/test_determinism.cpp
/// asserts. The *delivery* knobs (drop / duplicate / corrupt / reorder
/// probabilities, per-link faults, rank-stall schedules) feed the reliable
/// transport layer (runtime/reliable.hpp, docs/ROBUSTNESS.md): the clean
/// clock and counters still never move, and recovery cost lands on the
/// parallel fault clock and TransportStats ledger instead. Randomness is a
/// pure counter-based hash of (seed, rank, draw index), so a draw does not
/// depend on the grant order and a failing seed replays exactly.
///
/// The model is attached to MachineModel (a degraded machine is still a
/// machine); the seed lives in RunOptions so one machine description can be
/// swept over many perturbation seeds.

#include <cstdint>
#include <limits>
#include <vector>

namespace sptrsv {

/// Paper Fig 5-6 time-breakdown buckets.
enum class TimeCategory : int {
  kFp = 0,      ///< floating-point operations
  kXyComm = 1,  ///< intra-grid (2D solve) communication
  kZComm = 2,   ///< inter-grid (between 2D grids) communication
  kOther = 3,   ///< setup, idle at final barrier, uncategorized
};
inline constexpr int kNumTimeCategories = 4;

/// Seeded, timing-only fault injection applied by the runtime's clock.
struct PerturbationModel {
  /// Per-message latency jitter: each send's link latency is multiplied by
  /// 1 + U[0, latency_jitter).
  double latency_jitter = 0.0;
  /// Per-message delivery delay window: U[0, delivery_delay) extra seconds
  /// are added to the message's virtual arrival time.
  double delivery_delay = 0.0;
  /// Per-rank compute skew: a rank's floating-point time is multiplied by a
  /// rank-constant factor drawn from 1 + U[0, compute_skew).
  double compute_skew = 0.0;

  /// Scheduled slowdown of one traffic class: within the virtual-time
  /// window [vt_begin, vt_end), latency is multiplied by `latency_factor`
  /// and bandwidth by `bandwidth_factor` for matching sends.
  struct LinkDegradation {
    /// Traffic class the degradation applies to (matched against the
    /// TimeCategory of the send); ignored when `all_categories` is set.
    TimeCategory category = TimeCategory::kOther;
    bool all_categories = false;
    double vt_begin = 0.0;
    double vt_end = std::numeric_limits<double>::infinity();
    double latency_factor = 1.0;
    double bandwidth_factor = 1.0;
  };
  std::vector<LinkDegradation> degradations;

  // --- delivery faults (reliable transport, docs/ROBUSTNESS.md) ---
  // These never perturb the clean clock/counters; they drive the analytic
  // ack/retransmit simulation whose cost lands on the fault clock.

  /// Probability a network frame (data or ack) is dropped.
  double drop_prob = 0.0;
  /// Probability a delivered, acked data frame is followed by a spurious
  /// duplicate (suppressed by the receiver's sequence numbers).
  double dup_prob = 0.0;
  /// Probability a delivered data frame arrives with flipped payload bits
  /// (caught by the end-to-end checksum; the receiver discards, the sender
  /// times out and retransmits).
  double corrupt_prob = 0.0;
  /// Probability a delivered frame straggles behind later traffic by
  /// U[0, reorder_window) extra virtual seconds. The transport resequences
  /// via per-peer sequence numbers, so the application-visible order is
  /// unchanged; the straggle delay lands on the fault clock.
  double reorder_prob = 0.0;
  double reorder_window = 0.0;

  /// Extra drop probability on one directed link; -1 matches any rank.
  /// The worst matching probability (including the global drop_prob) wins.
  struct LinkFault {
    int src = -1;  ///< sender world rank, -1 = any
    int dst = -1;  ///< receiver world rank, -1 = any
    double drop_prob = 0.0;
  };
  std::vector<LinkFault> link_faults;

  // --- crash-stop failures (recovery layer, docs/ROBUSTNESS.md) ---
  // Crash schedules never perturb the clean clock/counters either: the
  // victim's solve state is restored from its buddy checkpoint and replayed,
  // so the solution and clean ledger are bitwise fault-invariant. Detection
  // latency, ULFM repair collectives, restore traffic and replayed compute
  // land on the fault clock and Result::recovery_stats.

  /// Deterministic crash schedule: kill world rank `rank` the first time its
  /// clean virtual clock reaches `vt` (interpreted on the post-reset_clock
  /// clock, i.e. relative to solve start when the solver resets the clock).
  struct Crash {
    int rank = -1;
    double vt = 0.0;
  };
  std::vector<Crash> crashes;

  /// Poisson crash model: each rank draws exponential inter-failure times
  /// with this mean (seconds of clean virtual time), at most
  /// kCrashMaxPerRank of them; 0 disables. Draws come from a dedicated
  /// salted stream (kCrashStreamSalt) with its own per-rank counter, so
  /// enabling MTBF crashes never shifts a timing or delivery draw.
  double crash_mtbf = 0.0;

  /// Deterministic checkpoint-image corruption: flip one bit in the image
  /// rank `rank` captures at epoch `epoch`, after its payload checksum is
  /// stamped — so the corruption is latent until a restore or degrade fetch
  /// validates the image, rejects it (RecoveryStats::image_rejects) and
  /// escalates to replay-from-start instead of resurrecting bad state.
  struct CheckpointFault {
    int rank = -1;
    std::int64_t epoch = -1;
  };
  std::vector<CheckpointFault> ckpt_faults;

  // --- silent data corruption (ABFT layer, docs/ROBUSTNESS.md) ---
  // Memory faults flip bits in modeled solver state (solution entries,
  // local factor values, reduction partials) at level/epoch boundaries.
  // With RunOptions::abft the flips are detected and corrected on the spot
  // and — like every other fault class — the clean clock, counters and
  // solution stay bitwise fault-invariant; without ABFT the corruption
  // persists into the solution and is caught (if at all) by the end-of-solve
  // residual check. Draws come from a dedicated salted stream
  // (kMemStreamSalt) with its own per-rank counter, so arming SDC injection
  // never shifts a timing, delivery or crash draw.

  /// Which class of modeled solver state a memory fault lands in. All
  /// classes corrupt live solve state; the target is kept for attribution
  /// (per-target stats and flight-recorder entries).
  enum class MemFaultTarget : int {
    kX = 0,        ///< a solution / RHS entry
    kLValues = 1,  ///< a local factor value feeding the next updates
    kPartial = 2,  ///< a reduction partial sum
  };

  /// Deterministic memory-fault schedule: flip one bit in `rank`'s solver
  /// state at the first epoch boundary whose clean clock reaches `vt`
  /// (interpreted on the post-reset_clock solve clock, like Crash::vt).
  struct MemFault {
    int rank = -1;
    double vt = 0.0;
    MemFaultTarget target = MemFaultTarget::kX;
  };
  std::vector<MemFault> mem_faults;

  /// Poisson SDC model: each rank draws exponential inter-fault times with
  /// mean 1/sdc_rate (faults per second of clean virtual time), at most
  /// kSdcMaxPerRank of them; 0 disables.
  double sdc_rate = 0.0;

  /// Scheduled rank stall: within the sender-clock window
  /// [vt_begin, vt_end), frames to or from `rank` either crawl (flight
  /// multiplied by `flight_factor` — a slow straggler) or, if `permanent`,
  /// are never delivered at all (an outage; retransmits that land past
  /// vt_end recover, an infinite window exhausts the retry budget and
  /// surfaces as a FaultReport).
  struct RankStall {
    int rank = -1;  ///< world rank, -1 = any
    double vt_begin = 0.0;
    double vt_end = std::numeric_limits<double>::infinity();
    double flight_factor = 1.0;
    bool permanent = false;
  };
  std::vector<RankStall> stalls;

  /// True if any timing knob deviates from the identity model (these alter
  /// the clean virtual clock).
  bool active() const {
    return latency_jitter > 0.0 || delivery_delay > 0.0 || compute_skew > 0.0 ||
           !degradations.empty();
  }

  /// True if any delivery-fault knob is set (these engage the reliable
  /// transport; the clean clock and counters are still never altered).
  bool delivery_active() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || corrupt_prob > 0.0 ||
           reorder_prob > 0.0 || !link_faults.empty() || !stalls.empty();
  }

  /// True if any crash-stop knob is set (these engage heartbeat detection,
  /// buddy checkpointing and the ULFM-style recovery path; the clean clock,
  /// counters and solution are still never altered).
  bool crash_active() const { return !crashes.empty() || crash_mtbf > 0.0; }

  /// True if any silent-data-corruption knob is set (these inject memory
  /// faults at epoch boundaries; with ABFT the clean ledger and solution
  /// are still never altered).
  bool sdc_active() const { return !mem_faults.empty() || sdc_rate > 0.0; }
};

/// Cap on MTBF-generated crashes per rank (PerturbationModel::crash_mtbf;
/// explicit crashes are never capped).
inline constexpr int kCrashMaxPerRank = 1;
/// Cap on rate-generated memory faults per rank (PerturbationModel::sdc_rate;
/// explicit mem_faults are never capped).
inline constexpr int kSdcMaxPerRank = 4;

namespace detail {

/// SplitMix64: the counter-based generator behind every perturbation draw.
inline std::uint64_t hash64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform draw in [0, 1) as a pure function of (seed, rank, sequence
/// number) — identical across runs regardless of the grant order.
inline double perturb_uniform(std::uint64_t seed, std::uint64_t rank,
                              std::uint64_t seq) {
  const std::uint64_t h = hash64(hash64(seed ^ (rank << 32)) ^ seq);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace detail

}  // namespace sptrsv
