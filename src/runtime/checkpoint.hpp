#pragma once
/// \file checkpoint.hpp
/// \brief Crash-stop failure model: in-memory buddy checkpointing and the
/// precomputed fault plan behind ULFM-style recovery (docs/ROBUSTNESS.md).
///
/// PR 3 made the runtime survive a lossy *network*; this layer makes it
/// survive a lossy *membership*. A crash schedule (explicit rank/vt pairs or
/// a Poisson MTBF stream) kills ranks mid-solve; the runtime detects the
/// failure by missed virtual-clock heartbeats, repairs the communicator with
/// ULFM-style revoke/shrink/agree sweeps, has a spare rank adopt the dead
/// rank's identity, restores the victim's solve state from the in-memory
/// checkpoint its buddy holds, and replays only the work since the last
/// level-boundary epoch.
///
/// Two-ledger accounting extends to all of it: the crash is simulated
/// analytically at the instant the victim's *clean* clock crosses the crash
/// time, so the clean clock, counters, solution and trace stay bitwise
/// fault-invariant, while detection latency, repair sweeps, checkpoint
/// traffic, restore traffic and replayed compute land on the fault clock and
/// the RecoveryStats ledger (Cluster::Result::recovery_stats).
///
/// Like every other fault source, crash draws come from a dedicated salted
/// counter-RNG stream with its own per-rank counter, so enabling crashes
/// never shifts a timing or delivery draw.

#include <algorithm>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "runtime/abft.hpp"
#include "runtime/perturbation.hpp"
#include "runtime/reliable.hpp"
#include "sparse/types.hpp"

namespace sptrsv {

/// Spare pool of the recovery model (attached to MachineModel::recovery;
/// consulted only while PerturbationModel::crash_active()). The detector and
/// cost constants follow the struct.
struct RecoveryModel {
  /// Warm spare ranks available to adopt dead ranks' identities. Crashes are
  /// matched to spares in global (crash time, rank) order; one more crash
  /// than spares is unrecoverable (FaultKind::kSparesExhausted).
  int spare_ranks = 2;
};

/// Virtual-clock heartbeat period of the failure detector. A crash at clean
/// time t is detected at the first heartbeat slot
/// (floor(t / period) + misses) * period — the dead rank must miss
/// kHeartbeatMisses consecutive beats before it is declared failed.
inline constexpr double kHeartbeatPeriod = 100e-6;
inline constexpr int kHeartbeatMisses = 3;
/// Per-epoch software cost of capturing + shipping one buddy checkpoint (on
/// top of the modeled wire time of the image).
inline constexpr double kCheckpointOverhead = 1e-6;
/// Software cost of installing a fetched checkpoint image on the spare (on
/// top of the modeled wire time of the fetch).
inline constexpr double kRestoreOverhead = 10e-6;
/// Replayed-compute multiplier: recovery re-executes the (crash time − last
/// epoch time) of lost progress scaled by this factor (1.0 = replay at the
/// original speed).
inline constexpr double kReplayFactor = 1.0;

/// Per-rank recovery-cost ledger — the crash-stop half of the fault ledger.
/// All fields are 8-byte scalars so RankStats stays padding-free (tests
/// memcmp it). All zero when no crash model is configured.
struct RecoveryStats {
  std::int64_t crashes = 0;          ///< crash events processed at this rank
  std::int64_t checkpoints = 0;      ///< buddy checkpoint epochs captured
  std::int64_t checkpoint_bytes = 0; ///< bytes shipped to the buddy
  std::int64_t restores = 0;         ///< checkpoint images restored
  std::int64_t spares_used = 0;      ///< spare adoptions consumed by this rank
  std::int64_t image_rejects = 0;    ///< images failing their payload checksum
                                     ///< on fetch (escalated to full replay)
  double detect_time = 0.0;          ///< heartbeat detection latency absorbed
  double repair_time = 0.0;          ///< revoke/shrink/agree sweep time
  double restore_time = 0.0;         ///< buddy fetch + install time
  double replay_time = 0.0;          ///< recomputed progress since last epoch
  double checkpoint_time = 0.0;      ///< epoch capture + shipment time

  RecoveryStats& operator+=(const RecoveryStats& o) {
    crashes += o.crashes;
    checkpoints += o.checkpoints;
    checkpoint_bytes += o.checkpoint_bytes;
    restores += o.restores;
    spares_used += o.spares_used;
    image_rejects += o.image_rejects;
    detect_time += o.detect_time;
    repair_time += o.repair_time;
    restore_time += o.restore_time;
    replay_time += o.replay_time;
    checkpoint_time += o.checkpoint_time;
    return *this;
  }
  bool any() const { return crashes != 0 || checkpoints != 0; }
};

/// Per-rank graceful-degradation ledger (RunOptions::degrade): shrink,
/// redistribution and replay cost of elastic recovery after the spare pool
/// ran dry. All fields are 8-byte scalars so RankStats stays padding-free
/// (tests memcmp it). All zero unless a degrade actually fired.
struct DegradationStats {
  std::int64_t degrades = 0;           ///< shrink-and-redistribute recoveries
  std::int64_t ranks_lost = 0;         ///< ranks permanently retired at this rank
  std::int64_t partitions_adopted = 0; ///< partitions this rank took over
  std::int64_t redistributed_bytes = 0;///< checkpoint bytes shipped to adopters
  double agree_time = 0.0;             ///< survivor agreement sweeps (2 per degrade)
  double shrink_time = 0.0;            ///< survivor communicator rebuild sweep
  double redistribute_time = 0.0;      ///< buddy-image wire time to the adopter
  double replay_time = 0.0;            ///< replayed progress since the last epoch
  double overload_time = 0.0;          ///< extra compute from hosting >1 partition
  /// Post-shrink overload multiplier this partition runs under: its host's
  /// partition count, which only rises (0 = never overloaded). Merged with
  /// max semantics, not summed: the cluster total reports the worst
  /// multiplier any partition saw.
  double overload_mult = 0.0;

  DegradationStats& operator+=(const DegradationStats& o) {
    degrades += o.degrades;
    ranks_lost += o.ranks_lost;
    partitions_adopted += o.partitions_adopted;
    redistributed_bytes += o.redistributed_bytes;
    agree_time += o.agree_time;
    shrink_time += o.shrink_time;
    redistribute_time += o.redistribute_time;
    replay_time += o.replay_time;
    overload_time += o.overload_time;
    if (o.overload_mult > overload_mult) overload_mult = o.overload_mult;
    return *this;
  }
  bool any() const { return degrades != 0 || partitions_adopted != 0; }
};

/// One entry of a solver's live checkpoint state: the values stored under
/// `key` (a supernode or tree-node id).
struct StateEntry {
  Idx key;
  std::span<Real> values;
};

/// How registered state evolves between epochs, which fixes what a restored
/// image must agree with (Comm::register_checkpoint).
enum class StateKind {
  /// Entries are only added, never changed, and listed in ascending key
  /// order: an image must be a bitwise subset of the live entries.
  kAppendOnly,
  /// The entries are fixed and their values are updated in place: an image
  /// must list the live keys and lengths in the live order.
  kInPlace,
};

/// A map's entries in ascending key order, so images, restore checks and
/// SDC word draws do not depend on hash-map iteration order.
template <class Map>
std::vector<StateEntry> map_state(Map& m) {
  std::vector<StateEntry> out;
  out.reserve(m.size());
  for (auto& [key, values] : m) out.push_back({key, values});
  std::sort(out.begin(), out.end(),
            [](const StateEntry& a, const StateEntry& b) { return a.key < b.key; });
  return out;
}

/// One planned crash of a rank, with its recovery verdict precomputed from
/// the static schedule (so every grant order agrees on it bit for bit).
struct CrashEvent {
  double vt = 0.0;   ///< clean virtual time the rank dies at
  int spare = -1;    ///< spare slot adopting the identity (-1: unrecoverable)
  /// kNone = recoverable; kBuddyLoss = the buddy died inside this crash's
  /// detection window (the checkpoint died with it); kSparesExhausted = the
  /// spare pool was already consumed by earlier crashes.
  FaultKind verdict = FaultKind::kNone;
  /// Elastic-recovery plan for an unrecoverable verdict, precomputed so every
  /// grant order degrades identically under RunOptions::degrade (and
  /// ignored entirely without it). `adopter` is the survivor that inherits
  /// the victim's partition; `survivors_after` counts the post-shrink world
  /// (<= 0: nobody left, FaultKind::kNoSurvivors). `image_survives` is 0
  /// when the buddy image died with the buddy (kBuddyLoss, or a buddy that
  /// was itself degraded away) and the adopter, or for a recoverable crash
  /// the spare, must replay from solve start.
  int adopter = -1;
  int survivors_after = -1;
  int image_survives = 1;
};

/// One step of an adopter's overload schedule under RunOptions::degrade:
/// from clean time `vt` on, every partition hosted on the adopter's physical
/// rank runs at 1/mult speed (mult = partitions per host), so each clean
/// compute second costs an extra (mult - 1) seconds on the fault clock.
/// `adopt_delta` is nonzero only on the adopting partition's own event: the
/// number of partitions it just inherited (DegradationStats attribution).
struct DegradeEvent {
  double vt = 0.0;
  double mult = 1.0;
  std::int64_t adopt_delta = 0;
};

/// One planned fault of one rank, of any class. The variant index is the
/// event's kind: at equal clean times a crash fires before an overload
/// step, and an overload step before a memory fault arms.
using FaultEvent = std::variant<CrashEvent, DegradeEvent, SdcEvent>;

/// Clean virtual time a planned fault fires (or, for a memory fault, arms) at.
inline double fault_time(const FaultEvent& e) {
  return std::visit([](const auto& ev) { return ev.vt; }, e);
}

/// Pure geometry of one elastic shrink: who inherits the newest victim's
/// partition and how many ranks remain. `dead` is the ordered list of ranks
/// degraded away so far, newest last; duplicates are ignored. The adopter is
/// the first survivor scanning up the rank ring from victim + 1 — the same
/// deterministic rule on every rank, so survivors agree without
/// communication. `image_survives` reflects only the ring state (buddy not
/// yet degraded away); build_fault_plan additionally clears it for
/// kBuddyLoss verdicts, where the buddy died inside the detection window.
struct DegradePlan {
  int victim = -1;
  int adopter = -1;
  int survivors_after = 0;
  int image_survives = 0;
};

DegradePlan build_degrade_plan(int nranks, const std::vector<int>& dead);

/// Builds the whole fault schedule of a run: one event stream per rank,
/// stable-sorted by (clean time, kind). A pure function of
/// (PerturbationModel, RecoveryModel, seed, nranks) — no wall-clock state —
/// so a failing schedule replays exactly, and every grant order fires the
/// same events in the same order.
///  - Crashes: explicit PerturbationModel::crashes entries plus, when
///    crash_mtbf > 0, per-rank Poisson arrivals (exponential inter-failure
///    times drawn from the salted crash stream, capped at
///    kCrashMaxPerRank). Verdicts are assigned here, statically:
///    buddy-pair losses first (both events inside one detection window are
///    unrecoverable), then spares in global (vt, rank) order until the pool
///    runs dry.
///  - Overload steps: the shrink of every unrecoverable verdict, which
///    retires the rank for good; its later crashes are dropped. Planned
///    unconditionally; the runtime consults them only under
///    RunOptions::degrade.
///  - Memory faults: build_sdc_plan's events. They arm when the clean clock
///    crosses them and land at the next checkpoint epoch.
std::vector<std::vector<FaultEvent>> build_fault_plan(const PerturbationModel& pm,
                                                      const RecoveryModel& rm,
                                                      std::uint64_t seed, int nranks);

}  // namespace sptrsv
