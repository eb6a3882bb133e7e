#pragma once
/// \file cluster.hpp
/// \brief In-process message-passing runtime with virtual LogGP clocks.
///
/// This substitutes for MPI + the physical cluster (see DESIGN.md §1).
/// Every rank runs its own control flow as a fiber; `Comm` exposes
/// MPI-shaped primitives (send / recv with wildcards / barrier / allreduce /
/// split) with real message passing through per-rank mailboxes, so
/// distributed algorithms are written exactly as they would be against MPI
/// and their *functional* behaviour (message counts, DAG traversal, data
/// movement) is real.
///
/// Performance is modeled, not measured: each rank carries a virtual clock.
/// Compute advances it by flops/rate; a send costs the sender its software
/// overhead and stamps the message with `sender_vt + latency + bytes/BW`;
/// a receive advances the receiver to `max(own_vt, arrival)`. The reported
/// solve time of a run is the maximum clock over ranks (modeled makespan).
///
/// Scheduling (docs/DETERMINISM.md): ranks run as fibers on the thread that
/// called Cluster::run, switched in virtual-time order. A receive only
/// commits to a queued message once no runnable rank could still produce an
/// earlier virtual arrival, so makespans, per-category breakdowns and
/// message counts are bit-reproducible across runs and machines.
///
/// Time is attributed to the paper's breakdown categories (FP operation,
/// XY/intra-grid communication, Z/inter-grid communication; Fig 5-6),
/// defined in runtime/perturbation.hpp together with the seeded
/// PerturbationModel the clock applies when MachineModel::perturb is set.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"
#include "runtime/machine.hpp"
#include "sparse/types.hpp"

namespace sptrsv {

/// Wildcard selectors for Comm::recv (MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Stack size of one rank; every rank runs as a fiber on the thread that
/// called Cluster::run (docs/DETERMINISM.md).
/// Stacks are committed lazily and each sits above a guard page, so a rank
/// that recurses past this dies with SIGSEGV instead of corrupting another
/// rank's stack.
inline constexpr std::size_t kFiberStackBytes = 512 * 1024;

/// Grant-order policy for the scheduler. Every policy keeps the commit
/// fence of docs/DETERMINISM.md intact — a wildcard receive still only
/// commits once no runnable rank could produce an earlier arrival — so
/// clocks, counters and fingerprints must be *identical* across policies;
/// the policies only permute which legal interleaving is explored. That
/// makes schedule exploration a bug-finding tool: any observable difference
/// between two policies is a schedule-dependence bug in the program under
/// test (see docs/TESTING.md).
enum class SchedulePolicy {
  /// Token goes to the minimal (virtual-time key, rank) READY rank — the
  /// historical order; free of any seeded choice.
  kFifo = 0,
  /// PCT-style randomized priorities: each rank draws a seeded priority,
  /// the highest eligible priority runs, and at `priority_points` seeded
  /// grant indices the running rank is demoted below everyone else.
  kRandomPriority = 1,
  /// FIFO, except up to `delay_budget` seeded grants defer the front rank
  /// once in favour of the second-eligible rank.
  kDelayBounded = 2,
};

/// Name of a policy for logs / certificates ("fifo", "random_priority",
/// "delay_bounded").
const char* schedule_policy_name(SchedulePolicy p);

/// Compact replayable record of every grant decision a run made.
/// `(policy, seed, grants)` pins the interleaving exactly: replaying it
/// (RunOptions::replay_schedule) reproduces the run bit-for-bit, including
/// every wildcard tie-break, without re-deriving the policy's choices.
/// Serializes to one text line for bug reports.
struct ScheduleCertificate {
  SchedulePolicy policy = SchedulePolicy::kFifo;
  std::uint64_t seed = 0;
  /// Rank granted the token at each scheduler decision, in order.
  std::vector<std::int32_t> grants;

  /// One line: "<policy> <seed> <n> <g0> <g1> ...".
  std::string to_string() const;
  /// Inverse of to_string; throws std::invalid_argument on malformed text.
  static ScheduleCertificate parse(const std::string& text);
};

/// Per-run scheduling options for Cluster::run.
struct RunOptions {
  /// Always true: every run executes its ranks as fibers on the calling
  /// thread, switched in virtual-time order, so the whole run (makespan,
  /// breakdowns, message counts) is bit-reproducible. Kept only so existing
  /// writers still compile; false throws std::invalid_argument.
  bool deterministic = true;
  /// Seed for MachineModel::perturb draws. A given (machine, seed) pair
  /// yields the same perturbations in every run; ignored when the machine's
  /// perturbation model is inactive.
  std::uint64_t seed = 0;
  /// Record a per-event virtual-time trace (docs/OBSERVABILITY.md) and
  /// publish it as Cluster::Result::trace. Recording never changes modeled
  /// results — clock math is identical with tracing on or off.
  bool trace = false;
  /// Abort with FaultKind::kVtLimit once any rank's clean virtual clock
  /// passes this bound (infinity = unlimited). A cheap guard against
  /// runaway modeled time under pathological fault schedules.
  double vt_limit = std::numeric_limits<double>::infinity();
  /// Grant-order exploration policy (docs/TESTING.md).
  SchedulePolicy schedule = SchedulePolicy::kFifo;
  /// Seed for the schedule policy's choices. Independent of `seed` (the
  /// fault/perturbation stream) so schedules can be swept without touching
  /// fault draws. Wildcard arrival ties are NOT seeded — they break by a
  /// fixed function of the messages, or the clean ledger would diverge.
  std::uint64_t schedule_seed = 0;
  /// kRandomPriority: number of seeded priority-change points (PCT's d).
  /// Must be >= 0.
  int priority_points = 2;
  /// kDelayBounded: maximum number of seeded one-grant deferrals. Must
  /// be >= 0.
  int delay_budget = 8;
  /// Replay a recorded certificate instead of running a policy (the
  /// certificate's policy/seed take precedence over the fields above). The
  /// pointed-to certificate must outlive the run. Grants out of range for
  /// `nranks` throw std::invalid_argument.
  const ScheduleCertificate* replay_schedule = nullptr;
  /// Maintain the per-rank MetricsRegistry (docs/OBSERVABILITY.md §Metrics)
  /// and publish the merged MetricsReport as Cluster::Result::metrics.
  /// Like tracing, metrics sit outside the clean ledger: enabling them
  /// changes no clock bit, fingerprint, message count or trace byte.
  bool metrics = false;
  /// Checksum-augmented (ABFT) solves: verify a running checksum of the
  /// registered solver state at every checkpoint_epoch, localize and
  /// recompute any corrupted word on the spot (docs/ROBUSTNESS.md §SDC).
  /// All verification/repair cost rides the fault ledger, so enabling ABFT
  /// changes no clean-ledger bit — with or without injected faults.
  bool abft = false;
  /// Degraded-mode repair: when the end-of-solve residual check trips with
  /// corruption ABFT could not (or was not enabled to) correct, fall back
  /// to iterative refinement instead of failing with
  /// FaultKind::kSilentCorruption (see solve_system_3d_verified).
  bool sdc_repair = false;
  /// Elastic recovery: when a crash draws an unrecoverable verdict
  /// (kSparesExhausted / kBuddyLoss), shrink the world onto the survivors
  /// and redistribute the victim's partition from the surviving buddy image
  /// instead of aborting (docs/ROBUSTNESS.md §Graceful degradation). The
  /// clean ledger stays bitwise fault-invariant — the solvers' pinned FP
  /// reduction order is partition-parametric, not world-size-parametric —
  /// while agree/shrink/redistribute/replay and the adopter's overload ride
  /// the fault ledger (Result::degradation_stats, recovery.degrade.*
  /// metrics). Only running out of survivors (FaultKind::kNoSurvivors) is
  /// still terminal.
  bool degrade = false;
};

/// A received message.
struct Message {
  int src = 0;             ///< sender's rank within the communicator
  int tag = 0;
  std::vector<Real> data;  ///< payload
  double arrival = 0.0;    ///< virtual arrival time at the receiver
};

namespace detail {
class ClusterState;
class CommGroup;
struct RankCtx;
}  // namespace detail

class Trace;  // trace/trace.hpp — merged per-event trace of a traced run

/// RAII annotation span opened by Comm::annotate. Zero virtual-clock cost;
/// records [open vt, close vt] into the rank's trace buffer (no-op when
/// tracing is off). Closed by destruction; do not hold across reset_clock
/// (the record is dropped, harmlessly, because reset wipes the buffer).
class TraceSpan {
 public:
  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan& operator=(TraceSpan&&) = delete;
  ~TraceSpan();

 private:
  friend class Comm;
  TraceSpan(detail::RankCtx* ctx, const char* label, std::int64_t arg);
  detail::RankCtx* ctx_ = nullptr;  // null when tracing is off
  std::size_t index_ = 0;           // span record to close
  std::uint64_t epoch_ = 0;         // guards against reset_clock in between
};

/// RAII registration of a solver's checkpoint state opened by
/// Comm::register_checkpoint. Registrations form a per-rank stack (strictly
/// LIFO — destroy in reverse registration order): Comm::checkpoint_epoch
/// captures, injects memory faults into and ABFT-verifies the innermost
/// registration's state, and crash recovery checks a restored image against
/// the innermost registration whose label matches the image. No-op (and
/// cost-free) unless the machine's crash model, an SDC schedule, or
/// RunOptions::abft is active.
class CheckpointScope {
 public:
  CheckpointScope(CheckpointScope&& other) noexcept;
  CheckpointScope(const CheckpointScope&) = delete;
  CheckpointScope& operator=(const CheckpointScope&) = delete;
  CheckpointScope& operator=(CheckpointScope&&) = delete;
  ~CheckpointScope();

 private:
  friend class Comm;
  CheckpointScope(detail::RankCtx* ctx, std::size_t index)
      : ctx_(ctx), index_(index) {}
  detail::RankCtx* ctx_ = nullptr;  // null when the layer is bypassed
  std::size_t index_ = 0;           // registration-stack depth to pop back to
};

/// Per-rank communicator handle (value type; cheap to copy). Created by
/// `Cluster::run` for the world and by `split` for subgrids.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;
  const MachineModel& machine() const;

  /// Buffered, non-blocking-semantics send (like MPI_Isend with an
  /// implicit buffer): charges the sender its software overhead and stamps
  /// the arrival using the machine's network link.
  void send(int dst, int tag, std::vector<Real> data,
            TimeCategory cat = TimeCategory::kOther);

  /// Blocking receive; `src`/`tag` may be kAnySource/kAnyTag. Advances the
  /// virtual clock to max(own, arrival) and attributes the wait to `cat`.
  Message recv(int src, int tag, TimeCategory cat = TimeCategory::kOther);

  /// Blocking receive matching any tag in [tag_lo, tag_hi) — used by
  /// message-driven solves so a neighbouring solve's traffic (different tag
  /// window) on the same communicator stays queued.
  Message recv_range(int src, int tag_lo, int tag_hi,
                     TimeCategory cat = TimeCategory::kOther);

  /// Collective barrier; clocks synchronize to the group maximum plus a
  /// logarithmic tree cost.
  void barrier(TimeCategory cat = TimeCategory::kOther);

  /// Collective elementwise sum; models recursive-doubling cost.
  std::vector<Real> allreduce_sum(std::span<const Real> v, TimeCategory cat);

  /// Collective max of a scalar (convenience for makespan / stats).
  double allreduce_max(double v);

  /// Splits into subcommunicators by color, ranked by (key, old rank).
  /// Setup cost is not charged (grids/trees are precomputed in the paper).
  Comm split(int color, int key);

  // --- buddy checkpointing + SDC anchoring (docs/ROBUSTNESS.md; no-ops
  // without a crash model, SDC schedule, or RunOptions::abft) ---
  /// The live solver state a checkpoint covers, as (key, values) entries.
  /// kAppendOnly state must list its entries in ascending key order
  /// (map_state does). The spans must stay valid for the duration of the
  /// checkpoint_epoch or recovery step that fetches them.
  using StateFn = std::function<std::vector<StateEntry>()>;
  /// Declares the replayable state of the enclosing algorithm phase. The
  /// runtime captures it into a buddy image at each checkpoint_epoch, lands
  /// memory faults in its words and checksums them under ABFT, and on crash
  /// recovery checks the restored image against it as `kind` prescribes (a
  /// mismatch is a checkpoint bug, not a modeled fault: std::logic_error).
  /// `label` must outlive the run (string literal). `state` is any callable
  /// a StateFn accepts; a run without a crash model, SDC schedule or ABFT
  /// never wraps it in a StateFn.
  template <class F>
  CheckpointScope register_checkpoint(const char* label, StateKind kind, F&& state) {
    if (!checkpoints_armed()) return CheckpointScope(nullptr, 0);
    return push_checkpoint(label, kind, StateFn(std::forward<F>(state)));
  }
  /// Level-boundary epoch: runs the SDC injection/ABFT verification pass
  /// over the innermost registration's state, then captures that state and
  /// ships it to this rank's buddy. All cost rides the fault ledger only —
  /// the clean clock never moves — so epoch cadence cannot perturb the
  /// modeled solve. `arg` tags the trace marker (level id, row count).
  void checkpoint_epoch(std::int64_t arg = -1);

  // --- virtual clock ---
  double vtime() const;
  void advance(double seconds, TimeCategory cat);
  /// Advances by flops / (cpu_flop_rate x gemm_boost(nrhs, kCoreGemmBoostCap)),
  /// attributed to FP: exactly flops / cpu_flop_rate at nrhs = 1.
  void compute(double flops, Idx nrhs = 1);
  /// Zeroes this rank's clock, category accumulators and message counters
  /// (call after a barrier so ranks restart together; setup is untimed
  /// this way).
  void reset_clock();
  double category_time(TimeCategory cat) const;

  // --- message accounting (validates the paper's message-count claims) ---
  /// Messages this rank sent in `cat` since reset_clock. A point-to-point
  /// send counts one; `barrier` and `allreduce_sum` add the
  /// 2*ceil(log2 P) tree messages their cost model charges (docs/MODEL.md
  /// §collectives); `allreduce_max` and `split` are untimed bookkeeping and
  /// count nothing.
  std::int64_t messages_sent(TimeCategory cat) const;
  /// Payload bytes this rank sent in `cat` since reset_clock. Each modeled
  /// `allreduce_sum` tree message carries the full vector payload;
  /// `barrier` messages are zero-byte.
  std::int64_t bytes_sent(TimeCategory cat) const;

  /// Opens a zero-cost annotation span labeled `label` (must be a string
  /// literal or otherwise outlive the run) with an optional caller-chosen
  /// discriminator `arg` (level, row id, ...). The span closes when the
  /// returned object is destroyed. No-op unless RunOptions::trace is set.
  TraceSpan annotate(const char* label, std::int64_t arg = -1) const;

  // --- metrics (docs/OBSERVABILITY.md §Metrics; no-ops unless
  // RunOptions::metrics) ---
  /// Find-or-register a counter in this rank's registry. Returns a
  /// null-safe handle: register once outside the loop, bump inside it —
  /// the bump never allocates. With metrics off the handle is null and
  /// add() is one branch.
  MetricsRegistry::Counter metric_counter(const char* name) const;

 private:
  friend class Cluster;
  friend class detail::CommGroup;
  Comm(std::shared_ptr<detail::CommGroup> group, int rank, detail::RankCtx* ctx)
      : group_(std::move(group)), rank_(rank), ctx_(ctx) {}

  /// True when a crash model, an SDC schedule or RunOptions::abft is active.
  bool checkpoints_armed() const;
  CheckpointScope push_checkpoint(const char* label, StateKind kind, StateFn state);

  /// Shared body of barrier and allreduce_sum: one collective whose
  /// arrivals also deposit their clocks, after which both clocks sync to the
  /// group maximum plus the cost of `tree_msgs` modeled messages of
  /// `payload` bytes each, the messages are counted, and the flight and
  /// trace entries (labeled `label`) are recorded.
  template <class Deposit, class Finalize, class Extract>
  auto timed_collective(std::int64_t tree_msgs, std::int64_t payload, const char* label,
                        TimeCategory cat, Deposit deposit, Finalize finalize,
                        Extract extract);

  std::shared_ptr<detail::CommGroup> group_;
  int rank_ = 0;
  detail::RankCtx* ctx_ = nullptr;  // owned by ClusterState, outlives Comm
  std::int64_t coll_gen_ = 0;       // this rank's collective sequence number
};

/// Per-rank outcome of a cluster run. The first four fields are the clean
/// ledger (fault-free by construction, hashed by Result::fingerprint);
/// fault_vtime and transport carry the reliable transport's recovery cost
/// and traffic, and coincide with the clean ledger when no delivery faults
/// are configured.
struct RankStats {
  double vtime = 0.0;
  double category[kNumTimeCategories] = {0, 0, 0, 0};
  std::int64_t messages[kNumTimeCategories] = {0, 0, 0, 0};
  std::int64_t bytes[kNumTimeCategories] = {0, 0, 0, 0};
  double fault_vtime = 0.0;
  TransportStats transport;
  RecoveryStats recovery;
  SdcStats sdc;
  DegradationStats degradation;
};

/// Distribution summary of one per-rank statistic (Figs 7-8 load-balance
/// plots). Percentiles use the nearest-rank method, so every reported value
/// is an actual rank's value.
struct Spread {
  double min = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// Max-over-mean load-imbalance ratio (1.0 = perfectly balanced).
  double imbalance() const { return mean > 0.0 ? max / mean : 0.0; }
};

/// Summarizes one value per rank into a Spread.
Spread spread_over(std::span<const double> values);

/// Runs `rank_fn` on `nranks` ranks (fibers on the calling thread) and
/// returns the virtual-clock statistics. Exceptions thrown by any rank are
/// rethrown (first one wins) after every rank has finished.
class Cluster {
 public:
  struct Result {
    std::vector<RankStats> ranks;
    /// Merged event trace; non-null iff RunOptions::trace was set.
    std::shared_ptr<const Trace> trace;
    /// First fault a rank hit (kind == FaultKind::kNone on success). Only
    /// populated by try_run — plain run throws instead.
    FaultReport fault;
    /// First error message of a failed try_run ("" on success).
    std::string error;
    /// Grant-decision record of the run. Feed it back through
    /// RunOptions::replay_schedule to reproduce this exact interleaving —
    /// docs/TESTING.md shows the one-liner.
    ScheduleCertificate schedule;
    /// Merged per-rank metrics; non-null iff RunOptions::metrics was set.
    /// Built even for a faulted run (the counters up to the abort are the
    /// post-mortem evidence).
    std::shared_ptr<const MetricsReport> metrics;
    bool ok() const { return error.empty(); }
    /// Modeled solve makespan: max vtime over ranks.
    double makespan() const;
    /// Makespan on the fault clock: max fault_vtime over ranks — the clean
    /// makespan plus the recovery delay on the slowest rank.
    double fault_makespan() const;
    /// Sum of every rank's reliable-transport counters.
    TransportStats transport_totals() const;
    /// Sum of every rank's crash-recovery counters (crashes, checkpoint
    /// epochs and bytes, detection/repair/restore/replay time). All zero
    /// without a crash model — recovery cost never reaches the clean ledger.
    RecoveryStats recovery_stats() const;
    /// Sum of every rank's SDC/ABFT counters (flips injected / detected /
    /// corrected / escalated, epoch checks, residual checks, degraded-mode
    /// refinement iterations, verify/repair/residual time). All zero
    /// without an SDC schedule or ABFT — like every other fault class, SDC
    /// cost never reaches the clean ledger.
    SdcStats sdc_stats() const;
    /// Sum of every rank's graceful-degradation counters (shrinks, ranks
    /// lost, partitions adopted, redistribution traffic, agree/shrink/
    /// redistribute/replay/overload time). All zero unless
    /// RunOptions::degrade absorbed an otherwise-unrecoverable crash.
    /// The overload_mult component merges with max semantics: the worst
    /// post-shrink multiplier any partition ran under.
    DegradationStats degradation_stats() const;
    /// Mean over ranks of one category (paper plots rank-averaged bars).
    double mean_category(TimeCategory cat) const;
    double max_category(TimeCategory cat) const;
    double min_category(TimeCategory cat) const;
    /// Distribution of one category's per-rank time (p50/p99/max/imbalance).
    Spread category_spread(TimeCategory cat) const;
    /// Distribution of per-rank total virtual times.
    Spread vtime_spread() const;
    /// Order-sensitive hash of every per-rank *clean-ledger* statistic
    /// (clock bits, category times, message/byte counts). Two runs of the
    /// same program must produce equal fingerprints;
    /// repeatability checks and benches compare this single value. Delivery
    /// faults never move it — that is the reliable transport's contract.
    std::uint64_t fingerprint() const;
    /// fingerprint() extended with the fault ledger (fault clocks,
    /// transport counters and recovery counters) — pins the *fault
    /// schedule* itself, so a seeded faulty run is bit-reproducible end to
    /// end.
    std::uint64_t fault_fingerprint() const;
  };

  /// Runs `rank_fn(comm)` on every rank of a world of size `nranks`.
  /// A rank's exception (including FaultError) is rethrown once every rank
  /// has finished.
  static Result run(int nranks, const MachineModel& machine,
                    const std::function<void(Comm&)>& rank_fn,
                    const RunOptions& opts = {});

  /// Like run, but never throws on a rank failure: the Result carries the
  /// first error string and, for fault-terminated runs, the structured
  /// FaultReport (docs/ROBUSTNESS.md). Statistics reflect the state at
  /// abort. Invalid arguments still throw.
  static Result try_run(int nranks, const MachineModel& machine,
                        const std::function<void(Comm&)>& rank_fn,
                        const RunOptions& opts = {});

 private:
  /// Shared body of run/try_run: always returns the statistics gathered up
  /// to completion or abort, and hands the first per-rank error (if any)
  /// back through `err_out` for the caller to rethrow or record.
  static Result run_impl(int nranks, const MachineModel& machine,
                         const std::function<void(Comm&)>& rank_fn,
                         const RunOptions& opts, std::exception_ptr* err_out);
};

}  // namespace sptrsv
